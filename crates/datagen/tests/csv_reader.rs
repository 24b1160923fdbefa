//! Seeded fuzz and differential tests of the grouped-CSV reader.
//!
//! * Fuzz: byte-level mutations of a valid grouped CSV (flipped bytes,
//!   inserted `"`, `,`, `\n` or `\r`, truncation), kept valid UTF-8. Every
//!   input ends in a dataset or a typed `CsvError`, never a panic, and every
//!   dataset read survives a write/read round trip.
//! * Differential: generated inputs without quoted line ends or quoted
//!   padding, where the reader must agree with `line_based`, a copy of the
//!   line-at-a-time reader it replaced: the same dataset bit for bit, or the
//!   same error.

use aggsky_core::{Direction, GroupedDataset, GroupedDatasetBuilder};
use aggsky_datagen::{csv_value_columns, parse_grouped_csv, to_grouped_csv, CsvError, Rng64};

/// The line-based reader the one-pass reader replaced, kept as the oracle:
/// it splits the text into lines first, so a quoted field cannot span lines,
/// and it trims every field, quoted or not.
mod line_based {
    use aggsky_core::{Direction, GroupedDataset, GroupedDatasetBuilder};
    use aggsky_datagen::CsvError;

    fn split_line(line: &str, line_no: usize) -> Result<Vec<String>, CsvError> {
        let mut fields = Vec::new();
        let mut cur = String::new();
        let mut chars = line.chars().peekable();
        let mut in_quotes = false;
        loop {
            match chars.next() {
                None => {
                    if in_quotes {
                        return Err(CsvError::UnterminatedQuote { line: line_no });
                    }
                    fields.push(cur);
                    return Ok(fields);
                }
                Some('"') if in_quotes => {
                    if chars.peek() == Some(&'"') {
                        chars.next();
                        cur.push('"');
                    } else {
                        in_quotes = false;
                    }
                }
                Some('"') if cur.is_empty() && !in_quotes => in_quotes = true,
                Some(',') if !in_quotes => {
                    fields.push(std::mem::take(&mut cur));
                }
                Some(c) => cur.push(c),
            }
        }
    }

    pub fn csv_value_columns(text: &str, group_column: &str) -> Result<Vec<String>, CsvError> {
        let header_line = text.lines().find(|l| !l.trim().is_empty()).ok_or(CsvError::NoRecords)?;
        let header = split_line(header_line, 1)?;
        if !header.iter().any(|h| h.trim().eq_ignore_ascii_case(group_column)) {
            return Err(CsvError::MissingGroupColumn(group_column.to_string()));
        }
        Ok(header
            .into_iter()
            .map(|h| h.trim().to_string())
            .filter(|h| !h.eq_ignore_ascii_case(group_column))
            .collect())
    }

    pub fn parse_grouped_csv(
        text: &str,
        group_column: &str,
        directions: Option<&[Direction]>,
    ) -> Result<GroupedDataset, CsvError> {
        let mut lines = text.lines().enumerate().filter(|(_, l)| !l.trim().is_empty());
        let (_, header_line) = lines.next().ok_or(CsvError::NoRecords)?;
        let header = split_line(header_line, 1)?;
        let group_idx = header
            .iter()
            .position(|h| h.trim().eq_ignore_ascii_case(group_column))
            .ok_or_else(|| CsvError::MissingGroupColumn(group_column.to_string()))?;
        let value_columns: Vec<(usize, String)> = header
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != group_idx)
            .map(|(i, h)| (i, h.trim().to_string()))
            .collect();
        let dim = value_columns.len();
        if let Some(dirs) = directions {
            assert_eq!(dirs.len(), dim, "one direction per value column");
        }

        let mut order: Vec<String> = Vec::new();
        let mut buckets: std::collections::HashMap<String, Vec<Vec<f64>>> = Default::default();
        for (i, line) in lines {
            let line_no = i + 1;
            let fields = split_line(line, line_no)?;
            if fields.len() != header.len() {
                return Err(CsvError::FieldCount {
                    line: line_no,
                    expected: header.len(),
                    got: fields.len(),
                });
            }
            let mut row = Vec::with_capacity(dim);
            for (col, name) in &value_columns {
                let raw = fields[*col].trim();
                let v: f64 = raw.parse().map_err(|_| CsvError::NotNumeric {
                    line: line_no,
                    column: name.clone(),
                    text: raw.to_string(),
                })?;
                row.push(v);
            }
            let label = fields[group_idx].trim().to_string();
            buckets
                .entry(label.clone())
                .or_insert_with(|| {
                    order.push(label);
                    Vec::new()
                })
                .push(row);
        }
        if order.is_empty() {
            return Err(CsvError::NoRecords);
        }
        let dirs =
            directions.map(<[Direction]>::to_vec).unwrap_or_else(|| vec![Direction::Max; dim]);
        let mut b = GroupedDatasetBuilder::with_directions(dirs).trusted_labels();
        for label in order {
            b.push_group(&label[..], &buckets[&label]).map_err(CsvError::Dataset)?;
        }
        b.build().map_err(CsvError::Dataset)
    }
}

/// Asserts two datasets hold the same groups in the same order, the same
/// rows in the same order, and bit-identical values and directions.
fn assert_same_dataset(a: &GroupedDataset, b: &GroupedDataset, context: &str) {
    assert_eq!(a.n_groups(), b.n_groups(), "{context}");
    assert_eq!(a.dim(), b.dim(), "{context}");
    assert_eq!(a.directions(), b.directions(), "{context}");
    for g in a.group_ids() {
        assert_eq!(a.label(g), b.label(g), "{context}");
        let bits = |rows: &[f64]| rows.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(a.group_rows(g)), bits(b.group_rows(g)), "{context}");
    }
}

fn pick<T: Copy>(rng: &mut Rng64, items: &[T]) -> T {
    items[rng.index(items.len())]
}

/// A valid grouped CSV with quoted and unquoted labels and three value
/// columns.
fn fuzz_base(rng: &mut Rng64) -> String {
    const LABELS: [&str; 8] =
        ["alpha", "beta gamma", "x, y", "say \"hi\"", "multi\nline", " pad ", "é語", "z"];
    let mut b = GroupedDatasetBuilder::new(3);
    for label in LABELS {
        let rows: Vec<Vec<f64>> =
            (0..1 + rng.index(4)).map(|_| (0..3).map(|_| rng.f64() * 100.0).collect()).collect();
        b.push_group(label, &rows).unwrap();
    }
    to_grouped_csv(&b.build().unwrap(), "class", &["d0", "d1", "d2"])
}

/// Applies one to four byte-level mutations, then repairs the bytes into
/// valid UTF-8.
fn mutate(rng: &mut Rng64, base: &str) -> String {
    let mut bytes = base.as_bytes().to_vec();
    for _ in 0..1 + rng.index(4) {
        match rng.index(3) {
            0 if !bytes.is_empty() => {
                let at = rng.index(bytes.len());
                bytes[at] ^= 1 + u8::try_from(rng.index(255)).unwrap();
            }
            1 => {
                let at = rng.index(bytes.len() + 1);
                bytes.insert(at, pick(rng, b"\",\n\r"));
            }
            _ => {
                let at = rng.index(bytes.len() + 1);
                bytes.truncate(at);
            }
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// The 1-based line number carried by an error, if it has one.
fn error_line(e: &CsvError) -> Option<usize> {
    match e {
        CsvError::UnterminatedQuote { line }
        | CsvError::FieldCount { line, .. }
        | CsvError::NotNumeric { line, .. } => Some(*line),
        _ => None,
    }
}

#[test]
fn fuzzed_inputs_end_in_a_dataset_or_a_typed_error() {
    let mut rng = Rng64::new(0x5EED);
    let base = fuzz_base(&mut rng);
    let (mut read, mut rejected) = (0, 0);
    for case in 0..2_000 {
        let text = mutate(&mut rng, &base);
        let context = format!("case {case}: {text:?}");
        let lines = text.split('\n').count();
        // The CLI's sequence: the header's value columns size the directions.
        let columns = csv_value_columns(&text, "class");
        let directions = columns.as_ref().ok().map(|c| vec![Direction::Min; c.len()]);
        match parse_grouped_csv(&text, "class", directions.as_deref()) {
            Ok(ds) => {
                read += 1;
                let names = columns.expect("a parsed text has a header");
                assert_eq!(names.len(), ds.dim(), "{context}");
                let names: Vec<&str> = names.iter().map(String::as_str).collect();
                let again = to_grouped_csv(&ds, "class", &names);
                let back = parse_grouped_csv(&again, "class", directions.as_deref())
                    .unwrap_or_else(|e| panic!("{context}: the round trip failed: {e}"));
                assert_same_dataset(&ds, &back, &context);
            }
            Err(e) => {
                rejected += 1;
                if let Some(line) = error_line(&e) {
                    assert!((1..=lines).contains(&line), "{context}: {e}");
                }
            }
        }
    }
    // Both outcomes occur, so the mutations neither always break nor never
    // touch the input.
    assert!(read > 100 && rejected > 100, "read {read}, rejected {rejected}");
}

/// A generated input: text, group column and directions.
struct Input {
    text: String,
    group: &'static str,
    directions: Option<Vec<Direction>>,
}

/// Generates an input that the line-based reader reads the same way: no
/// quoted line ends and no whitespace at the ends of a quoted field, and an
/// unterminated quote only on the last non-blank line, where both readers
/// reach the end of the text inside it.
fn differential_input(rng: &mut Rng64) -> Input {
    const LABELS: [&str; 11] = [
        "a",
        "b c",
        "  spaced  ",
        "\"x, y\"",
        "\"say \"\"hi\"\"\"",
        "\"plain\"   ",
        "é語",
        "\"\"",
        "a\"b",
        "\"q\" tail ",
        "\"\"  after",
    ];
    const NUMBERS: [&str; 10] =
        ["1", "-2.5", "1e3", "-0", "0.1", " 3 ", "\"4\"", "7.25e-3", "+5", ".5"];
    // Not finite, or not a number.
    const ODD: [&str; 4] = ["inf", "x", "", "\"1,5\""];
    const BLANKS: [&str; 4] = ["", "  ", "\t", "\r"];
    let mut text = String::new();
    let eol = |rng: &mut Rng64| if rng.chance(0.3) { "\r\n" } else { "\n" };
    while rng.chance(0.2) {
        text.push_str(pick(rng, &BLANKS));
        text.push_str(eol(rng));
    }
    let dim = 1 + rng.index(3);
    let group_at = rng.index(dim + 1);
    let group = pick(rng, &["class", "CLASS", "Class"]);
    let mut header: Vec<String> = (0..dim).map(|d| format!("d{d}")).collect();
    let header_group = if rng.chance(0.03) { "other" } else { " class " };
    header.insert(group_at, header_group.to_string());
    text.push_str(&header.join(","));
    let records = rng.index(12);
    for r in 0..records {
        text.push_str(eol(rng));
        while rng.chance(0.15) {
            text.push_str(pick(rng, &BLANKS));
            text.push_str(eol(rng));
        }
        let mut fields: Vec<String> = (0..dim)
            .map(|_| {
                let pool: &[&str] = if rng.chance(0.97) { &NUMBERS } else { &ODD };
                pick(rng, pool).to_string()
            })
            .collect();
        fields.insert(group_at, pick(rng, &LABELS).to_string());
        if rng.chance(0.04) {
            fields.pop();
        } else if rng.chance(0.04) {
            fields.push("9".to_string());
        }
        if r + 1 == records && group_at < fields.len() && rng.chance(0.1) {
            fields[group_at] = "\"open".to_string();
        }
        text.push_str(&fields.join(","));
    }
    if rng.chance(0.7) {
        text.push_str(eol(rng));
    }
    while rng.chance(0.2) {
        text.push_str(pick(rng, &BLANKS));
        text.push_str(eol(rng));
    }
    let directions = rng.chance(0.5).then(|| {
        (0..dim).map(|_| if rng.chance(0.5) { Direction::Min } else { Direction::Max }).collect()
    });
    Input { text, group, directions }
}

#[test]
fn reader_matches_the_line_based_reader_on_generated_inputs() {
    let mut rng = Rng64::new(0xD1FF);
    let mut outcomes = std::collections::BTreeMap::new();
    for case in 0..2_000 {
        let input = differential_input(&mut rng);
        let context = format!("case {case}: {:?}", input.text);
        let dirs = input.directions.as_deref();
        assert_eq!(
            csv_value_columns(&input.text, input.group),
            line_based::csv_value_columns(&input.text, input.group),
            "{context}"
        );
        let outcome = match (
            parse_grouped_csv(&input.text, input.group, dirs),
            line_based::parse_grouped_csv(&input.text, input.group, dirs),
        ) {
            (Ok(new), Ok(old)) => {
                assert_same_dataset(&new, &old, &context);
                "dataset".to_string()
            }
            (Err(new), Err(old)) => {
                assert_eq!(new, old, "{context}");
                format!("{new:?}").split([' ', '(']).next().unwrap_or_default().to_string()
            }
            (new, old) => panic!("{context}: reader {new:?}, line-based {old:?}"),
        };
        *outcomes.entry(outcome).or_insert(0) += 1;
    }
    // Every outcome the generator aims at occurs.
    for kind in [
        "dataset",
        "FieldCount",
        "NotNumeric",
        "UnterminatedQuote",
        "MissingGroupColumn",
        "NoRecords",
        "Dataset",
    ] {
        assert!(outcomes.contains_key(kind), "{kind} never occurred: {outcomes:?}");
    }
}
