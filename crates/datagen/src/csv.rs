//! CSV import/export for grouped datasets (hand-rolled, RFC-4180-style
//! quoting; no external dependency).
//!
//! The on-disk shape is one record per line with the group label in a
//! designated column:
//!
//! ```csv
//! director,popularity,quality
//! Tarantino,313,8.2
//! Tarantino,557,9.0
//! Wiseau,10,3.2
//! ```
//!
//! Reading rules:
//! * A field that starts with `"` is quoted. Its text up to the closing
//!   quote is kept verbatim, `""` in it stands for one `"`, and it may span
//!   lines. Text after the closing quote is appended, less the whitespace
//!   that ends the field.
//! * Any other field runs to the next `,` or line end, keeps a `"` in it as
//!   it is, and is trimmed of surrounding whitespace.
//! * Lines holding only whitespace are skipped between records, and a line
//!   may end in `\r\n`.
//! * Values are parsed with `f64::from_str` after trimming.
//!
//! The reader makes one pass over the borrowed text. An unquoted field is a
//! slice of it, labels are looked up by `&str` and allocate only for a new
//! group, and each record's values are appended to one flat buffer per group.
//! [`to_grouped_csv`] quotes every field the reader would otherwise change,
//! so every label round-trips.

use aggsky_core::{Direction, GroupedDataset, GroupedDatasetBuilder};
use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt::{self, Write as _};

/// Errors raised while parsing CSV into a grouped dataset.
#[derive(Debug, Clone, PartialEq)]
pub enum CsvError {
    /// A quoted field was never closed.
    UnterminatedQuote {
        /// 1-based line where the field started.
        line: usize,
    },
    /// A data row had a different number of fields than the header.
    FieldCount {
        /// 1-based line number.
        line: usize,
        /// Fields expected (from the header).
        expected: usize,
        /// Fields found.
        got: usize,
    },
    /// A value column held a non-numeric field.
    NotNumeric {
        /// 1-based line number.
        line: usize,
        /// Column name.
        column: String,
        /// Offending raw text.
        text: String,
    },
    /// The named group column is not in the header.
    MissingGroupColumn(String),
    /// The file had a header but no data rows.
    NoRecords,
    /// Dataset construction failed (NaN, dimension mismatch, ...).
    Dataset(aggsky_core::Error),
}

impl fmt::Display for CsvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CsvError::UnterminatedQuote { line } => {
                write!(f, "line {line}: unterminated quoted field")
            }
            CsvError::FieldCount { line, expected, got } => {
                write!(f, "line {line}: expected {expected} fields, got {got}")
            }
            CsvError::NotNumeric { line, column, text } => {
                write!(f, "line {line}: column {column:?} has non-numeric value {text:?}")
            }
            CsvError::MissingGroupColumn(c) => write!(f, "group column {c:?} not in header"),
            CsvError::NoRecords => write!(f, "no data rows"),
            CsvError::Dataset(e) => write!(f, "dataset error: {e}"),
        }
    }
}

impl std::error::Error for CsvError {}

/// A cursor over CSV text that reads one field at a time.
struct Cursor<'a> {
    rest: &'a str,
    /// 1-based physical line that `rest` starts on.
    line: usize,
}

impl<'a> Cursor<'a> {
    /// Skips blank lines. Returns the line the next record starts on, or
    /// `None` at the end of the text.
    fn next_record(&mut self) -> Option<usize> {
        loop {
            let line = self.rest.trim_start_matches(|c: char| c != '\n' && c.is_whitespace());
            if line.is_empty() {
                return None;
            }
            let Some(next) = line.strip_prefix('\n') else {
                return Some(self.line);
            };
            self.rest = next;
            self.line += 1;
        }
    }

    /// Reads the field at the cursor and moves past the `,` or line end
    /// after it. Returns the field and whether its record goes on.
    fn field(&mut self) -> Result<(Cow<'a, str>, bool), CsvError> {
        let (field, rest) = match self.rest.strip_prefix('"') {
            Some(quoted) => self.quoted(quoted)?,
            None => {
                let (raw, rest) = split_field(self.rest);
                (Cow::Borrowed(raw.trim()), rest)
            }
        };
        if let Some(next) = rest.strip_prefix(',') {
            self.rest = next;
            return Ok((field, true));
        }
        self.rest = match rest.strip_prefix('\n') {
            Some(next) => {
                self.line += 1;
                next
            }
            None => rest,
        };
        Ok((field, false))
    }

    /// Reads a quoted field from `text`, the text after its opening quote.
    /// Returns the field and the text from the delimiter after it.
    fn quoted(&mut self, mut text: &'a str) -> Result<(Cow<'a, str>, &'a str), CsvError> {
        let line = self.line;
        let mut field = Cow::Borrowed("");
        loop {
            let (chunk, after) =
                text.split_once('"').ok_or(CsvError::UnterminatedQuote { line })?;
            self.line += chunk.bytes().filter(|&b| b == b'\n').count();
            append(&mut field, chunk);
            match after.strip_prefix('"') {
                Some(next) => {
                    field.to_mut().push('"');
                    text = next;
                }
                None => {
                    text = after;
                    break;
                }
            }
        }
        // Whitespace outside the quotes is dropped where it ends the field.
        let (tail, rest) = split_field(text);
        let tail = if field.is_empty() { tail.trim() } else { tail.trim_end() };
        append(&mut field, tail);
        Ok((field, rest))
    }
}

/// Splits `text` before its first `,` or `\n` (all of it when it has none).
fn split_field(text: &str) -> (&str, &str) {
    let end = find_delimiter(text.as_bytes());
    // `end` is the offset of an ASCII byte or the length: a char boundary.
    text.split_at_checked(end).unwrap_or((text, ""))
}

/// Offset of the first `,` or `\n` in `bytes`, or its length when it has
/// neither. Tests eight bytes per step: XOR with the delimiter zeroes the
/// bytes equal to it, and `(x - 0x0101..) & !x & 0x8080..` sets the high bit
/// of the first zero byte of `x` (a borrow can only mark bytes above it).
fn find_delimiter(bytes: &[u8]) -> usize {
    const ONES: u64 = u64::from_le_bytes([0x01; 8]);
    const HIGHS: u64 = u64::from_le_bytes([0x80; 8]);
    const COMMAS: u64 = u64::from_le_bytes([b','; 8]);
    const NEWLINES: u64 = u64::from_le_bytes([b'\n'; 8]);
    let zero_bytes = |x: u64| x.wrapping_sub(ONES) & !x & HIGHS;
    let mut words = bytes.chunks_exact(8);
    let mut offset = 0;
    for word in &mut words {
        let word = u64::from_le_bytes(word.try_into().unwrap_or_default());
        let found = zero_bytes(word ^ COMMAS) | zero_bytes(word ^ NEWLINES);
        if found != 0 {
            return offset + usize::try_from(found.trailing_zeros() / 8).unwrap_or(0);
        }
        offset += 8;
    }
    let tail = words.remainder();
    offset + tail.iter().position(|&b| b == b',' || b == b'\n').unwrap_or(tail.len())
}

/// Appends `s` to `field`, still borrowing while `field` is empty.
fn append<'a>(field: &mut Cow<'a, str>, s: &'a str) {
    if field.is_empty() {
        *field = Cow::Borrowed(s);
    } else if !s.is_empty() {
        field.to_mut().push_str(s);
    }
}

/// A grouped CSV text whose header has been read.
///
/// [`csv_value_columns`] and [`parse_grouped_csv`] both start with this
/// header read. A caller that needs the column names before it parses (the
/// CLI maps `--min COLUMN` flags onto dimensions) reads the header once by
/// holding on to it.
pub struct GroupedCsv<'a> {
    body: Cursor<'a>,
    /// Fields per record: the number of header fields.
    columns: usize,
    /// Position of the group column among the fields.
    group: usize,
    /// The other header fields in file order.
    value_columns: Vec<String>,
}

impl<'a> GroupedCsv<'a> {
    /// Reads the header of `text`, its first non-blank record, and finds
    /// `group_column` in it (ASCII case-insensitively).
    pub fn new(text: &'a str, group_column: &str) -> Result<Self, CsvError> {
        let mut body = Cursor { rest: text, line: 1 };
        body.next_record().ok_or(CsvError::NoRecords)?;
        let mut names = Vec::new();
        loop {
            let (name, more) = body.field()?;
            names.push(name.into_owned());
            if !more {
                break;
            }
        }
        let group = names
            .iter()
            .position(|n| n.eq_ignore_ascii_case(group_column))
            .ok_or_else(|| CsvError::MissingGroupColumn(group_column.to_string()))?;
        let columns = names.len();
        names.remove(group);
        Ok(Self { body, columns, group, value_columns: names })
    }

    /// The non-group column names in file order: the dimension order that
    /// [`GroupedCsv::parse`] uses.
    pub fn value_columns(&self) -> &[String] {
        &self.value_columns
    }

    /// Parses the records after the header into a grouped dataset; see
    /// [`parse_grouped_csv`].
    pub fn parse(mut self, directions: Option<&[Direction]>) -> Result<GroupedDataset, CsvError> {
        let dim = self.value_columns.len();
        if let Some(dirs) = directions {
            assert_eq!(dirs.len(), dim, "one direction per value column");
        }
        // Groups in order of first appearance, each with its rows' values in
        // file order; `ids` finds a group by label when it changes.
        let mut groups: Vec<(Cow<'a, str>, Vec<f64>)> = Vec::new();
        let mut ids: HashMap<Cow<'a, str>, usize> = HashMap::new();
        let mut current = 0;
        let mut row = Vec::with_capacity(dim);
        while let Some(line) = self.body.next_record() {
            let label = self.record(line, &mut row)?;
            if groups.get(current).is_none_or(|(l, _)| *l != label) {
                current = match ids.get(&*label) {
                    Some(&g) => g,
                    None => {
                        ids.insert(label.clone(), groups.len());
                        groups.push((label, Vec::new()));
                        groups.len() - 1
                    }
                };
            }
            if let Some((_, values)) = groups.get_mut(current) {
                values.extend_from_slice(&row);
            }
        }
        if groups.is_empty() {
            return Err(CsvError::NoRecords);
        }
        let dirs =
            directions.map(<[Direction]>::to_vec).unwrap_or_else(|| vec![Direction::Max; dim]);
        let mut builder = GroupedDatasetBuilder::with_directions(dirs).trusted_labels();
        let mut rows: Vec<&[f64]> = Vec::new();
        for (label, values) in &groups {
            rows.clear();
            // With no value column there are no values, and the builder
            // rejects the zero dimensions; `max(1)` only avoids a zero width.
            rows.extend(values.chunks_exact(dim.max(1)));
            builder.push_group(&**label, &rows).map_err(CsvError::Dataset)?;
        }
        builder.build().map_err(CsvError::Dataset)
    }

    /// Reads the record that starts on `line`: its values into `row`, in
    /// column order. Returns its label.
    fn record(&mut self, line: usize, row: &mut Vec<f64>) -> Result<Cow<'a, str>, CsvError> {
        row.clear();
        let mut label = Cow::Borrowed("");
        // The first value that is not a number: its dimension, line and text.
        let mut not_numeric = None;
        let mut got = 0;
        loop {
            let field_line = self.body.line;
            let (field, more) = self.body.field()?;
            if got == self.group {
                label = field;
            } else if got < self.columns && not_numeric.is_none() {
                match field.trim().parse() {
                    Ok(v) => row.push(v),
                    Err(_) => not_numeric = Some((row.len(), field_line, field)),
                }
            }
            got += 1;
            if !more {
                break;
            }
        }
        if got != self.columns {
            return Err(CsvError::FieldCount { line, expected: self.columns, got });
        }
        match not_numeric {
            None => Ok(label),
            Some((dim, line, text)) => Err(CsvError::NotNumeric {
                line,
                column: self.value_columns.get(dim).cloned().unwrap_or_default(),
                text: text.trim().to_string(),
            }),
        }
    }
}

/// Returns the non-group column names of a grouped CSV's header, in file
/// order — the dimension order [`parse_grouped_csv`] will use. Lets callers
/// map column names onto dimensions without re-implementing header parsing;
/// [`GroupedCsv`] does the same and then parses, reading the header once.
pub fn csv_value_columns(text: &str, group_column: &str) -> Result<Vec<String>, CsvError> {
    Ok(GroupedCsv::new(text, group_column)?.value_columns)
}

/// Parses CSV text into a grouped dataset.
///
/// * `group_column` — header name of the grouping attribute.
/// * `directions` — optional per-value-column preference; defaults to MAX
///   everywhere. Must match the number of non-group columns.
///
/// Rows with the same group label need not be adjacent. Group order follows
/// first appearance, and rows keep their file order within a group.
pub fn parse_grouped_csv(
    text: &str,
    group_column: &str,
    directions: Option<&[Direction]>,
) -> Result<GroupedDataset, CsvError> {
    GroupedCsv::new(text, group_column)?.parse(directions)
}

/// Serializes a grouped dataset back to CSV (values in the original, un-
/// normalized orientation; the group column comes first).
pub fn to_grouped_csv(ds: &GroupedDataset, group_column: &str, value_columns: &[&str]) -> String {
    assert_eq!(value_columns.len(), ds.dim(), "one name per dimension");
    CsvWriter { ds, group_column, value_columns }.to_string()
}

/// Renders a grouped dataset as CSV text for [`to_grouped_csv`].
struct CsvWriter<'a> {
    ds: &'a GroupedDataset,
    group_column: &'a str,
    value_columns: &'a [&'a str],
}

impl fmt::Display for CsvWriter<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_field(f, self.group_column)?;
        for c in self.value_columns {
            f.write_char(',')?;
            write_field(f, c)?;
        }
        f.write_char('\n')?;
        let directions = self.ds.directions();
        for g in self.ds.group_ids() {
            for row in self.ds.records(g) {
                write_field(f, self.ds.label(g))?;
                for (&v, dir) in row.iter().zip(directions) {
                    let v = match dir {
                        Direction::Max => v,
                        Direction::Min => -v,
                    };
                    write!(f, ",{v}")?;
                }
                f.write_char('\n')?;
            }
        }
        Ok(())
    }
}

/// Writes one field, quoted when the reader would otherwise split it (a
/// `,`, `"` or line end in it) or change it (surrounding whitespace, `\r`).
fn write_field(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    let quote = s.contains([',', '"', '\n', '\r'])
        || s.starts_with(char::is_whitespace)
        || s.ends_with(char::is_whitespace);
    if !quote {
        return f.write_str(s);
    }
    f.write_char('"')?;
    for (i, part) in s.split('"').enumerate() {
        if i > 0 {
            f.write_str("\"\"")?;
        }
        f.write_str(part)?;
    }
    f.write_char('"')
}

#[cfg(test)]
mod tests {
    use super::*;
    use aggsky_core::{naive_skyline, Gamma};

    const MOVIES: &str = "\
director,popularity,quality
Tarantino,313,8.2
Tarantino,557,9.0
Kershner,362,8.8
Wiseau,10,3.2
";

    #[test]
    fn parses_basic_csv() {
        let ds = parse_grouped_csv(MOVIES, "director", None).unwrap();
        assert_eq!(ds.n_groups(), 3);
        assert_eq!(ds.n_records(), 4);
        assert_eq!(ds.group_len(ds.group_by_label("Tarantino").unwrap()), 2);
        let sky = naive_skyline(&ds, Gamma::DEFAULT).skyline;
        assert_eq!(ds.sorted_labels(&sky), vec!["Kershner", "Tarantino"]);
    }

    #[test]
    fn quoted_fields_and_escapes() {
        let csv = "g,x\n\"A, Inc.\",1\n\"say \"\"hi\"\"\",2\n";
        let ds = parse_grouped_csv(csv, "g", None).unwrap();
        assert_eq!(ds.label(0), "A, Inc.");
        assert_eq!(ds.label(1), "say \"hi\"");
    }

    #[test]
    fn group_column_anywhere() {
        let csv = "x,g,y\n1,alpha,2\n3,alpha,4\n";
        let ds = parse_grouped_csv(csv, "G", None).unwrap();
        assert_eq!(ds.n_groups(), 1);
        assert_eq!(ds.record(0, 0), &[1.0, 2.0]);
    }

    #[test]
    fn min_direction_negates() {
        let csv = "g,price\nshop,10\n";
        let ds = parse_grouped_csv(csv, "g", Some(&[Direction::Min])).unwrap();
        assert_eq!(ds.record(0, 0), &[-10.0]);
        assert_eq!(ds.record_original(0, 0), vec![10.0]);
    }

    #[test]
    fn error_cases() {
        assert!(matches!(parse_grouped_csv("", "g", None), Err(CsvError::NoRecords)));
        assert!(matches!(
            parse_grouped_csv("a,b\n1,2\n", "g", None),
            Err(CsvError::MissingGroupColumn(_))
        ));
        assert!(matches!(
            parse_grouped_csv("g,x\nz\n", "g", None),
            Err(CsvError::FieldCount { line: 2, expected: 2, got: 1 })
        ));
        assert!(matches!(
            parse_grouped_csv("g,x\nz,notanumber\n", "g", None),
            Err(CsvError::NotNumeric { .. })
        ));
        assert!(matches!(
            parse_grouped_csv("g,x\n\"oops,1\n", "g", None),
            Err(CsvError::UnterminatedQuote { line: 2 })
        ));
    }

    #[test]
    fn value_columns_helper() {
        assert_eq!(csv_value_columns(MOVIES, "director").unwrap(), vec!["popularity", "quality"]);
        assert_eq!(csv_value_columns("x, g ,y\n1,a,2\n", "G").unwrap(), vec!["x", "y"]);
        assert!(matches!(csv_value_columns("a,b\n", "nope"), Err(CsvError::MissingGroupColumn(_))));
        assert!(matches!(csv_value_columns("", "g"), Err(CsvError::NoRecords)));
    }

    #[test]
    fn round_trip() {
        let ds = parse_grouped_csv(MOVIES, "director", None).unwrap();
        let csv = to_grouped_csv(&ds, "director", &["popularity", "quality"]);
        let ds2 = parse_grouped_csv(&csv, "director", None).unwrap();
        assert_eq!(ds.n_groups(), ds2.n_groups());
        for g in ds.group_ids() {
            assert_eq!(ds.label(g), ds2.label(g));
            assert_eq!(ds.group_rows(g), ds2.group_rows(g));
        }
    }

    #[test]
    fn round_trip_preserves_min_direction_values() {
        let csv = "g,price,rating\na,10,4\nb,20,5\n";
        let ds = parse_grouped_csv(csv, "g", Some(&[Direction::Min, Direction::Max])).unwrap();
        let out = to_grouped_csv(&ds, "g", &["price", "rating"]);
        assert!(out.contains("a,10,4"), "{out}");
    }

    #[test]
    fn blank_lines_are_skipped() {
        let csv = "g,x\n\na,1\n\n\nb,2\n";
        let ds = parse_grouped_csv(csv, "g", None).unwrap();
        assert_eq!(ds.n_groups(), 2);
    }

    #[test]
    fn quoted_fields_are_verbatim_and_unquoted_fields_trimmed() {
        let csv = "g,x\n\" pad \",1\n  pad  ,2\n\"tail\r\",3\n\"two\nlines\" ,4\n";
        let ds = parse_grouped_csv(csv, "g", None).unwrap();
        let labels: Vec<&str> = ds.group_ids().map(|g| ds.label(g)).collect();
        assert_eq!(labels, vec![" pad ", "pad", "tail\r", "two\nlines"]);
        // Text after a closing quote is kept, less the whitespace that ends
        // the field.
        let ds = parse_grouped_csv("g,x\n\"a\" b ,1\n\"\" c ,2\n", "g", None).unwrap();
        assert_eq!(ds.label(0), "a b");
        assert_eq!(ds.label(1), "c");
    }

    #[test]
    fn errors_after_a_multi_line_field_name_physical_lines() {
        let csv = "g,x\n\"a\nb\nc\",1\nd,oops\n";
        assert_eq!(
            parse_grouped_csv(csv, "g", None).unwrap_err(),
            CsvError::NotNumeric { line: 5, column: "x".into(), text: "oops".into() }
        );
        let csv = "g,x\na,1\n\n\"open,2\nb,3\n";
        assert_eq!(
            parse_grouped_csv(csv, "g", None).unwrap_err(),
            CsvError::UnterminatedQuote { line: 4 }
        );
        let csv = "g,x\r\na,1\r\nb\r\n";
        assert_eq!(
            parse_grouped_csv(csv, "g", None).unwrap_err(),
            CsvError::FieldCount { line: 3, expected: 2, got: 1 }
        );
        assert_eq!(
            csv_value_columns("\n \n\"g,x\n", "g").unwrap_err(),
            CsvError::UnterminatedQuote { line: 3 }
        );
    }

    #[test]
    fn value_columns_match_the_parsed_dimensions() {
        // A second column named like the group column is a value column.
        let csv = "g,x,G\na,1,2\n";
        assert_eq!(csv_value_columns(csv, "g").unwrap(), vec!["x", "G"]);
        assert_eq!(parse_grouped_csv(csv, "g", None).unwrap().dim(), 2);
        let header = GroupedCsv::new(csv, "g").unwrap();
        assert_eq!(header.value_columns(), ["x", "G"]);
        let ds = header.parse(Some(&[Direction::Min, Direction::Max])).unwrap();
        assert_eq!(ds.record(0, 0), &[-1.0, 2.0]);
    }

    #[test]
    fn finds_delimiters_like_a_byte_search() {
        let mut rng = crate::rng::Rng64::new(3);
        for _ in 0..2_000 {
            let len = rng.index(40);
            let bytes: Vec<u8> =
                (0..len).map(|_| [b'a', b',', b'\n', 0x80, 0xff, 0][rng.index(6)]).collect();
            let naive = bytes.iter().position(|&b| b == b',' || b == b'\n').unwrap_or(len);
            assert_eq!(find_delimiter(&bytes), naive, "{bytes:?}");
        }
    }

    #[test]
    fn writer_quotes_every_field_the_reader_would_change() {
        let mut b = GroupedDatasetBuilder::new(1);
        for label in ["a\nb", "tail\r", " pad ", "\u{3000}wide", "say \"hi\"", "x,y", ""] {
            b.push_group(label, &[[1.0]]).unwrap();
        }
        let ds = b.build().unwrap();
        let csv = to_grouped_csv(&ds, " g ", &["v\r"]);
        assert!(csv.starts_with("\" g \",\"v\r\"\n\"a\nb\",1\n"), "{csv:?}");
        assert_eq!(csv_value_columns(&csv, " g ").unwrap(), vec!["v\r"]);
        let back = parse_grouped_csv(&csv, " g ", None).unwrap();
        let labels: Vec<&str> = back.group_ids().map(|g| back.label(g)).collect();
        assert_eq!(labels, ["a\nb", "tail\r", " pad ", "\u{3000}wide", "say \"hi\"", "x,y", ""]);
    }

    /// Every label drawn from an alphabet of delimiters, quotes, line ends,
    /// spaces and non-ASCII characters survives `to_grouped_csv` →
    /// `parse_grouped_csv`, with its rows' values (`-0` and subnormals too)
    /// bit for bit.
    #[test]
    fn seeded_labels_round_trip() {
        const ALPHABET: [char; 12] =
            ['a', 'Z', ',', '"', '\n', '\r', ' ', '\t', 'é', '語', '\u{a0}', '-'];
        const EDGE_VALUES: [f64; 4] = [-0.0, 5e-324, f64::MAX, -1.25e-7];
        let mut rng = crate::rng::Rng64::new(11);
        for case in 0..300 {
            let dim = 1 + rng.index(3);
            let mut b = GroupedDatasetBuilder::new(dim);
            let mut seen = std::collections::HashSet::new();
            for _ in 0..1 + rng.index(6) {
                let label: String =
                    (0..rng.index(7)).map(|_| ALPHABET[rng.index(ALPHABET.len())]).collect();
                if !seen.insert(label.clone()) {
                    continue;
                }
                let rows: Vec<Vec<f64>> = (0..1 + rng.index(3))
                    .map(|_| {
                        (0..dim)
                            .map(|_| match rng.index(5) {
                                0 => EDGE_VALUES[rng.index(EDGE_VALUES.len())],
                                _ => (rng.f64() - 0.5) * 1e6,
                            })
                            .collect()
                    })
                    .collect();
                b.push_group(label, &rows).unwrap();
            }
            let ds = b.build().unwrap();
            let names: Vec<String> = (0..dim).map(|d| format!("d{d}")).collect();
            let names: Vec<&str> = names.iter().map(String::as_str).collect();
            let csv = to_grouped_csv(&ds, "class", &names);
            let back = parse_grouped_csv(&csv, "class", None)
                .unwrap_or_else(|e| panic!("case {case}: {e} in {csv:?}"));
            assert_eq!(back.n_groups(), ds.n_groups(), "case {case}: {csv:?}");
            for g in ds.group_ids() {
                assert_eq!(back.label(g), ds.label(g), "case {case}: {csv:?}");
                let bits = |rows: &[f64]| rows.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(back.group_rows(g)), bits(ds.group_rows(g)), "case {case}");
            }
        }
    }
}
