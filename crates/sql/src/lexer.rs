//! Hand-written SQL lexer.

use crate::error::{Result, SqlError};

/// A lexical token. Keywords are uppercased identifiers matched at parse
/// time, so the lexer only distinguishes shapes.
#[derive(Debug, Clone, PartialEq)]
pub enum Token {
    /// Identifier or keyword (kept in original case; keyword matching is
    /// case-insensitive).
    Ident(String),
    /// Integer literal.
    Int(i64),
    /// Float literal (also covers `.5` and `1.`).
    Float(f64),
    /// Single-quoted string literal (with `''` escape).
    Str(String),
    /// One of `= <> != < <= > >= + - * / ( ) , . ;`.
    Symbol(&'static str),
    /// End of input.
    Eof,
}

impl Token {
    /// True iff this token is the given keyword (case-insensitive).
    pub fn is_kw(&self, kw: &str) -> bool {
        matches!(self, Token::Ident(s) if s.eq_ignore_ascii_case(kw))
    }
}

/// Splits `input` into tokens, appending [`Token::Eof`].
pub fn tokenize(input: &str) -> Result<Vec<Token>> {
    let mut tokens = Vec::new();
    let mut rest = input;
    while let Some(c) = rest.chars().next() {
        let next = rest.get(c.len_utf8()..).and_then(|r| r.chars().next());
        // Bytes of `rest` this token (or skipped run) consumes; always a
        // char boundary.
        let len = match c {
            ' ' | '\t' | '\n' | '\r' => 1,
            // Line comment: skip up to the newline, which is whitespace.
            '-' if next == Some('-') => rest.find('\n').unwrap_or(rest.len()),
            '(' | ')' | ',' | ';' | '+' | '*' | '/' | '-' | '=' => {
                tokens.push(Token::Symbol(match c {
                    '(' => "(",
                    ')' => ")",
                    ',' => ",",
                    ';' => ";",
                    '+' => "+",
                    '*' => "*",
                    '/' => "/",
                    '=' => "=",
                    _ => "-",
                }));
                1
            }
            '<' | '>' | '!' => {
                let (symbol, len) = match (c, next) {
                    ('<', Some('=')) => ("<=", 2),
                    ('<', Some('>')) => ("<>", 2),
                    ('<', _) => ("<", 1),
                    ('>', Some('=')) => (">=", 2),
                    ('>', _) => (">", 1),
                    (_, Some('=')) => ("!=", 2),
                    _ => return Err(SqlError::Lex("stray '!'".into())),
                };
                tokens.push(Token::Symbol(symbol));
                len
            }
            '\'' => {
                let (s, len) = lex_string(rest)?;
                tokens.push(Token::Str(s));
                len
            }
            '.' if !next.is_some_and(|n| n.is_ascii_digit()) => {
                tokens.push(Token::Symbol("."));
                1
            }
            c if c == '.' || c.is_ascii_digit() => {
                let (tok, len) = lex_number(rest)?;
                tokens.push(tok);
                len
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let len = rest
                    .find(|ch: char| !(ch.is_ascii_alphanumeric() || ch == '_'))
                    .unwrap_or(rest.len());
                tokens.push(Token::Ident(rest.get(..len).unwrap_or(rest).to_string()));
                len
            }
            other => return Err(SqlError::Lex(format!("unexpected character {other:?}"))),
        };
        rest = rest.get(len..).unwrap_or("");
    }
    tokens.push(Token::Eof);
    Ok(tokens)
}

/// Lexes the single-quoted string literal at the start of `s` (`''`
/// escapes a quote); returns its value and the consumed byte length.
fn lex_string(s: &str) -> Result<(String, usize)> {
    let mut value = String::new();
    let mut chars = s.char_indices().skip(1).peekable();
    while let Some((at, c)) = chars.next() {
        if c != '\'' {
            value.push(c);
        } else if chars.next_if(|&(_, n)| n == '\'').is_some() {
            value.push('\'');
        } else {
            return Ok((value, at + 1));
        }
    }
    Err(SqlError::Lex("unterminated string literal".into()))
}

/// Lexes a number starting at the beginning of `s`; returns the token and
/// consumed byte length.
fn lex_number(s: &str) -> Result<(Token, usize)> {
    let byte = |at: usize| s.as_bytes().get(at).copied();
    // The end of the run of ASCII digits starting at `from`.
    let digits_from = |from: usize| {
        from + s.get(from..).map_or(0, |r| r.bytes().take_while(u8::is_ascii_digit).count())
    };
    let mut i = digits_from(0);
    let mut is_float = false;
    if byte(i) == Some(b'.') {
        // Not a float if this is a qualified name like `x.col` — digits
        // cannot start identifiers, so `1.x` is invalid anyway; treat a dot
        // followed by a digit or end as part of the number.
        is_float = true;
        i = digits_from(i + 1);
    }
    if matches!(byte(i), Some(b'e' | b'E')) {
        let mut j = i + 1;
        if matches!(byte(j), Some(b'+' | b'-')) {
            j += 1;
        }
        if byte(j).is_some_and(|b| b.is_ascii_digit()) {
            is_float = true;
            i = digits_from(j);
        }
    }
    let text = s.get(..i).unwrap_or(s);
    if is_float {
        text.parse::<f64>()
            .map(|f| (Token::Float(f), i))
            .map_err(|e| SqlError::Lex(format!("bad float {text:?}: {e}")))
    } else {
        text.parse::<i64>()
            .map(|v| (Token::Int(v), i))
            .map_err(|e| SqlError::Lex(format!("bad integer {text:?}: {e}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_tokens() {
        let toks = tokenize("SELECT a, b.c FROM t WHERE x >= 1.5 AND y <> 'o''k';").unwrap();
        assert!(toks.contains(&Token::Symbol(">=")));
        assert!(toks.contains(&Token::Float(1.5)));
        assert!(toks.contains(&Token::Str("o'k".into())));
        assert!(toks.contains(&Token::Symbol(".")));
        assert_eq!(*toks.last().unwrap(), Token::Eof);
    }

    #[test]
    fn leading_dot_float() {
        let toks = tokenize("having p > .5").unwrap();
        assert!(toks.contains(&Token::Float(0.5)));
    }

    #[test]
    fn comments_are_skipped() {
        let toks = tokenize("select 1 -- trailing\nfrom t").unwrap();
        assert_eq!(toks.len(), 5); // select, 1, from, t, eof
    }

    #[test]
    fn keyword_check_is_case_insensitive() {
        let toks = tokenize("SeLeCt").unwrap();
        assert!(toks[0].is_kw("select"));
        assert!(!toks[0].is_kw("from"));
    }

    #[test]
    fn errors_on_unterminated_string() {
        assert!(matches!(tokenize("'oops"), Err(SqlError::Lex(_))));
    }

    /// A character the grammar has no use for is reported whole, not as
    /// the first byte of its UTF-8 encoding read as Latin-1; inside a
    /// string literal the same characters survive intact.
    #[test]
    fn unexpected_multibyte_characters_are_named_whole() {
        for (sql, ch) in [("SELECT é FROM t;", 'é'), ("SELECT 語 FROM t", '語'), ("a 🦀", '🦀')]
        {
            match tokenize(sql) {
                Err(SqlError::Lex(msg)) => {
                    assert_eq!(msg, format!("unexpected character {ch:?}"), "{sql}");
                }
                other => panic!("{sql}: expected a lex error, got {other:?}"),
            }
        }
        let toks = tokenize("'é 語 🦀 o''k'").unwrap();
        assert_eq!(toks, vec![Token::Str("é 語 🦀 o'k".into()), Token::Eof]);
    }

    #[test]
    fn operators_and_stray_bang() {
        let toks = tokenize("< <= <> > >= != = .").unwrap();
        let symbols: Vec<_> = toks
            .iter()
            .filter_map(|t| match t {
                Token::Symbol(s) => Some(*s),
                _ => None,
            })
            .collect();
        assert_eq!(symbols, ["<", "<=", "<>", ">", ">=", "!=", "=", "."]);
        assert!(matches!(tokenize("a ! b"), Err(SqlError::Lex(_))));
        assert!(matches!(tokenize("!"), Err(SqlError::Lex(_))));
    }

    #[test]
    fn scientific_notation() {
        let toks = tokenize("1e3 2.5E-2").unwrap();
        assert_eq!(toks[0], Token::Float(1000.0));
        assert_eq!(toks[1], Token::Float(0.025));
    }
}
