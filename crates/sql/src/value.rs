//! Runtime values of the mini SQL engine.

use std::borrow::Cow;
use std::cmp::Ordering;
use std::fmt;

/// A dynamically-typed SQL value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// 64-bit integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// UTF-8 string.
    Str(String),
}

impl Value {
    /// True iff the value is NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Numeric view (ints widen to floats); `None` for NULL and strings.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Truthiness for WHERE/HAVING: NULL and 0 are false, everything else
    /// true (strings are true when non-empty).
    pub fn is_truthy(&self) -> bool {
        match self {
            Value::Null => false,
            Value::Int(i) => *i != 0,
            Value::Float(f) => !aggsky_core::ord::eq(*f, 0.0),
            Value::Str(s) => !s.is_empty(),
        }
    }

    /// SQL comparison. NULL compares as `None` (unknown); numbers compare
    /// numerically across Int/Float; strings lexicographically. Mixed
    /// string/number comparisons are `None`.
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        match (self, other) {
            (Value::Null, _) | (_, Value::Null) => None,
            (Value::Str(a), Value::Str(b)) => Some(a.cmp(b)),
            (a, b) => {
                let (x, y) = (a.as_f64()?, b.as_f64()?);
                // NaN stays "unknown" (SQL three-valued logic) rather than
                // adopting the total order's NaN placement.
                if x.is_nan() || y.is_nan() {
                    None
                } else {
                    Some(aggsky_core::ord::cmp(x, y))
                }
            }
        }
    }

    /// Equality for DISTINCT / GROUP BY keys / IN lists: the equality of
    /// [`Key`]. NULLs group together (like GROUP BY in standard engines),
    /// numbers compare numerically, Int/Int exactly.
    pub fn key_eq(&self, other: &Value) -> bool {
        Key::of(self) == Key::of(other)
    }
}

/// The one grouping key of GROUP BY, DISTINCT and IN sets: a value
/// normalized so that hashing and `==` give the key equalities. An
/// integral float within ±2⁵³ takes the integer form (`Float(3.0)` is
/// `Int(3)`, `-0.0` is `0`), every NaN is one key, and strings keep their
/// bytes whole, so no string can join or split two keys of a row. A key
/// borrows its string from the value or column it was read from; an owned
/// key (`Key<'static>`) outlives them.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Key<'a> {
    /// NULL.
    Null,
    /// An integer, or a float that equals one exactly.
    Int(i64),
    /// The bits of any other float (NaN canonicalized).
    Float(u64),
    /// A string.
    Str(Cow<'a, str>),
}

impl<'a> Key<'a> {
    /// The key of a value, borrowing its string.
    pub fn of(v: &'a Value) -> Key<'a> {
        match v {
            Value::Null => Key::Null,
            Value::Int(i) => Key::Int(*i),
            Value::Float(f) => Key::of_f64(*f),
            Value::Str(s) => Key::Str(Cow::Borrowed(s)),
        }
    }

    /// The key of a float.
    pub fn of_f64(f: f64) -> Key<'static> {
        match aggsky_core::num::exact_int(f) {
            Some(i) => Key::Int(i),
            None if f.is_nan() => Key::Float(f64::NAN.to_bits()),
            None => Key::Float(f.to_bits()),
        }
    }

    /// The key with its string copied, so it outlives its source.
    pub fn into_owned(self) -> Key<'static> {
        match self {
            Key::Null => Key::Null,
            Key::Int(i) => Key::Int(i),
            Key::Float(b) => Key::Float(b),
            Key::Str(s) => Key::Str(Cow::Owned(s.into_owned())),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(v) => {
                if aggsky_core::ord::eq(v.fract(), 0.0) && aggsky_core::ord::lt(v.abs(), 1e15) {
                    write!(f, "{v:.1}")
                } else {
                    write!(f, "{v}")
                }
            }
            Value::Str(s) => write!(f, "{s}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numeric_comparison_crosses_types() {
        assert_eq!(Value::Int(2).sql_cmp(&Value::Float(2.0)), Some(Ordering::Equal));
        assert_eq!(Value::Int(1).sql_cmp(&Value::Float(1.5)), Some(Ordering::Less));
        assert_eq!(Value::Float(3.0).sql_cmp(&Value::Int(2)), Some(Ordering::Greater));
    }

    #[test]
    fn null_comparisons_are_unknown() {
        assert_eq!(Value::Null.sql_cmp(&Value::Int(1)), None);
        assert_eq!(Value::Int(1).sql_cmp(&Value::Null), None);
        assert!(!Value::Null.is_truthy());
    }

    #[test]
    fn mixed_string_number_is_unknown() {
        assert_eq!(Value::Str("a".into()).sql_cmp(&Value::Int(1)), None);
    }

    #[test]
    fn key_equality_groups_nulls() {
        assert!(Value::Null.key_eq(&Value::Null));
        assert!(Value::Int(1).key_eq(&Value::Float(1.0)));
        assert!(!Value::Str("1".into()).key_eq(&Value::Int(1)));
        assert_eq!(Key::of(&Value::Int(1)), Key::of(&Value::Float(1.0)));
    }

    #[test]
    fn big_integers_keep_distinct_keys() {
        let a = Value::Int((1i64 << 53) + 1);
        let b = Value::Int(1i64 << 53);
        assert!(!a.key_eq(&b));
        assert_ne!(Key::of(&a), Key::of(&b));
        // A float cannot represent 2^53 + 1; it must not key-match it.
        assert!(!a.key_eq(&Value::Float(9_007_199_254_740_992.0)));
        assert!(b.key_eq(&Value::Float(9_007_199_254_740_992.0)));
    }

    #[test]
    fn concatenated_keys_are_unambiguous() {
        // Joined into one string, these two rows' keys once collided.
        let row1 = [Value::Str("a\u{0}sb".into()), Value::Str("c".into())];
        let row2 = [Value::Str("a".into()), Value::Str("b\u{0}sc".into())];
        let key = |row: &[Value]| row.iter().map(|v| Key::of(v).into_owned()).collect::<Vec<_>>();
        assert_ne!(key(&row1), key(&row2));
    }

    #[test]
    fn key_equalities_are_pinned() {
        let key = |v: Value| Key::of(&v).into_owned();
        assert_eq!(key(Value::Int(3)), key(Value::Float(3.0)));
        assert_eq!(key(Value::Float(-0.0)), key(Value::Float(0.0)));
        assert_eq!(key(Value::Float(-0.0)), key(Value::Int(0)));
        assert_eq!(key(Value::Float(f64::NAN)), key(Value::Float(-f64::NAN)));
        assert_eq!(
            key(Value::Float(f64::NAN)),
            key(Value::Float(f64::from_bits(0x7ff8_0000_0000_0001)))
        );
        let big = (1i64 << 53) + 2;
        assert_ne!(key(Value::Float(big as f64)), key(Value::Int(big)));
        assert_ne!(key(Value::Float(0.5)), key(Value::Float(0.25)));
        assert_ne!(key(Value::Null), key(Value::Int(0)));
        assert_ne!(key(Value::Str("0".into())), key(Value::Int(0)));
        // A NUL byte inside a string cannot make two rows' keys equal.
        let row = |a: &str, b: &str| vec![key(Value::Str(a.into())), key(Value::Str(b.into()))];
        assert_ne!(row("a\u{0}", "b"), row("a", "\u{0}b"));
        assert_ne!(row("a\u{0}\u{1}b", ""), row("a", "b"));
    }

    #[test]
    fn display_formats() {
        assert_eq!(Value::Int(42).to_string(), "42");
        assert_eq!(Value::Float(1.5).to_string(), "1.5");
        assert_eq!(Value::Float(2.0).to_string(), "2.0");
        assert_eq!(Value::Str("hi".into()).to_string(), "hi");
        assert_eq!(Value::Null.to_string(), "NULL");
    }
}
