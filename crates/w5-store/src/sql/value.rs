//! Runtime values and column types.

use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;

/// Declared column types.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ColumnType {
    /// 64-bit signed integer.
    Integer,
    /// UTF-8 string.
    Text,
    /// Boolean.
    Boolean,
}

impl fmt::Display for ColumnType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ColumnType::Integer => "INTEGER",
            ColumnType::Text => "TEXT",
            ColumnType::Boolean => "BOOLEAN",
        };
        f.write_str(s)
    }
}

/// A runtime value.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// Integer.
    Int(i64),
    /// String.
    Text(String),
    /// Boolean.
    Bool(bool),
}

/// [`Value::order`] is total and agrees with the derived `PartialEq`
/// (variants never compare equal across type groups), so values can key an
/// ordered map — the store's per-partition indexes do.
impl Eq for Value {}

impl Ord for Value {
    fn cmp(&self, other: &Value) -> Ordering {
        self.order(other)
    }
}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Value) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Value {
    /// Does this value inhabit the column type? NULL inhabits every type.
    pub fn fits(&self, ty: ColumnType) -> bool {
        matches!(
            (self, ty),
            (Value::Null, _)
                | (Value::Int(_), ColumnType::Integer)
                | (Value::Text(_), ColumnType::Text)
                | (Value::Bool(_), ColumnType::Boolean)
        )
    }

    /// Truthiness for WHERE clauses: only `TRUE` passes; NULL and
    /// non-booleans do not.
    pub fn is_truthy(&self) -> bool {
        matches!(self, Value::Bool(true))
    }

    /// Total order used by ORDER BY: NULLs first, then by type group
    /// (bool < int < text), then natural order within the group.
    pub fn order(&self, other: &Value) -> Ordering {
        fn rank(v: &Value) -> u8 {
            match v {
                Value::Null => 0,
                Value::Bool(_) => 1,
                Value::Int(_) => 2,
                Value::Text(_) => 3,
            }
        }
        match (self, other) {
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Text(a), Value::Text(b)) => a.cmp(b),
            _ => rank(self).cmp(&rank(other)),
        }
    }

    /// SQL equality: NULL equals nothing (including NULL).
    pub fn sql_eq(&self, other: &Value) -> Value {
        match (self, other) {
            (Value::Null, _) | (_, Value::Null) => Value::Null,
            (a, b) => Value::Bool(a == b),
        }
    }

    /// Render as a result-table cell.
    pub fn render(&self) -> String {
        match self {
            Value::Null => "NULL".to_string(),
            Value::Int(i) => i.to_string(),
            Value::Text(s) => s.clone(),
            Value::Bool(b) => if *b { "TRUE" } else { "FALSE" }.to_string(),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

/// SQL LIKE matching with `%` (any run) and `_` (any one char).
pub fn like_match(text: &str, pattern: &str) -> bool {
    fn rec(t: &[char], p: &[char]) -> bool {
        match p.first() {
            None => t.is_empty(),
            Some('%') => {
                // Collapse consecutive %.
                let rest = &p[1..];
                (0..=t.len()).any(|k| rec(&t[k..], rest))
            }
            Some('_') => !t.is_empty() && rec(&t[1..], &p[1..]),
            Some(&c) => t.first() == Some(&c) && rec(&t[1..], &p[1..]),
        }
    }
    let t: Vec<char> = text.chars().collect();
    let p: Vec<char> = pattern.chars().collect();
    rec(&t, &p)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fits_types() {
        assert!(Value::Int(1).fits(ColumnType::Integer));
        assert!(!Value::Int(1).fits(ColumnType::Text));
        assert!(Value::Null.fits(ColumnType::Boolean));
        assert!(Value::Text("x".into()).fits(ColumnType::Text));
        assert!(Value::Bool(true).fits(ColumnType::Boolean));
    }

    #[test]
    fn truthiness() {
        assert!(Value::Bool(true).is_truthy());
        assert!(!Value::Bool(false).is_truthy());
        assert!(!Value::Null.is_truthy());
        assert!(!Value::Int(1).is_truthy());
    }

    #[test]
    fn sql_eq_null_semantics() {
        assert_eq!(Value::Null.sql_eq(&Value::Null), Value::Null);
        assert_eq!(Value::Int(1).sql_eq(&Value::Null), Value::Null);
        assert_eq!(Value::Int(1).sql_eq(&Value::Int(1)), Value::Bool(true));
        assert_eq!(
            Value::Text("a".into()).sql_eq(&Value::Text("b".into())),
            Value::Bool(false)
        );
    }

    #[test]
    fn ordering_groups() {
        let mut vals = vec![
            Value::Text("a".into()),
            Value::Int(2),
            Value::Null,
            Value::Bool(true),
            Value::Int(1),
        ];
        vals.sort_by(|a, b| a.order(b));
        assert_eq!(
            vals,
            vec![
                Value::Null,
                Value::Bool(true),
                Value::Int(1),
                Value::Int(2),
                Value::Text("a".into())
            ]
        );
    }

    #[test]
    fn like_patterns() {
        assert!(like_match("hello", "hello"));
        assert!(like_match("hello", "h%"));
        assert!(like_match("hello", "%llo"));
        assert!(like_match("hello", "h_llo"));
        assert!(like_match("hello", "%"));
        assert!(like_match("", "%"));
        assert!(!like_match("hello", "h_"));
        assert!(!like_match("hello", "world"));
        assert!(like_match("a%b", "a%b"));
        assert!(like_match("photo_42.jpg", "photo%.jpg"));
    }

    #[test]
    fn render() {
        assert_eq!(Value::Null.render(), "NULL");
        assert_eq!(Value::Int(-5).render(), "-5");
        assert_eq!(Value::Bool(false).render(), "FALSE");
        assert_eq!(format!("{}", Value::Text("hi".into())), "hi");
    }
}
