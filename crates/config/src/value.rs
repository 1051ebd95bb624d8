//! A dynamically-typed document tree shared by the JSON and YAML parsers.

use std::collections::BTreeMap;
use std::fmt;

use crate::json::write_string;

/// A parsed configuration value.
///
/// Objects keep key order-independent (sorted) storage so serialisation is
/// deterministic regardless of source ordering.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Integer number.
    Int(i64),
    /// Floating-point number.
    Float(f64),
    /// String.
    Str(String),
    /// Array of values.
    Array(Vec<Value>),
    /// String-keyed object.
    Object(BTreeMap<String, Value>),
}

impl Value {
    /// Returns the string contents if this is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Returns the integer if this is an `Int`.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// Returns the boolean if this is a `Bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Returns the elements if this is an `Array`.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(v) => Some(v),
            _ => None,
        }
    }

    /// Returns the map if this is an `Object`.
    pub fn as_object(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }

    /// Looks up `key` in an object, `None` for other kinds.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object().and_then(|m| m.get(key))
    }

    /// Whether this is `Null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// A short name of the value's kind, for error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Int(_) => "int",
            Value::Float(_) => "float",
            Value::Str(_) => "string",
            Value::Array(_) => "array",
            Value::Object(_) => "object",
        }
    }

    /// Serialises to compact JSON. Deterministic: object keys are sorted.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out);
        out
    }

    fn write_json(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Int(v) => out.push_str(&v.to_string()),
            Value::Float(v) => {
                if v.fract() == 0.0 && v.is_finite() {
                    out.push_str(&format!("{v:.1}"));
                } else {
                    out.push_str(&v.to_string());
                }
            }
            Value::Str(s) => write_string(s, out),
            Value::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_json(out);
                }
                out.push(']');
            }
            Value::Object(map) => {
                out.push('{');
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(k, out);
                    out.push(':');
                    v.write_json(out);
                }
                out.push('}');
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_json())
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::Str(s.to_owned())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Value {
        Value::Str(s)
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Value {
        Value::Int(v)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Value {
        Value::Bool(b)
    }
}

impl<T: Into<Value>> FromIterator<T> for Value {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Value {
        Value::Array(iter.into_iter().map(Into::into).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors() {
        let v = Value::Object(BTreeMap::from([
            ("a".to_owned(), Value::Int(1)),
            ("b".to_owned(), Value::Str("x".to_owned())),
        ]));
        assert_eq!(v.get("a").and_then(Value::as_int), Some(1));
        assert_eq!(v.get("b").and_then(Value::as_str), Some("x"));
        assert_eq!(v.get("missing"), None);
        assert_eq!(v.kind(), "object");
    }

    #[test]
    fn json_serialisation_deterministic() {
        let v = Value::Object(BTreeMap::from([
            ("z".to_owned(), Value::Int(1)),
            (
                "a".to_owned(),
                Value::Array(vec![Value::Bool(true), Value::Null]),
            ),
        ]));
        assert_eq!(v.to_json(), r#"{"a":[true,null],"z":1}"#);
    }

    #[test]
    fn string_escapes() {
        let v = Value::Str("a\"b\\c\nd".to_owned());
        assert_eq!(v.to_json(), r#""a\"b\\c\nd""#);
    }

    #[test]
    fn from_impls() {
        assert_eq!(Value::from("s"), Value::Str("s".into()));
        assert_eq!(Value::from(3i64), Value::Int(3));
        assert_eq!(Value::from(true), Value::Bool(true));
        let arr: Value = ["a", "b"].into_iter().collect();
        assert_eq!(arr.as_array().unwrap().len(), 2);
    }
}
