//! AuLang runtime values.

use crate::LangError;
use std::fmt;

/// A runtime value. Arrays have value semantics (copied on assignment),
/// which keeps checkpoint/restore a deep copy by construction.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A number (AuLang's only numeric type).
    Num(f64),
    /// A boolean.
    Bool(bool),
    /// A string (used mainly for primitive arguments).
    Str(String),
    /// An array of values.
    Array(Vec<Value>),
    /// The unit value of statements and `return;`.
    Unit,
}

impl Value {
    /// The number inside, if numeric.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The boolean inside, if boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The string inside, if a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Flattens the value into numbers (arrays recurse; booleans become
    /// 0/1). Strings and unit contribute nothing.
    pub fn flatten_nums(&self, out: &mut Vec<f64>) {
        match self {
            Value::Num(n) => out.push(*n),
            Value::Bool(b) => out.push(if *b { 1.0 } else { 0.0 }),
            Value::Array(items) => {
                for item in items {
                    item.flatten_nums(out);
                }
            }
            Value::Str(_) | Value::Unit => {}
        }
    }

    /// Type name for error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Num(_) => "number",
            Value::Bool(_) => "boolean",
            Value::Str(_) => "string",
            Value::Array(_) => "array",
            Value::Unit => "unit",
        }
    }
}

/// Reads a count — an array index, a π size, a layer count or width, an
/// action count — as a `usize`. It must be a whole number of at least
/// `min`; a whole number past `usize::MAX` saturates, which the engine's
/// own size checks then report. Both engines read every count through
/// this, so they refuse the same values with the same message.
pub(crate) fn count_arg(value: &Value, what: &str, min: usize) -> Result<usize, LangError> {
    let n = value
        .as_num()
        .ok_or_else(|| LangError::Runtime(format!("{what} must be a number")))?;
    if !n.is_finite() || n.fract() != 0.0 || n < min as f64 {
        let kind = if min == 0 { "non-negative" } else { "positive" };
        return Err(LangError::Runtime(format!(
            "{what} must be a {kind} integer, got {n}"
        )));
    }
    Ok(n as usize)
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Num(n) => write!(f, "{n}"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Str(s) => write!(f, "{s}"),
            Value::Array(items) => {
                write!(f, "[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{item}")?;
                }
                write!(f, "]")
            }
            Value::Unit => write!(f, "()"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors() {
        assert_eq!(Value::Num(2.0).as_num(), Some(2.0));
        assert_eq!(Value::Bool(true).as_bool(), Some(true));
        assert_eq!(Value::Str("a".into()).as_str(), Some("a"));
        assert_eq!(Value::Unit.as_num(), None);
    }

    #[test]
    fn flatten_recurses() {
        let v = Value::Array(vec![
            Value::Num(1.0),
            Value::Array(vec![Value::Num(2.0), Value::Bool(true)]),
            Value::Str("skip".into()),
        ]);
        let mut out = Vec::new();
        v.flatten_nums(&mut out);
        assert_eq!(out, vec![1.0, 2.0, 1.0]);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::Num(1.5).to_string(), "1.5");
        assert_eq!(
            Value::Array(vec![Value::Num(1.0), Value::Num(2.0)]).to_string(),
            "[1, 2]"
        );
        assert_eq!(Value::Unit.to_string(), "()");
    }
}
