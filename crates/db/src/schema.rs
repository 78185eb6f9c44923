//! Table schemas.

use crate::error::{DbError, Result};
use crate::value::Value;

/// Column data types. Values are dynamically typed at runtime; the declared
/// type is checked on insert and drives the value-range metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// Boolean.
    Bool,
    /// 64-bit signed integer.
    Int,
    /// 64-bit float (also admits `Int` values on insert).
    Float,
    /// UTF-8 string.
    Str,
}

impl DataType {
    /// Does `v` conform to this type (`NULL` conforms to every type)?
    pub fn admits(&self, v: &Value) -> bool {
        matches!(
            (self, v),
            (_, Value::Null)
                | (DataType::Bool, Value::Bool(_))
                | (DataType::Int, Value::Int(_))
                | (DataType::Float, Value::Float(_))
                | (DataType::Float, Value::Int(_))
                | (DataType::Str, Value::Str(_))
        )
    }

    /// Human-readable type name, as used in error messages.
    pub fn name(&self) -> &'static str {
        match self {
            DataType::Bool => "boolean",
            DataType::Int => "integer",
            DataType::Float => "float",
            DataType::Str => "string",
        }
    }
}

/// A column definition.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnDef {
    /// Column name.
    pub name: String,
    /// Declared data type.
    pub data_type: DataType,
}

impl ColumnDef {
    /// A column definition.
    pub fn new(name: impl Into<String>, data_type: DataType) -> Self {
        ColumnDef {
            name: name.into(),
            data_type,
        }
    }
}

/// An ordered list of column definitions.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Schema {
    /// The column definitions, in table order.
    pub columns: Vec<ColumnDef>,
}

impl Schema {
    /// A schema from pre-built column definitions.
    pub fn new(columns: Vec<ColumnDef>) -> Self {
        Schema { columns }
    }

    /// Build a schema from `(name, type)` pairs.
    pub fn of(cols: &[(&str, DataType)]) -> Self {
        Schema {
            columns: cols.iter().map(|(n, t)| ColumnDef::new(*n, *t)).collect(),
        }
    }

    /// Number of columns.
    pub fn len(&self) -> usize {
        self.columns.len()
    }

    /// Whether the schema has no columns.
    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// Index of the column with the given name.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.name == name)
    }

    /// Validate a row against this schema.
    pub fn check_row(&self, row: &[Value]) -> Result<()> {
        if row.len() != self.columns.len() {
            return Err(DbError::ArityMismatch {
                expected: self.columns.len(),
                found: row.len(),
            });
        }
        for (col, v) in self.columns.iter().zip(row) {
            if !col.data_type.admits(v) {
                return Err(DbError::TypeMismatch {
                    context: format!("column `{}`", col.name),
                    expected: col.data_type.name().to_string(),
                    found: v.type_name().to_string(),
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admits_nulls_everywhere() {
        for t in [
            DataType::Bool,
            DataType::Int,
            DataType::Float,
            DataType::Str,
        ] {
            assert!(t.admits(&Value::Null));
        }
    }

    #[test]
    fn float_admits_int() {
        assert!(DataType::Float.admits(&Value::Int(3)));
        assert!(!DataType::Int.admits(&Value::Float(3.0)));
    }

    #[test]
    fn check_row_validates_arity_and_types() {
        let s = Schema::of(&[("id", DataType::Int), ("name", DataType::Str)]);
        assert!(s.check_row(&[Value::Int(1), Value::str("x")]).is_ok());
        assert!(matches!(
            s.check_row(&[Value::Int(1)]),
            Err(DbError::ArityMismatch { .. })
        ));
        assert!(matches!(
            s.check_row(&[Value::str("x"), Value::str("y")]),
            Err(DbError::TypeMismatch { .. })
        ));
    }

    #[test]
    fn index_of_finds_columns() {
        let s = Schema::of(&[("a", DataType::Int), ("b", DataType::Str)]);
        assert_eq!(s.index_of("b"), Some(1));
        assert_eq!(s.index_of("c"), None);
    }
}
