//! Relation schemas: named, typed columns.

use crate::error::StorageError;
use crate::value::Value;

/// Static type of a column.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ColumnType {
    /// 64-bit integer (also dates-as-days and money-as-cents).
    Int,
    /// IEEE-754 double.
    Double,
    /// UTF-8 string.
    Str,
}

impl ColumnType {
    /// Whether `v` inhabits this type. `Null` inhabits every type.
    pub fn admits(&self, v: &Value) -> bool {
        matches!(
            (self, v),
            (_, Value::Null)
                | (ColumnType::Int, Value::Int(_))
                | (ColumnType::Double, Value::Double(_))
                | (ColumnType::Str, Value::Str(_))
        )
    }
}

/// A named, typed column.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Column {
    /// Column name, unique within its schema.
    pub name: String,
    /// Column type.
    pub ty: ColumnType,
}

impl Column {
    /// Build a column.
    pub fn new(name: impl Into<String>, ty: ColumnType) -> Self {
        Column {
            name: name.into(),
            ty,
        }
    }
}

/// Schema of one relation: its name and ordered columns.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Schema {
    name: String,
    columns: Vec<Column>,
}

impl Schema {
    /// Build a schema. Panics if column names repeat (a programming error
    /// in schema construction, not a runtime condition).
    pub fn new(name: impl Into<String>, columns: Vec<Column>) -> Self {
        let name = name.into();
        for (i, c) in columns.iter().enumerate() {
            assert!(
                !columns[..i].iter().any(|p| p.name == c.name),
                "duplicate column '{}' in schema '{}'",
                c.name,
                name
            );
        }
        Schema { name, columns }
    }

    /// Relation name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Ordered columns.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// Index of the named column.
    pub fn column_index(&self, column: &str) -> Result<usize, StorageError> {
        self.columns
            .iter()
            .position(|c| c.name == column)
            .ok_or_else(|| StorageError::UnknownColumn {
                relation: self.name.clone(),
                column: column.to_string(),
            })
    }

    /// Column at `idx`.
    pub fn column(&self, idx: usize) -> &Column {
        &self.columns[idx]
    }

    /// Validate that `values` matches this schema in arity and types.
    pub fn check(&self, values: &[Value]) -> Result<(), StorageError> {
        if values.len() != self.columns.len() {
            return Err(StorageError::SchemaMismatch {
                relation: self.name.clone(),
                detail: format!(
                    "expected {} values, got {}",
                    self.columns.len(),
                    values.len()
                ),
            });
        }
        for (c, v) in self.columns.iter().zip(values) {
            if !c.ty.admits(v) {
                return Err(StorageError::SchemaMismatch {
                    relation: self.name.clone(),
                    detail: format!(
                        "value {v} does not inhabit column '{}' ({:?})",
                        c.name, c.ty
                    ),
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Schema {
        Schema::new(
            "orders",
            vec![
                Column::new("orderkey", ColumnType::Int),
                Column::new("comment", ColumnType::Str),
                Column::new("total", ColumnType::Double),
            ],
        )
    }

    #[test]
    fn column_lookup() {
        let s = sample();
        assert_eq!(s.column_index("comment").unwrap(), 1);
        assert!(matches!(
            s.column_index("nope"),
            Err(StorageError::UnknownColumn { .. })
        ));
        assert_eq!(s.arity(), 3);
        assert_eq!(s.column(0).name, "orderkey");
    }

    #[test]
    fn check_accepts_wellformed_tuple() {
        let s = sample();
        s.check(&[Value::Int(1), Value::str("ok"), Value::from(9.5)])
            .unwrap();
    }

    #[test]
    fn check_accepts_null_in_any_column() {
        let s = sample();
        s.check(&[Value::Null, Value::Null, Value::Null]).unwrap();
    }

    #[test]
    fn check_rejects_wrong_arity() {
        let s = sample();
        assert!(s.check(&[Value::Int(1)]).is_err());
    }

    #[test]
    fn check_rejects_wrong_type() {
        let s = sample();
        assert!(s
            .check(&[Value::str("bad"), Value::str("ok"), Value::from(0.0)])
            .is_err());
    }

    #[test]
    #[should_panic(expected = "duplicate column")]
    fn duplicate_columns_panic() {
        Schema::new(
            "r",
            vec![
                Column::new("a", ColumnType::Int),
                Column::new("a", ColumnType::Int),
            ],
        );
    }

    #[test]
    fn admits_matrix() {
        assert!(ColumnType::Int.admits(&Value::Int(1)));
        assert!(!ColumnType::Int.admits(&Value::str("x")));
        assert!(ColumnType::Str.admits(&Value::Null));
        assert!(ColumnType::Double.admits(&Value::from(1.0)));
        assert!(!ColumnType::Double.admits(&Value::Int(1)));
    }
}
