//! Delta capture: the paper's `ΔR`.
//!
//! Section 3.4 maintains a PMV from the *changes* applied to its base
//! relations: inserts need no maintenance, deletes join `ΔR` against the
//! other base relations, updates are split by whether they touch attributes
//! in the expanded select list `Ls'` or `Cjoin`. [`DeltaBatch`] is the
//! change log a transaction hands to maintenance consumers.

use crate::relation::RowId;
use crate::tuple::Tuple;

/// One change to a base relation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Delta {
    /// A tuple was inserted.
    Insert {
        /// Slot the tuple now occupies.
        row: RowId,
        /// The inserted tuple.
        tuple: Tuple,
    },
    /// A tuple was deleted.
    Delete {
        /// Slot the tuple occupied.
        row: RowId,
        /// The deleted tuple.
        tuple: Tuple,
    },
    /// A tuple was replaced in place.
    Update {
        /// Slot of the tuple.
        row: RowId,
        /// Value before the update.
        old: Tuple,
        /// Value after the update.
        new: Tuple,
    },
}

impl Delta {
    /// The row this delta touches.
    pub fn row(&self) -> RowId {
        match self {
            Delta::Insert { row, .. } | Delta::Delete { row, .. } | Delta::Update { row, .. } => {
                *row
            }
        }
    }

    /// For an update, the set of column indices whose value changed.
    /// Empty for inserts/deletes (deletion "influences all the
    /// attributes", Section 3.4, and is handled by its own arm).
    pub fn changed_columns(&self) -> Vec<usize> {
        match self {
            Delta::Update { old, new, .. } => (0..old.arity())
                .filter(|&i| old.get(i) != new.get(i))
                .collect(),
            _ => Vec::new(),
        }
    }
}

/// Ordered changes applied to a single relation.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DeltaBatch {
    relation: String,
    deltas: Vec<Delta>,
}

impl DeltaBatch {
    /// New empty batch for the named relation.
    pub fn new(relation: impl Into<String>) -> Self {
        DeltaBatch {
            relation: relation.into(),
            deltas: Vec::new(),
        }
    }

    /// Name of the relation the batch applies to.
    pub fn relation(&self) -> &str {
        &self.relation
    }

    /// Append a delta.
    pub fn push(&mut self, d: Delta) {
        self.deltas.push(d);
    }

    /// All deltas in application order.
    pub fn deltas(&self) -> &[Delta] {
        &self.deltas
    }

    /// Number of deltas.
    pub fn len(&self) -> usize {
        self.deltas.len()
    }

    /// True if no change was recorded.
    pub fn is_empty(&self) -> bool {
        self.deltas.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple;

    #[test]
    fn changed_columns_detects_diffs() {
        let d = Delta::Update {
            row: RowId(0),
            old: tuple![1i64, "a", 3i64],
            new: tuple![1i64, "b", 4i64],
        };
        assert_eq!(d.changed_columns(), vec![1, 2]);
    }

    #[test]
    fn changed_columns_ignores_a_sign_flip_of_zero() {
        // `-0.0` is built as `0.0`: flipping a zero's sign stores the
        // same value.
        let d = Delta::Update {
            row: RowId(0),
            old: tuple![1i64, 0.0f64, -0.0f64, 1.5f64],
            new: tuple![1i64, -0.0f64, -0.0f64, -1.5f64],
        };
        assert_eq!(d.changed_columns(), vec![3]);
    }

    #[test]
    fn changed_columns_empty_for_insert_delete() {
        let i = Delta::Insert {
            row: RowId(0),
            tuple: tuple![1i64],
        };
        let x = Delta::Delete {
            row: RowId(0),
            tuple: tuple![1i64],
        };
        assert!(i.changed_columns().is_empty());
        assert!(x.changed_columns().is_empty());
    }

    #[test]
    fn batch_filters_by_kind() {
        let mut b = DeltaBatch::new("r");
        b.push(Delta::Insert {
            row: RowId(0),
            tuple: tuple![1i64],
        });
        b.push(Delta::Delete {
            row: RowId(1),
            tuple: tuple![2i64],
        });
        b.push(Delta::Update {
            row: RowId(2),
            old: tuple![3i64],
            new: tuple![4i64],
        });
        assert_eq!(b.len(), 3);
        assert!(matches!(b.deltas()[1], Delta::Delete { row: RowId(1), .. }));
        assert_eq!(b.relation(), "r");
    }

    #[test]
    fn row_accessor() {
        let d = Delta::Delete {
            row: RowId(7),
            tuple: tuple![1i64],
        };
        assert_eq!(d.row(), RowId(7));
    }
}
