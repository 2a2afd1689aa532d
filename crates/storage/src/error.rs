//! Storage-layer errors.

use std::fmt;

/// Errors raised by the storage substrate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// A tuple's arity or value types do not match the relation schema.
    SchemaMismatch {
        /// Relation whose schema was violated.
        relation: String,
        /// Human-readable detail.
        detail: String,
    },
    /// A row id does not refer to a live tuple.
    RowNotFound {
        /// Relation searched.
        relation: String,
        /// Offending slot number.
        slot: u32,
    },
    /// A named relation is missing from the database.
    UnknownRelation(String),
    /// A named column is missing from a schema.
    UnknownColumn {
        /// Relation searched.
        relation: String,
        /// Offending column name.
        column: String,
    },
    /// A relation with this name already exists.
    DuplicateRelation(String),
    /// `insert_at` targeted a slot that already holds a live tuple —
    /// WAL replay diverged from the layout the log was written against.
    SlotOccupied {
        /// Relation targeted.
        relation: String,
        /// Occupied slot number.
        slot: u32,
    },
    /// `insert_at` targeted a slot past the next one: a slot array grows
    /// one slot at a time, so a log or image naming such a slot is not
    /// the one the relation was written against.
    SlotPastEnd {
        /// Relation targeted.
        relation: String,
        /// Slot number named.
        slot: u32,
        /// Slots the relation holds: the highest it can take next.
        slots: usize,
    },
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::SchemaMismatch { relation, detail } => {
                write!(f, "schema mismatch on relation '{relation}': {detail}")
            }
            StorageError::RowNotFound { relation, slot } => {
                write!(f, "row {slot} not found in relation '{relation}'")
            }
            StorageError::UnknownRelation(name) => write!(f, "unknown relation '{name}'"),
            StorageError::UnknownColumn { relation, column } => {
                write!(f, "unknown column '{column}' in relation '{relation}'")
            }
            StorageError::DuplicateRelation(name) => {
                write!(f, "relation '{name}' already exists")
            }
            StorageError::SlotOccupied { relation, slot } => {
                write!(f, "slot {slot} already occupied in relation '{relation}'")
            }
            StorageError::SlotPastEnd {
                relation,
                slot,
                slots,
            } => write!(
                f,
                "slot {slot} is past the end of relation '{relation}', which holds {slots} slots"
            ),
        }
    }
}

impl std::error::Error for StorageError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = StorageError::UnknownColumn {
            relation: "orders".into(),
            column: "bogus".into(),
        };
        assert_eq!(e.to_string(), "unknown column 'bogus' in relation 'orders'");
        let e = StorageError::RowNotFound {
            relation: "r".into(),
            slot: 9,
        };
        assert!(e.to_string().contains("row 9"));
    }
}
