//! Index definitions and incremental maintenance from storage deltas.

use pmv_storage::{Delta, HeapRelation, Tuple};

use crate::key::IndexKey;
use crate::{AnyIndex, BTreeIndex, HashIndex, SecondaryIndex};

/// Shape of index to build.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IndexShape {
    /// Ordered B+-tree (supports range scans).
    BTree,
    /// Hash (equality probes only).
    Hash,
}

/// Definition of a secondary index: which relation, which columns, which
/// shape.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IndexDef {
    /// Relation the index covers.
    pub relation: String,
    /// Indexed column positions, in key order.
    pub columns: Vec<usize>,
    /// Physical shape.
    pub shape: IndexShape,
}

impl IndexDef {
    /// B+-tree index definition.
    pub fn btree(relation: impl Into<String>, columns: Vec<usize>) -> Self {
        IndexDef {
            relation: relation.into(),
            columns,
            shape: IndexShape::BTree,
        }
    }

    /// Hash index definition.
    pub fn hash(relation: impl Into<String>, columns: Vec<usize>) -> Self {
        IndexDef {
            relation: relation.into(),
            columns,
            shape: IndexShape::Hash,
        }
    }

    /// Build this index over `relation`'s live tuples, in heap order: a
    /// B-tree is bulk-loaded, a hash index is filled row by row. Either
    /// way the result equals inserting the rows one by one.
    pub fn build_from(&self, relation: &HeapRelation) -> AnyIndex {
        match self.shape {
            IndexShape::BTree => {
                // The live-row iterator has no size hint; one reservation
                // instead of a doubling per power of two.
                let mut pairs = Vec::with_capacity(relation.len());
                pairs.extend(relation.iter().map(|(row, t)| (self.key_of(t), row)));
                AnyIndex::BTree(BTreeIndex::bulk_load(pairs))
            }
            IndexShape::Hash => {
                let mut idx = HashIndex::new();
                for (row, t) in relation.iter() {
                    idx.insert(self.key_of(t), row);
                }
                AnyIndex::Hash(idx)
            }
        }
    }

    /// Key of `tuple` under this definition.
    pub fn key_of(&self, tuple: &Tuple) -> IndexKey {
        IndexKey::from_tuple(tuple, &self.columns)
    }

    /// Apply one delta to `index`.
    pub fn apply_delta(&self, index: &mut AnyIndex, delta: &Delta) {
        match delta {
            Delta::Insert { row, tuple } => index.insert(self.key_of(tuple), *row),
            Delta::Delete { row, tuple } => {
                let removed = index.remove(&self.key_of(tuple), *row);
                debug_assert!(removed, "delete of unindexed tuple");
            }
            Delta::Update { row, old, new } => {
                let old_key = self.key_of(old);
                let new_key = self.key_of(new);
                if old_key != new_key {
                    let removed = index.remove(&old_key, *row);
                    debug_assert!(removed, "update of unindexed tuple");
                    index.insert(new_key, *row);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmv_storage::{tuple, Column, ColumnType, RowId, Schema};

    fn empty_relation() -> HeapRelation {
        HeapRelation::new(Schema::new("r", vec![Column::new("a", ColumnType::Int)]))
    }

    #[test]
    fn key_extraction_follows_columns() {
        let def = IndexDef::hash("r", vec![1]);
        let t = tuple![10i64, 20i64];
        assert_eq!(
            def.key_of(&t),
            IndexKey::single(pmv_storage::Value::Int(20))
        );
    }

    #[test]
    fn deltas_maintain_index() {
        let def = IndexDef::btree("r", vec![0]);
        let mut idx = def.build_from(&empty_relation());
        let t1 = tuple![1i64, 100i64];
        let t2 = tuple![2i64, 200i64];

        def.apply_delta(
            &mut idx,
            &Delta::Insert {
                row: RowId(0),
                tuple: t1.clone(),
            },
        );
        def.apply_delta(
            &mut idx,
            &Delta::Insert {
                row: RowId(1),
                tuple: t2.clone(),
            },
        );
        assert_eq!(idx.get(&def.key_of(&t1)), &[RowId(0)]);

        // Update that changes the key moves the posting.
        let t1b = tuple![9i64, 100i64];
        def.apply_delta(
            &mut idx,
            &Delta::Update {
                row: RowId(0),
                old: t1.clone(),
                new: t1b.clone(),
            },
        );
        assert_eq!(idx.get(&def.key_of(&t1)), &[] as &[RowId]);
        assert_eq!(idx.get(&def.key_of(&t1b)), &[RowId(0)]);

        // Update that does not change the key is a no-op on the index.
        let t2b = tuple![2i64, 999i64];
        def.apply_delta(
            &mut idx,
            &Delta::Update {
                row: RowId(1),
                old: t2.clone(),
                new: t2b,
            },
        );
        assert_eq!(idx.get(&def.key_of(&t2)), &[RowId(1)]);

        def.apply_delta(
            &mut idx,
            &Delta::Delete {
                row: RowId(1),
                tuple: tuple![2i64, 999i64],
            },
        );
        assert_eq!(idx.get(&def.key_of(&t2)), &[] as &[RowId]);
    }
}
