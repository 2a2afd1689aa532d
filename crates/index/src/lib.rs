//! Secondary index substrate.
//!
//! The paper's experiments "built an index on each selection/join
//! attribute" (Section 4.2), and the PMV itself carries "an index I on bcp"
//! which is a multi-attribute index when the template has more than one
//! selection condition (Section 3.2). This crate provides both index shapes
//! from scratch:
//!
//! * [`BTreeIndex`] — a B+-tree over composite keys with leaf-linked range
//!   scans, used for interval-form conditions and join attributes.
//! * [`HashIndex`] — an equality-probe index used for equality-form
//!   conditions and the PMV's bcp index.
//!
//! Both map an [`IndexKey`] (one or more [`pmv_storage::Value`]s) to a
//! posting list of [`pmv_storage::RowId`]s, and both are maintained
//! incrementally from storage deltas.

pub mod btree;
pub mod hash;
pub mod key;
pub mod maintenance;

pub use btree::BTreeIndex;
pub use hash::HashIndex;
pub use key::IndexKey;
pub use maintenance::{IndexDef, IndexShape};

use pmv_storage::{RowId, Value};
use std::ops::Bound;

/// Errors from index operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IndexError {
    /// A range scan was requested on an index shape that has no key
    /// order (a hash index). The caller should fall back to a heap scan.
    RangeOnHashIndex,
}

impl std::fmt::Display for IndexError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IndexError::RangeOnHashIndex => {
                write!(f, "range scan requested on a hash index")
            }
        }
    }
}

impl std::error::Error for IndexError {}

/// Common interface of all secondary indexes.
pub trait SecondaryIndex {
    /// Add `row` to the posting list of `key`.
    fn insert(&mut self, key: IndexKey, row: RowId);

    /// Remove `row` from the posting list of `key`. Returns whether the
    /// (key, row) pair was present.
    fn remove(&mut self, key: &IndexKey, row: RowId) -> bool;

    /// Rows matching `key` exactly.
    fn get(&self, key: &IndexKey) -> &[RowId];

    /// Number of distinct keys.
    fn key_count(&self) -> usize;

    /// Total number of (key, row) postings.
    fn entry_count(&self) -> usize;
}

/// An index of either shape, chosen per the access pattern it must serve.
///
/// `Clone` supports the copy-on-write snapshot layer: `Database` hands
/// indexes out behind `Arc` and maintenance clones-on-write via
/// `Arc::make_mut` only when a pinned snapshot still holds the old
/// version.
#[derive(Clone)]
pub enum AnyIndex {
    /// Ordered index with range scans.
    BTree(BTreeIndex),
    /// Equality-only hash index.
    Hash(HashIndex),
}

impl AnyIndex {
    /// Range scan over keys in `(lo, hi)`; only ordered indexes support
    /// it. A hash index returns [`IndexError::RangeOnHashIndex`] so the
    /// executor can recover with a heap scan instead of aborting the
    /// query — the planner normally routes around this via
    /// [`Self::supports_range`], but a stale plan (index rebuilt with a
    /// different shape) must degrade gracefully, not panic.
    pub fn range(
        &self,
        lo: Bound<&IndexKey>,
        hi: Bound<&IndexKey>,
    ) -> Result<Vec<(IndexKey, Vec<RowId>)>, IndexError> {
        match self {
            AnyIndex::BTree(b) => Ok(b.range(lo, hi)),
            AnyIndex::Hash(_) => Err(IndexError::RangeOnHashIndex),
        }
    }

    /// The row ids [`Self::range`] would return, appended to `out` in
    /// the same order, with the same refusal on a hash index. The
    /// executor's interval drive: it wants the rows, not a clone of every
    /// key and posting list in range.
    pub fn range_rows(
        &self,
        lo: Bound<&IndexKey>,
        hi: Bound<&IndexKey>,
        out: &mut Vec<RowId>,
    ) -> Result<(), IndexError> {
        match self {
            AnyIndex::BTree(b) => {
                b.range_rows(lo, hi, out);
                Ok(())
            }
            AnyIndex::Hash(_) => Err(IndexError::RangeOnHashIndex),
        }
    }

    /// Whether this index supports ordered range scans.
    pub fn supports_range(&self) -> bool {
        matches!(self, AnyIndex::BTree(_))
    }

    /// Equality probe by borrowed key components — the zero-copy twin of
    /// [`SecondaryIndex::get`]. The executor's inner join loop probes
    /// with values still owned by the bound tuple, so no `IndexKey` (and
    /// no `Value` clone) is materialized per probe.
    pub fn probe(&self, parts: &[Value]) -> &[RowId] {
        // Same soft fault site as `get`: both are the executor probe path.
        pmv_faultinject::fire_soft(pmv_faultinject::Site::IndexProbe);
        match self {
            AnyIndex::BTree(b) => b.get_by_parts(parts),
            AnyIndex::Hash(h) => h.get_by_parts(parts),
        }
    }

    /// [`Self::probe`] for a batch of one-value keys: appends
    /// `probe(&[key])` to `out` for each key, in order, and fires the
    /// probe fault site once per key. The executor advances a whole batch
    /// of bindings through a join step with one call, which lets the
    /// B-tree overlap the batch's cache misses
    /// ([`BTreeIndex::probe_many`]); a hash probe has one miss chain per
    /// key and simply loops.
    pub fn probe_many<'a>(&'a self, keys: &[&Value], out: &mut Vec<&'a [RowId]>) {
        for _ in keys {
            pmv_faultinject::fire_soft(pmv_faultinject::Site::IndexProbe);
        }
        match self {
            AnyIndex::BTree(b) => b.probe_many(keys, out),
            AnyIndex::Hash(h) => {
                out.extend(
                    keys.iter()
                        .map(|k| h.get_by_parts(std::slice::from_ref(*k))),
                );
            }
        }
    }
}

impl SecondaryIndex for AnyIndex {
    fn insert(&mut self, key: IndexKey, row: RowId) {
        match self {
            AnyIndex::BTree(b) => b.insert(key, row),
            AnyIndex::Hash(h) => h.insert(key, row),
        }
    }

    fn remove(&mut self, key: &IndexKey, row: RowId) -> bool {
        match self {
            AnyIndex::BTree(b) => b.remove(key, row),
            AnyIndex::Hash(h) => h.remove(key, row),
        }
    }

    fn get(&self, key: &IndexKey) -> &[RowId] {
        // Equality-probe path used by the executor and the PMV's bcp
        // index; soft site because `&[RowId]` has no error channel.
        pmv_faultinject::fire_soft(pmv_faultinject::Site::IndexProbe);
        match self {
            AnyIndex::BTree(b) => b.get(key),
            AnyIndex::Hash(h) => h.get(key),
        }
    }

    fn key_count(&self) -> usize {
        match self {
            AnyIndex::BTree(b) => b.key_count(),
            AnyIndex::Hash(h) => h.key_count(),
        }
    }

    fn entry_count(&self) -> usize {
        match self {
            AnyIndex::BTree(b) => b.entry_count(),
            AnyIndex::Hash(h) => h.entry_count(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn any_index_dispatches() {
        let mut idx = AnyIndex::Hash(HashIndex::new());
        idx.insert(IndexKey::single(Value::Int(1)), RowId(0));
        assert_eq!(idx.get(&IndexKey::single(Value::Int(1))), &[RowId(0)]);
        assert!(!idx.supports_range());

        let mut idx = AnyIndex::BTree(BTreeIndex::new());
        idx.insert(IndexKey::single(Value::Int(1)), RowId(0));
        assert!(idx.supports_range());
        assert_eq!(idx.key_count(), 1);
        assert_eq!(idx.entry_count(), 1);
    }

    #[test]
    fn hash_range_returns_typed_error() {
        let idx = AnyIndex::Hash(HashIndex::new());
        let err = idx.range(Bound::Unbounded, Bound::Unbounded).unwrap_err();
        assert_eq!(err, IndexError::RangeOnHashIndex);
        assert_eq!(err.to_string(), "range scan requested on a hash index");
    }

    #[test]
    fn btree_range_still_scans() {
        let mut idx = AnyIndex::BTree(BTreeIndex::new());
        for i in 0..5i64 {
            idx.insert(IndexKey::single(Value::Int(i)), RowId(i as u32));
        }
        let lo = IndexKey::single(Value::Int(1));
        let hi = IndexKey::single(Value::Int(3));
        let hits = idx
            .range(Bound::Included(&lo), Bound::Included(&hi))
            .unwrap();
        assert_eq!(hits.len(), 3);
    }
}
