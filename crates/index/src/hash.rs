//! Equality-probe hash index.
//!
//! A thin wrapper over `HashMap<IndexKey, Vec<RowId>>`. This is the index
//! shape the PMV uses for its bcp index I (Section 3.2): bcp probes are
//! always exact-match, so no ordering is needed there.

use std::collections::HashMap;

use pmv_storage::RowId;

use crate::key::IndexKey;
use crate::SecondaryIndex;

/// Hash index: exact-match lookups only. `Clone` supports the
/// copy-on-write snapshot layer (see `BTreeIndex`).
#[derive(Clone, Default)]
pub struct HashIndex {
    map: HashMap<IndexKey, Vec<RowId>>,
    entries: usize,
}

impl HashIndex {
    /// Empty index.
    pub fn new() -> Self {
        HashIndex::default()
    }

    /// Empty index pre-sized for `keys` distinct keys.
    pub fn with_capacity(keys: usize) -> Self {
        HashIndex {
            map: HashMap::with_capacity(keys),
            entries: 0,
        }
    }

    /// Iterate over all `(key, postings)` pairs in arbitrary order.
    pub fn iter(&self) -> impl Iterator<Item = (&IndexKey, &[RowId])> {
        self.map.iter().map(|(k, v)| (k, v.as_slice()))
    }

    /// Rows whose key components equal `parts`, without materializing an
    /// [`IndexKey`] — the zero-copy probe path (via
    /// `Borrow<[Value]> for IndexKey`).
    pub fn get_by_parts(&self, parts: &[pmv_storage::Value]) -> &[RowId] {
        self.map.get(parts).map_or(&[], Vec::as_slice)
    }
}

impl SecondaryIndex for HashIndex {
    fn insert(&mut self, key: IndexKey, row: RowId) {
        self.map.entry(key).or_default().push(row);
        self.entries += 1;
    }

    fn remove(&mut self, key: &IndexKey, row: RowId) -> bool {
        if let Some(rows) = self.map.get_mut(key) {
            if let Some(pos) = rows.iter().position(|&r| r == row) {
                rows.swap_remove(pos);
                self.entries -= 1;
                if rows.is_empty() {
                    self.map.remove(key);
                }
                return true;
            }
        }
        false
    }

    fn get(&self, key: &IndexKey) -> &[RowId] {
        self.map.get(key).map_or(&[], Vec::as_slice)
    }

    fn key_count(&self) -> usize {
        self.map.len()
    }

    fn entry_count(&self) -> usize {
        self.entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmv_storage::Value;

    fn k(v: i64) -> IndexKey {
        IndexKey::single(Value::Int(v))
    }

    #[test]
    fn insert_and_get() {
        let mut idx = HashIndex::new();
        idx.insert(k(1), RowId(10));
        idx.insert(k(1), RowId(11));
        idx.insert(k(2), RowId(20));
        assert_eq!(idx.get(&k(1)), &[RowId(10), RowId(11)]);
        assert_eq!(idx.get(&k(2)), &[RowId(20)]);
        assert_eq!(idx.get(&k(3)), &[] as &[RowId]);
        assert_eq!(idx.key_count(), 2);
        assert_eq!(idx.entry_count(), 3);
    }

    #[test]
    fn remove_specific_posting() {
        let mut idx = HashIndex::new();
        idx.insert(k(1), RowId(10));
        idx.insert(k(1), RowId(11));
        assert!(idx.remove(&k(1), RowId(10)));
        assert_eq!(idx.get(&k(1)), &[RowId(11)]);
        assert!(!idx.remove(&k(1), RowId(10)));
        assert_eq!(idx.entry_count(), 1);
    }

    #[test]
    fn remove_last_posting_drops_key() {
        let mut idx = HashIndex::new();
        idx.insert(k(1), RowId(10));
        assert!(idx.remove(&k(1), RowId(10)));
        assert_eq!(idx.key_count(), 0);
    }

    #[test]
    fn duplicate_rows_per_key_allowed() {
        // Multiset semantics: the same row can appear twice (e.g. a
        // relation with duplicate tuples indexed by value).
        let mut idx = HashIndex::new();
        idx.insert(k(1), RowId(5));
        idx.insert(k(1), RowId(5));
        assert_eq!(idx.get(&k(1)).len(), 2);
        idx.remove(&k(1), RowId(5));
        assert_eq!(idx.get(&k(1)).len(), 1);
    }
}
