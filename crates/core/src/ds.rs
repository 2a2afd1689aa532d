//! The temporary in-memory data structure `DS` of Operation O2/O3
//! (Section 3.3): a multiset of the result tuples already returned from
//! the PMV, consulted during full execution so each result tuple reaches
//! the user exactly once.
//!
//! Multiset semantics matter: "Query results can contain duplicate
//! tuples. In the case that t∈DS, if t is not removed from DS and later
//! another tuple t' = t comes, the user can miss some result tuples."

use std::sync::Arc;

use crate::fasthash::FxHashMap;
use pmv_storage::Tuple;

/// Multiset of `Ls'`-layout result tuples.
///
/// Keys are `Arc<Tuple>` shared with the query outcome (each served row
/// is rebuilt from its stored form once, or is the store's own `Arc`
/// when the view stores full rows), so building DS from served partials
/// copies pointers, not tuples. Lookups still take `&Tuple` (via `Borrow`), so the executor
/// can probe with borrowed tuples. The table hashes with
/// [`crate::fasthash::FxHasher`]: every O3 result tuple probes DS, and
/// the profiled `o3_dedup` cost was mostly SipHash, not dedup logic.
#[derive(Default)]
pub struct Ds {
    counts: FxHashMap<Arc<Tuple>, usize>,
    len: usize,
    peak: usize,
}

impl Ds {
    /// Empty DS.
    pub fn new() -> Self {
        Ds::default()
    }

    /// Add one occurrence of `t` (shared, zero-copy).
    pub fn insert_arc(&mut self, t: Arc<Tuple>) {
        *self.counts.entry(t).or_insert(0) += 1;
        self.len += 1;
        self.peak = self.peak.max(self.len);
    }

    /// Add one occurrence of `t`.
    pub fn insert(&mut self, t: Tuple) {
        self.insert_arc(Arc::new(t));
    }

    /// Remove one occurrence of `t`; returns whether one was present.
    pub fn remove_one(&mut self, t: &Tuple) -> bool {
        match self.counts.get_mut(t) {
            Some(n) if *n > 0 => {
                *n -= 1;
                if *n == 0 {
                    self.counts.remove(t);
                }
                self.len -= 1;
                true
            }
            _ => false,
        }
    }

    /// Whether at least one occurrence of `t` is present.
    pub fn contains(&self, t: &Tuple) -> bool {
        self.counts.contains_key(t)
    }

    /// Total occurrences stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no occurrences remain — the end-of-O3 invariant ("after
    /// all the result tuples have been processed, DS must be empty").
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Largest size DS reached (diagnostic).
    pub fn peak(&self) -> usize {
        self.peak
    }

    /// Empty the multiset, keeping the allocated table so a pooled DS
    /// can be reused across queries without reallocating.
    pub fn clear(&mut self) {
        self.counts.clear();
        self.len = 0;
        self.peak = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmv_storage::tuple;

    #[test]
    fn multiset_counts_occurrences() {
        let mut ds = Ds::new();
        ds.insert(tuple![1i64]);
        ds.insert(tuple![1i64]);
        ds.insert(tuple![2i64]);
        assert_eq!(ds.len(), 3);
        assert!(ds.remove_one(&tuple![1i64]));
        assert!(ds.contains(&tuple![1i64]));
        assert!(ds.remove_one(&tuple![1i64]));
        assert!(!ds.contains(&tuple![1i64]));
        assert!(!ds.remove_one(&tuple![1i64]));
        assert_eq!(ds.len(), 1);
        assert!(!ds.is_empty());
        assert!(ds.remove_one(&tuple![2i64]));
        assert!(ds.is_empty());
    }

    #[test]
    fn peak_tracks_high_water_mark() {
        let mut ds = Ds::new();
        for i in 0..5i64 {
            ds.insert(tuple![i]);
        }
        for i in 0..5i64 {
            ds.remove_one(&tuple![i]);
        }
        assert_eq!(ds.peak(), 5);
        assert!(ds.is_empty());
    }

    #[test]
    fn the_paper_duplicate_scenario() {
        // Serve one copy of t from the PMV; execution then produces two
        // copies. Exactly one must be suppressed.
        let mut ds = Ds::new();
        let t = tuple![9i64, 9i64];
        ds.insert(t.clone()); // served in O2
        let mut returned = 0;
        for produced in [t.clone(), t.clone()] {
            if ds.remove_one(&produced) {
                continue; // already given to the user
            }
            returned += 1;
        }
        assert_eq!(returned, 1);
        assert!(ds.is_empty());
    }
}
