//! Simplified 2Q, exactly as specified in the paper's Section 4.1:
//!
//! > V_PM is composed of two queues: Am and A1. Am has N entries and is
//! > managed by the CLOCK algorithm. Each entry can store one basic
//! > condition part bcp and F query result tuples. A1 has N' = 50% × N
//! > entries and is a FIFO queue. Each entry stores one basic condition
//! > part. Upon the first time that a bcp appears in the Cselect of a
//! > query, bcp is put into A1. If during its stay in A1, bcp appears
//! > again, both bcp and F query result tuples are moved to Am. Am is
//! > used to provide partial results to a query.
//!
//! A1 holds keys only (its entries cost ~4% of a full entry, which is how
//! the paper equalizes storage with CLOCK via L = 1.02 × N), so a key in
//! A1 is *probationary*: [`ReplacementPolicy::admit`] returns
//! [`AdmitOutcome::Probation`] and the store caches no tuples for it.

use std::collections::{HashSet, VecDeque};
use std::fmt::Debug;
use std::hash::Hash;

use crate::clock::ClockPolicy;
use crate::{AdmitOutcome, ReplacementPolicy};

/// Simplified 2Q: CLOCK-managed Am plus FIFO key-only A1.
pub struct TwoQPolicy<K> {
    am: ClockPolicy<K>,
    a1: VecDeque<K>,
    a1_set: HashSet<K>,
    a1_capacity: usize,
}

impl<K: Clone + Eq + Hash + Debug> TwoQPolicy<K> {
    /// 2Q with `capacity` Am entries and the paper's A1 size of 50% × N
    /// (at least 1).
    pub fn new(capacity: usize) -> Self {
        Self::with_a1_capacity(capacity, (capacity / 2).max(1))
    }

    /// 2Q with an explicit A1 probation-queue size.
    pub fn with_a1_capacity(capacity: usize, a1_capacity: usize) -> Self {
        assert!(a1_capacity > 0, "A1 capacity must be positive");
        TwoQPolicy {
            am: ClockPolicy::new(capacity),
            a1: VecDeque::with_capacity(a1_capacity),
            a1_set: HashSet::with_capacity(a1_capacity),
            a1_capacity,
        }
    }

    /// Whether `key` is sitting in the A1 probation queue.
    pub fn in_probation(&self, key: &K) -> bool {
        self.a1_set.contains(key)
    }

    /// Current probation-queue length.
    pub fn probation_len(&self) -> usize {
        self.a1.len()
    }

    fn drop_from_a1(&mut self, key: &K) {
        if self.a1_set.remove(key) {
            if let Some(pos) = self.a1.iter().position(|k| k == key) {
                self.a1.remove(pos);
            }
        }
    }

    fn push_a1(&mut self, key: K) {
        if self.a1_set.contains(&key) {
            return;
        }
        if self.a1.len() == self.a1_capacity {
            if let Some(old) = self.a1.pop_front() {
                self.a1_set.remove(&old);
            }
        }
        self.a1_set.insert(key.clone());
        self.a1.push_back(key);
    }
}

impl<K: Clone + Eq + Hash + Debug> ReplacementPolicy<K> for TwoQPolicy<K> {
    fn contains(&self, key: &K) -> bool {
        self.am.contains(key)
    }

    fn touch(&mut self, key: &K) {
        // Accesses to Am entries set their CLOCK reference bit; A1
        // promotion happens on `admit` (when tuples are available).
        self.am.touch(key);
    }

    fn admit(&mut self, key: K) -> AdmitOutcome<K> {
        if self.am.contains(&key) {
            self.am.touch(&key);
            return AdmitOutcome::Resident { evicted: vec![] };
        }
        if self.a1_set.contains(&key) {
            // Second appearance during its stay in A1: promote to Am.
            self.drop_from_a1(&key);
            return self.am.admit(key);
        }
        // First appearance: probation only.
        self.push_a1(key);
        AdmitOutcome::Probation
    }

    fn victim(&mut self, candidate: &K) -> Option<&K> {
        // Only a promotion out of A1 can evict from Am.
        if self.a1_set.contains(candidate) {
            self.am.victim(candidate)
        } else {
            None
        }
    }

    fn remove(&mut self, key: &K) {
        self.am.remove(key);
        self.drop_from_a1(key);
    }

    fn resident_count(&self) -> usize {
        self.am.resident_count()
    }

    fn capacity(&self) -> usize {
        self.am.capacity()
    }

    fn resident_keys(&self) -> Vec<K> {
        self.am.resident_keys()
    }

    fn name(&self) -> &'static str {
        "2Q"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_touch_goes_to_probation() {
        let mut q = TwoQPolicy::new(4);
        let out = q.admit(1u32);
        assert_eq!(out, AdmitOutcome::Probation);
        assert!(!q.contains(&1));
        assert!(q.in_probation(&1));
    }

    #[test]
    fn second_touch_promotes() {
        let mut q = TwoQPolicy::new(4);
        q.admit(1u32);
        let out = q.admit(1);
        assert!(out.is_resident());
        assert!(q.contains(&1));
        assert!(!q.in_probation(&1));
    }

    #[test]
    fn a1_fifo_expels_oldest_probationer() {
        let mut q = TwoQPolicy::with_a1_capacity(4, 2);
        q.admit(1u32);
        q.admit(2);
        q.admit(3); // expels 1 from A1
        assert!(!q.in_probation(&1));
        assert!(q.in_probation(&2) && q.in_probation(&3));
        // 1 fell out of A1, so another appearance is "first" again.
        assert_eq!(q.admit(1), AdmitOutcome::Probation);
    }

    #[test]
    fn promotion_can_evict_from_am() {
        let mut q = TwoQPolicy::new(2);
        for k in [1u32, 1, 2, 2] {
            q.admit(k);
        }
        assert_eq!(q.resident_count(), 2);
        q.admit(3);
        let out = q.admit(3);
        assert!(out.is_resident());
        assert_eq!(out.evicted().len(), 1);
        assert_eq!(q.resident_count(), 2);
    }

    #[test]
    fn touch_on_am_protects_from_eviction() {
        let mut q = TwoQPolicy::new(3);
        for k in [1u32, 1, 2, 2, 3, 3] {
            q.admit(k); // Am = [1, 2, 3], all reference bits set
        }
        // Promote 4: the sweep clears everyone's bit, then evicts 1.
        q.admit(4u32);
        assert_eq!(q.admit(4).evicted(), &[1]);
        // 2 gets re-referenced; promoting 5 must spare it and evict 3.
        q.touch(&2);
        q.admit(5u32);
        let out = q.admit(5);
        assert_eq!(out.evicted(), &[3]);
        assert!(q.contains(&2));
    }

    #[test]
    fn remove_clears_both_queues() {
        let mut q = TwoQPolicy::new(2);
        q.admit(1u32);
        q.remove(&1);
        assert!(!q.in_probation(&1));
        q.admit(2u32);
        q.admit(2);
        q.remove(&2);
        assert!(!q.contains(&2));
        assert_eq!(q.resident_count(), 0);
    }

    #[test]
    fn only_a_promotion_names_a_victim() {
        let mut q = TwoQPolicy::new(1);
        q.admit(1u32);
        q.admit(1); // Am = [1], full
        assert_eq!(q.victim(&2), None, "a first sighting only enters A1");
        q.admit(2);
        assert_eq!(q.victim(&2), Some(&1));
        assert_eq!(q.admit(2).evicted(), &[1]);
        assert_eq!(q.victim(&2), None, "resident");
    }

    #[test]
    fn resident_admit_is_noop() {
        let mut q = TwoQPolicy::new(2);
        q.admit(1u32);
        q.admit(1);
        let out = q.admit(1);
        assert_eq!(out, AdmitOutcome::Resident { evicted: vec![] });
        assert_eq!(q.resident_count(), 1);
    }
}
