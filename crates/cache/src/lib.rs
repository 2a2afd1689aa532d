//! Replacement policies for managing the basic condition parts resident in
//! a PMV.
//!
//! Section 3.2 manages the bcp entries of a PMV with CLOCK; Section 3.5
//! observes that the PMV "looks much like a buffer pool" (bcp = page id,
//! the ≤ F cached tuples = page) and proposes simplified 2Q as a better
//! policy; the experimental Section 4.1 compares the two. They are the
//! only replacement policies here. What the paper leaves as future work,
//! "other algorithms that perform better than both CLOCK and 2Q", is one
//! admission rule in front of either ([`admission`]): a newcomer evicts
//! only a victim it out-counts in a [`FrequencySketch`]. The PMV store
//! always runs it; the §4.1 simulator runs it as a third arm next to the
//! paper's two pure policies. EXPERIMENTS.md ("Replacement policies")
//! gives the measurements, and why full 2Q and LRU-2 were not kept.
//!
//! A policy manages *keys* only (generic `K`); the PMV store owns the
//! cached tuples and evicts them when the policy reports an eviction.
//! [`AdmitOutcome`] distinguishes *resident* keys (their tuples are cached
//! and can serve partial results) from *probationary* keys (2Q's A1 queue
//! holds the key but no tuples yet).

pub mod admission;
pub mod clock;
pub mod two_q;

pub use admission::{admit_if_warmer, FrequencySketch};
pub use clock::ClockPolicy;
pub use two_q::TwoQPolicy;

use std::fmt::Debug;
use std::hash::Hash;

/// What happened when a key was touched/admitted.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AdmitOutcome<K> {
    /// The key is now resident; any listed keys were evicted to make room.
    Resident {
        /// Keys evicted from residency (their cached tuples must be
        /// purged by the store).
        evicted: Vec<K>,
    },
    /// The key was noted (e.g. placed in 2Q's A1 probation queue) but is
    /// not resident; the store must not cache tuples for it yet.
    Probation,
}

impl<K> AdmitOutcome<K> {
    /// Whether the key ended up resident.
    pub fn is_resident(&self) -> bool {
        matches!(self, AdmitOutcome::Resident { .. })
    }

    /// Evicted keys (empty for probation).
    pub fn evicted(&self) -> &[K] {
        match self {
            AdmitOutcome::Resident { evicted } => evicted,
            AdmitOutcome::Probation => &[],
        }
    }

    /// Number of keys evicted by this admission — the telemetry feed for
    /// fill-phase trace events, without borrowing the key list.
    pub fn evicted_count(&self) -> u64 {
        self.evicted().len() as u64
    }
}

/// A replacement policy over keys of type `K`.
///
/// Contract: `contains` answers residency; `touch` records an access to a
/// key (resident or not) and may change its future fate; `admit` is called
/// when the store wants the key to become resident (because query
/// execution just produced tuples for it, Operation O3).
pub trait ReplacementPolicy<K: Clone + Eq + Hash + Debug> {
    /// Is `key` currently resident (its tuples may be served)?
    fn contains(&self, key: &K) -> bool;

    /// Record an access to `key` (a query asked for it in Operation O2).
    fn touch(&mut self, key: &K);

    /// Ask to make `key` resident. Policies with probation queues may
    /// decline (returning [`AdmitOutcome::Probation`]) until the key has
    /// been seen often enough.
    fn admit(&mut self, key: K) -> AdmitOutcome<K>;

    /// The resident key that `admit(candidate.clone())` would evict now,
    /// or `None` when it would evict nothing (the candidate is resident,
    /// there is room, or it would only enter probation). May advance
    /// internal state the way `admit` would on its way to that victim
    /// (CLOCK clears reference bits and parks its hand on the frame), so
    /// a following `admit` evicts exactly the key named here.
    ///
    /// The default names none, so the admission rule in front of such a
    /// policy never declines; CLOCK and 2Q both name theirs.
    fn victim(&mut self, candidate: &K) -> Option<&K> {
        let _ = candidate;
        None
    }

    /// Drop `key` from the policy entirely (e.g. PMV maintenance removed
    /// its last tuple). No-op if absent.
    fn remove(&mut self, key: &K);

    /// Number of resident keys.
    fn resident_count(&self) -> usize;

    /// Maximum number of resident keys.
    fn capacity(&self) -> usize;

    /// All resident keys (test/diagnostic helper; arbitrary order).
    fn resident_keys(&self) -> Vec<K>;

    /// Policy name for reports.
    fn name(&self) -> &'static str;

    /// Resident fraction of capacity in `[0, 1]` — exported as the
    /// `occupancy` gauge. Zero-capacity policies report 0 (never NaN).
    fn occupancy(&self) -> f64 {
        if self.capacity() == 0 {
            0.0
        } else {
            self.resident_count() as f64 / self.capacity() as f64
        }
    }
}

/// Which policy to instantiate (used by config/bench code).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PolicyKind {
    /// CLOCK (second chance), the paper's default.
    Clock,
    /// Simplified 2Q per Section 4.1.
    TwoQ,
}

impl PolicyKind {
    /// Instantiate a policy with `capacity` resident entries.
    ///
    /// For 2Q, `capacity` is the Am queue size N; the A1 probation queue
    /// gets the paper's N' = 50% × N additional key-only entries.
    ///
    /// The box is `Send + Sync` so a store can live behind its view's
    /// `RwLock` in the concurrent PMV.
    pub fn build<K: Clone + Eq + Hash + Ord + Debug + Send + Sync + 'static>(
        &self,
        capacity: usize,
    ) -> Box<dyn ReplacementPolicy<K> + Send + Sync> {
        match self {
            PolicyKind::Clock => Box::new(ClockPolicy::new(capacity)),
            PolicyKind::TwoQ => Box::new(TwoQPolicy::new(capacity)),
        }
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            PolicyKind::Clock => "CLOCK",
            PolicyKind::TwoQ => "2Q",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_build_named_policies() {
        for (kind, name) in [(PolicyKind::Clock, "CLOCK"), (PolicyKind::TwoQ, "2Q")] {
            let p: Box<dyn ReplacementPolicy<u64>> = kind.build(8);
            assert_eq!(p.name(), name);
            assert_eq!(kind.name(), name);
            assert_eq!(p.capacity(), 8);
            assert_eq!(p.resident_count(), 0);
        }
    }

    #[test]
    fn admit_outcome_helpers() {
        let r: AdmitOutcome<u32> = AdmitOutcome::Resident { evicted: vec![7] };
        assert!(r.is_resident());
        assert_eq!(r.evicted(), &[7]);
        let p: AdmitOutcome<u32> = AdmitOutcome::Probation;
        assert!(!p.is_resident());
        assert!(p.evicted().is_empty());
        assert_eq!(r.evicted_count(), 1);
        assert_eq!(p.evicted_count(), 0);
    }

    #[test]
    fn occupancy_gauge() {
        let mut p: Box<dyn ReplacementPolicy<u64>> = PolicyKind::Clock.build(4);
        assert_eq!(p.occupancy(), 0.0);
        p.admit(1);
        p.admit(2);
        assert!((p.occupancy() - 0.5).abs() < 1e-12);

        // The default guards capacity() == 0 (policies assert positive
        // capacity at build time, but trait impls outside this crate may
        // not): it must yield 0, never NaN.
        struct Zero;
        impl ReplacementPolicy<u64> for Zero {
            fn contains(&self, _: &u64) -> bool {
                false
            }
            fn touch(&mut self, _: &u64) {}
            fn admit(&mut self, _: u64) -> AdmitOutcome<u64> {
                AdmitOutcome::Probation
            }
            fn remove(&mut self, _: &u64) {}
            fn resident_count(&self) -> usize {
                0
            }
            fn capacity(&self) -> usize {
                0
            }
            fn resident_keys(&self) -> Vec<u64> {
                Vec::new()
            }
            fn name(&self) -> &'static str {
                "zero"
            }
        }
        assert_eq!(Zero.occupancy(), 0.0, "zero capacity must not be NaN");
    }
}
