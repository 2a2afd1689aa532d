//! Space-saving heavy-hitter sketch (Metwally et al.), used by the
//! maintenance path to split the delta stream into heavy and light
//! keys: a delta key whose estimated frequency clears a threshold takes
//! the O(fanout) delta-key-index path, everything else batches into the
//! coalesced ΔR join (Abo-Khamis-style heavy/light partitioning bounds
//! worst-case maintenance under Zipfian churn).
//!
//! The sketch tracks at most `cap` keys. A new key arriving at capacity
//! replaces the current minimum and inherits `min + 1` as its count —
//! the classic space-saving overestimate, which errs toward *heavy*.
//! Overestimating a cold key merely routes a few extra deltas through
//! the (always-sound) indexed path, so the bias is safe here.

use std::collections::HashMap;

/// Default number of tracked keys — enough for the hot tail of a
/// Zipfian delete stream while keeping the replace-min scan trivial.
pub const DEFAULT_SKETCH_CAPACITY: usize = 64;

/// Bounded frequency sketch over pre-hashed `u64` keys.
#[derive(Debug, Clone)]
pub struct SpaceSaving {
    cap: usize,
    counts: HashMap<u64, u64>,
    /// Total keys noted (observed stream length, for reporting).
    noted: u64,
}

impl Default for SpaceSaving {
    fn default() -> Self {
        SpaceSaving::new(DEFAULT_SKETCH_CAPACITY)
    }
}

impl SpaceSaving {
    /// Sketch tracking at most `cap` keys (`cap >= 1`).
    pub fn new(cap: usize) -> Self {
        let cap = cap.max(1);
        SpaceSaving {
            cap,
            counts: HashMap::with_capacity(cap),
            noted: 0,
        }
    }

    /// Record one occurrence of `key`, returning its estimated count
    /// after the update.
    pub fn note(&mut self, key: u64) -> u64 {
        self.noted += 1;
        if let Some(n) = self.counts.get_mut(&key) {
            *n += 1;
            return *n;
        }
        if self.counts.len() < self.cap {
            self.counts.insert(key, 1);
            return 1;
        }
        // At capacity: evict the minimum, inherit its count + 1.
        let (&victim, &min) = self
            .counts
            .iter()
            .min_by_key(|(_, &n)| n)
            .expect("cap >= 1, so a full sketch is non-empty");
        self.counts.remove(&victim);
        self.counts.insert(key, min + 1);
        min + 1
    }

    /// Estimated count for `key` (0 when untracked). Never
    /// underestimates a tracked key's true frequency by more than the
    /// evicted minimum at insertion time; untracked keys have true
    /// count at most the current minimum.
    pub fn estimate(&self, key: u64) -> u64 {
        self.counts.get(&key).copied().unwrap_or(0)
    }

    /// Keys whose estimated count is at least `threshold`, heaviest
    /// first.
    pub fn heavy(&self, threshold: u64) -> Vec<(u64, u64)> {
        let mut out: Vec<(u64, u64)> = self
            .counts
            .iter()
            .filter(|(_, &n)| n >= threshold)
            .map(|(&k, &n)| (k, n))
            .collect();
        out.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        out
    }

    /// Keys currently tracked.
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// Whether nothing has been tracked yet.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// Total occurrences noted since construction (or the last clear).
    pub fn noted(&self) -> u64 {
        self.noted
    }

    /// Forget every key and zero the stream length.
    pub fn clear(&mut self) {
        self.counts.clear();
        self.noted = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_below_capacity_are_exact() {
        let mut s = SpaceSaving::new(8);
        for _ in 0..5 {
            s.note(1);
        }
        s.note(2);
        assert_eq!(s.estimate(1), 5);
        assert_eq!(s.estimate(2), 1);
        assert_eq!(s.estimate(3), 0);
        assert_eq!(s.noted(), 6);
    }

    #[test]
    fn heavy_hitters_survive_churn() {
        let mut s = SpaceSaving::new(4);
        // One genuinely hot key among a stream of singletons.
        for i in 0..100u64 {
            s.note(999);
            s.note(1000 + i);
        }
        assert!(
            s.estimate(999) >= 100,
            "hot key evicted: {}",
            s.estimate(999)
        );
        assert_eq!(s.len(), 4);
        let heavy = s.heavy(50);
        assert_eq!(heavy[0].0, 999);
    }

    #[test]
    fn eviction_inherits_min_plus_one() {
        let mut s = SpaceSaving::new(2);
        s.note(1); // 1 -> 1
        s.note(1); // 1 -> 2
        s.note(2); // 2 -> 1
        s.note(3); // evicts 2 (min=1), 3 -> 2
        assert_eq!(s.estimate(2), 0);
        assert_eq!(s.estimate(3), 2);
        assert_eq!(s.estimate(1), 2);
    }

    #[test]
    fn clear_resets_everything() {
        let mut s = SpaceSaving::new(2);
        s.note(7);
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.noted(), 0);
        assert_eq!(s.estimate(7), 0);
    }
}
