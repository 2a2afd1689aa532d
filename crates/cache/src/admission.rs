//! Frequency-aware admission (TinyLFU: Einziger, Friedman & Manes, ACM
//! TOS 2017) in front of a replacement policy.
//!
//! A policy alone lets every key seen once evict a resident one. Under a
//! flat skew most of those newcomers are never asked for again, so each
//! such admission trades a key that may come back for one that will not.
//! The rule here makes one comparison instead: when admitting `key` would
//! evict `victim`, `key` is admitted only if its recent access frequency
//! is *higher* than the victim's; a tie keeps the incumbent.
//!
//! Frequencies come from a [`FrequencySketch`]: a count-min sketch of
//! 4-bit counters, four per key, packed sixteen to a `u64` (the layout of
//! Caffeine's sketch), one `u64` per frame of policy capacity — 8 B per
//! frame. Once a sample of [`SAMPLE_FACTOR`] × capacity increments
//! completes it halves every counter, so old popularity fades and a new
//! hot set can displace an old one.

use std::fmt::Debug;
use std::hash::Hash;

use crate::{AdmitOutcome, ReplacementPolicy};

/// Sample period `W` as a multiple of the policy's capacity: the sketch
/// halves its counters when a sample of `SAMPLE_FACTOR × capacity`
/// increments completes.
/// Chosen with the §4.1 simulator (`pmv-workload::sim`; EXPERIMENTS.md,
/// "Replacement policies").
pub const SAMPLE_FACTOR: usize = 32;

/// Per-depth multipliers: odd 64-bit constants, one per hash function.
const SEEDS: [u64; 4] = [
    0xc3a5_c85c_97cb_3127,
    0xb492_b66f_be98_f273,
    0x9ae1_6a3b_2f90_404f,
    0xcbf2_9ce4_8422_2325,
];

/// Bits 0–2 of every 4-bit counter: what survives a right shift by one.
const RESET_MASK: u64 = 0x7777_7777_7777_7777;

/// A count-min sketch of 4-bit saturating counters that ages by halving.
///
/// Keys are given as 64-bit hashes, which the sketch re-mixes
/// (SplitMix64's finalizer) before it picks counters.
#[derive(Clone, Debug)]
pub struct FrequencySketch {
    table: Vec<u64>,
    /// `table.len() - 1`; the length is a power of two.
    mask: usize,
    /// Increments per sample period `W`.
    sample: usize,
    /// Increments since the last halving.
    size: usize,
}

impl FrequencySketch {
    /// A sketch for a policy of `capacity` frames: one `u64` of counters
    /// per frame (rounded up to a power of two) and a sample period of
    /// [`SAMPLE_FACTOR`] × `capacity` increments.
    pub fn new(capacity: usize) -> Self {
        Self::with_sample(capacity, SAMPLE_FACTOR * capacity.max(1))
    }

    /// A sketch sized for `capacity` frames that halves after `sample`
    /// increments (≥ 1).
    pub fn with_sample(capacity: usize, sample: usize) -> Self {
        let len = capacity.max(1).next_power_of_two();
        FrequencySketch {
            table: vec![0; len],
            mask: len - 1,
            sample: sample.max(1),
            size: 0,
        }
    }

    /// The four `(word, shift)` positions of `hash`'s counters. All four
    /// use the same quarter of their word (chosen by the hash) at a
    /// different counter within it, so the four depths never share a
    /// counter.
    #[inline]
    fn slots(&self, hash: u64) -> [(usize, u32); 4] {
        let h = spread(hash);
        let start = ((h >> 62) as u32) << 2;
        let mut out = [(0, 0); 4];
        for (i, (slot, &seed)) in out.iter_mut().zip(&SEEDS).enumerate() {
            let x = h.wrapping_add(seed).wrapping_mul(seed);
            *slot = (
                ((x ^ (x >> 32)) as usize) & self.mask,
                (start + i as u32) << 2,
            );
        }
        out
    }

    /// Count one access of the key hashing to `hash`. The call that
    /// completes a sample halves all counters.
    pub fn increment(&mut self, hash: u64) {
        for (word, shift) in self.slots(hash) {
            if (self.table[word] >> shift) & 0xf != 0xf {
                self.table[word] += 1 << shift;
            }
        }
        self.size += 1;
        if self.size >= self.sample {
            self.halve();
        }
    }

    /// Estimated recent accesses of the key hashing to `hash`, in
    /// `0..=15`: never below its true count (capped at 15) since the last
    /// halving.
    pub fn estimate(&self, hash: u64) -> u8 {
        self.slots(hash)
            .into_iter()
            .map(|(word, shift)| ((self.table[word] >> shift) & 0xf) as u8)
            .min()
            .unwrap_or(0)
    }

    /// Halve every counter (rounding down) and the sample count with
    /// them, as TinyLFU's reset does: the halved counts stand for half a
    /// sample, so the next halving comes after `W / 2` increments.
    fn halve(&mut self) {
        for w in &mut self.table {
            *w = (*w >> 1) & RESET_MASK;
        }
        self.size /= 2;
    }
}

/// SplitMix64's finalizer: every input bit reaches every output bit.
#[inline]
fn spread(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Admit `key` into `policy` unless that would evict a victim at least as
/// frequent: the one admission rule, shared by the PMV store and the
/// §4.1 simulator. `key_hash` is `key`'s sketch hash, which a caller
/// that placed the key by it already holds, and `hash` gives a victim's.
/// The check allocates nothing; `key` is cloned only when it is admitted.
///
/// Returns `None` when the candidate is declined — nothing is admitted
/// and nothing evicted — and otherwise the policy's own outcome, which
/// evicts exactly the victim that was compared. A policy that would evict
/// nothing (room left, key already resident, 2Q's A1 probation) admits
/// as it always did.
pub fn admit_if_warmer<K, P>(
    policy: &mut P,
    sketch: &FrequencySketch,
    key: &K,
    key_hash: u64,
    hash: impl Fn(&K) -> u64,
) -> Option<AdmitOutcome<K>>
where
    K: Clone + Eq + Hash + Debug,
    P: ReplacementPolicy<K> + ?Sized,
{
    if let Some(victim) = policy.victim(key) {
        if sketch.estimate(key_hash) <= sketch.estimate(hash(victim)) {
            return None;
        }
    }
    Some(policy.admit(key.clone()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ClockPolicy;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::HashMap;

    #[test]
    fn eight_bytes_per_frame() {
        let bytes = |capacity| std::mem::size_of_val(&FrequencySketch::new(capacity).table[..]);
        assert_eq!(bytes(64), 64 * 8);
        assert_eq!(bytes(100), 128 * 8);
        assert_eq!(bytes(0), 8);
    }

    #[test]
    fn counters_saturate_at_fifteen() {
        let mut s = FrequencySketch::with_sample(16, 1_000);
        for n in 1..=40u8 {
            s.increment(7);
            assert_eq!(s.estimate(7), n.min(15));
        }
        assert_eq!(s.estimate(8), 0);
    }

    #[test]
    fn the_sample_halves_every_counter() {
        let mut s = FrequencySketch::with_sample(16, 16);
        for _ in 0..15 {
            s.increment(1);
        }
        assert_eq!(s.estimate(1), 15);
        // The sixteenth increment ends the sample: 15 (saturated) → 7.
        s.increment(1);
        assert_eq!(s.estimate(1), 7);
        // The sample count halved too: the next halving comes after
        // W / 2 = 8 increments, and counters round down.
        for _ in 0..7 {
            s.increment(2);
        }
        assert_eq!((s.estimate(1), s.estimate(2)), (7, 7));
        s.increment(2);
        assert_eq!((s.estimate(1), s.estimate(2)), (3, 4));
    }

    #[test]
    fn no_estimate_is_below_the_true_count_before_a_halving() {
        let mut rng = StdRng::seed_from_u64(41);
        // A small table over many keys, so collisions are certain.
        let mut s = FrequencySketch::with_sample(8, usize::MAX);
        let mut truth: HashMap<u64, u8> = HashMap::new();
        for _ in 0..5_000 {
            let key = rng.gen_range(0..300u64);
            s.increment(key);
            let n = truth.entry(key).or_default();
            *n = n.saturating_add(1);
        }
        for (&key, &n) in &truth {
            assert!(
                s.estimate(key) >= n.min(15),
                "key {key}: {} < {n}",
                s.estimate(key)
            );
        }
    }

    #[test]
    fn the_rule_compares_with_the_parked_victim() {
        let hash = |k: &u32| u64::from(*k);
        let mut sketch = FrequencySketch::with_sample(2, 1_000);
        let mut clock = ClockPolicy::new(2);
        for k in [1u32, 2] {
            sketch.increment(hash(&k));
            assert!(admit_if_warmer(&mut clock, &sketch, &k, hash(&k), hash).is_some());
        }
        // Room is gone. A one-hit wonder ties the once-seen victim.
        sketch.increment(3);
        assert!(admit_if_warmer(&mut clock, &sketch, &3, 3, hash).is_none());
        assert!(!clock.contains(&3) && clock.resident_count() == 2);
        // Seen twice, it out-counts the victim CLOCK parked its hand on,
        // and admit evicts exactly that key.
        let victim = *clock.victim(&3).unwrap();
        sketch.increment(3);
        let out = admit_if_warmer(&mut clock, &sketch, &3, 3, hash).unwrap();
        assert_eq!(out.evicted(), &[victim]);
        assert!(clock.contains(&3));
    }
}
