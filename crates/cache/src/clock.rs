//! The CLOCK (second-chance) replacement policy, the paper's default for
//! managing basic condition parts (Section 3.2, citing \[29\]).

use std::collections::HashMap;
use std::fmt::Debug;
use std::hash::Hash;

use crate::{AdmitOutcome, ReplacementPolicy};

/// One clock frame.
struct Frame<K> {
    key: K,
    referenced: bool,
}

/// CLOCK over a fixed ring of frames.
pub struct ClockPolicy<K> {
    frames: Vec<Frame<K>>,
    /// key → frame position.
    map: HashMap<K, usize>,
    hand: usize,
    capacity: usize,
}

impl<K: Clone + Eq + Hash + Debug> ClockPolicy<K> {
    /// CLOCK with `capacity` frames.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "CLOCK capacity must be positive");
        ClockPolicy {
            frames: Vec::with_capacity(capacity),
            map: HashMap::with_capacity(capacity),
            hand: 0,
            capacity,
        }
    }

    /// Advance the hand until it rests on a victim (referenced ==
    /// false), clearing reference bits on the way. The hand stays parked
    /// there; returns its position.
    fn park_on_victim(&mut self) -> usize {
        loop {
            let frame = &mut self.frames[self.hand];
            if !frame.referenced {
                return self.hand;
            }
            frame.referenced = false;
            self.hand = (self.hand + 1) % self.frames.len();
        }
    }
}

impl<K: Clone + Eq + Hash + Debug> ReplacementPolicy<K> for ClockPolicy<K> {
    fn contains(&self, key: &K) -> bool {
        self.map.contains_key(key)
    }

    fn touch(&mut self, key: &K) {
        if let Some(&pos) = self.map.get(key) {
            self.frames[pos].referenced = true;
        }
    }

    fn admit(&mut self, key: K) -> AdmitOutcome<K> {
        if let Some(&pos) = self.map.get(&key) {
            self.frames[pos].referenced = true;
            return AdmitOutcome::Resident { evicted: vec![] };
        }
        if self.frames.len() < self.capacity {
            self.map.insert(key.clone(), self.frames.len());
            self.frames.push(Frame {
                key,
                referenced: true,
            });
            return AdmitOutcome::Resident { evicted: vec![] };
        }
        let pos = self.park_on_victim();
        self.hand = (pos + 1) % self.frames.len();
        let victim = std::mem::replace(
            &mut self.frames[pos],
            Frame {
                key: key.clone(),
                referenced: true,
            },
        );
        self.map.remove(&victim.key);
        self.map.insert(key, pos);
        AdmitOutcome::Resident {
            evicted: vec![victim.key],
        }
    }

    fn victim(&mut self, candidate: &K) -> Option<&K> {
        if self.frames.len() < self.capacity || self.map.contains_key(candidate) {
            return None;
        }
        let pos = self.park_on_victim();
        Some(&self.frames[pos].key)
    }

    fn remove(&mut self, key: &K) {
        if let Some(pos) = self.map.remove(key) {
            // Swap-remove the frame, fixing the moved frame's map entry.
            let last = self.frames.len() - 1;
            self.frames.swap(pos, last);
            self.frames.pop();
            if pos < self.frames.len() {
                let moved_key = self.frames[pos].key.clone();
                self.map.insert(moved_key, pos);
            }
            // Hand repair. Only `hand == last` needs it: positions below
            // `last` still hold the same frames. If the hand pointed at
            // the frame that was swapped down into `pos`, it must follow
            // it there (resetting to 0 — the seed's `hand %= len` — lets
            // the hand skip unvisited frames and re-sweep ones that
            // already spent their second chance). If the hand pointed at
            // the removed frame itself (`pos == last`, no swap), the
            // next frame in ring order is index 0.
            if self.hand >= self.frames.len() {
                self.hand = if pos < self.frames.len() { pos } else { 0 };
            }
        }
    }

    fn resident_count(&self) -> usize {
        self.frames.len()
    }

    fn capacity(&self) -> usize {
        self.capacity
    }

    fn resident_keys(&self) -> Vec<K> {
        self.frames.iter().map(|f| f.key.clone()).collect()
    }

    fn name(&self) -> &'static str {
        "CLOCK"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fills_to_capacity_without_eviction() {
        let mut c = ClockPolicy::new(3);
        for k in 0..3u32 {
            let out = c.admit(k);
            assert_eq!(out, AdmitOutcome::Resident { evicted: vec![] });
        }
        assert_eq!(c.resident_count(), 3);
        assert!(c.contains(&0) && c.contains(&1) && c.contains(&2));
    }

    #[test]
    fn evicts_unreferenced_first() {
        let mut c = ClockPolicy::new(3);
        c.admit(0u32);
        c.admit(1);
        c.admit(2);
        // All have ref bits set from admission; first sweep clears them,
        // second pass evicts frame 0.
        let out = c.admit(3);
        assert_eq!(out.evicted(), &[0]);
        assert!(c.contains(&3) && !c.contains(&0));
    }

    #[test]
    fn touch_grants_second_chance() {
        let mut c = ClockPolicy::new(3);
        c.admit(0u32);
        c.admit(1);
        c.admit(2);
        c.admit(3); // evicts 0; hand now past frame 0, bits of 1,2 cleared
        c.touch(&1); // re-reference 1
        let out = c.admit(4);
        // Victim search starts at frame 1 (key 1): referenced → spared;
        // frame 2 (key 2): clear → evicted.
        assert_eq!(out.evicted(), &[2]);
        assert!(c.contains(&1));
    }

    #[test]
    fn re_admitting_resident_is_noop() {
        let mut c = ClockPolicy::new(2);
        c.admit(0u32);
        c.admit(1);
        let out = c.admit(0);
        assert_eq!(out, AdmitOutcome::Resident { evicted: vec![] });
        assert_eq!(c.resident_count(), 2);
    }

    #[test]
    fn remove_frees_a_slot() {
        let mut c = ClockPolicy::new(2);
        c.admit(0u32);
        c.admit(1);
        c.remove(&0);
        assert_eq!(c.resident_count(), 1);
        let out = c.admit(2);
        assert_eq!(out.evicted(), &[] as &[u32]);
        assert!(c.contains(&1) && c.contains(&2));
    }

    #[test]
    fn remove_fixes_map_after_swap() {
        let mut c = ClockPolicy::new(3);
        c.admit(0u32);
        c.admit(1);
        c.admit(2);
        c.remove(&0); // frame 2 (key 2) swaps into slot 0
        assert!(c.contains(&2));
        c.touch(&2); // must touch the right frame
        c.admit(3);
        assert_eq!(c.resident_count(), 3);
    }

    #[test]
    fn remove_hand_follows_swapped_frame() {
        let mut c = ClockPolicy::new(3);
        c.admit(0u32);
        c.admit(1);
        c.admit(2);
        assert_eq!(c.admit(3).evicted(), &[0]); // frames [3,1,2], hand=1
        assert_eq!(c.admit(4).evicted(), &[1]); // frames [3,4,2], hand=2
        c.touch(&2);
        // Swap-remove moves key 2 into slot 1; the hand (on slot 2, the
        // old last) must follow it there. The seed's `hand %= len` reset
        // it to slot 0, which made the next sweep spend 3's second
        // chance out of turn and evict 3 instead of 2.
        c.remove(&4);
        // Refills the freed slot, no eviction.
        assert_eq!(c.admit(5).evicted(), &[] as &[u32]);
        // Sweep order from the followed hand: 2, 5, 3, then 2 again →
        // victim 2. (With the seed's reset hand the sweep started at 3
        // and evicted it instead.)
        assert_eq!(c.admit(6).evicted(), &[2]);
        assert!(c.contains(&3) && c.contains(&5) && c.contains(&6));
    }

    #[test]
    fn eviction_cycle_visits_everyone() {
        let mut c = ClockPolicy::new(4);
        for k in 0..4u32 {
            c.admit(k);
        }
        let mut evicted = Vec::new();
        for k in 4..12u32 {
            evicted.extend(c.admit(k).evicted().to_vec());
        }
        assert_eq!(evicted.len(), 8);
        assert_eq!(c.resident_count(), 4);
        // The four most recent should be resident.
        for k in 8..12u32 {
            assert!(c.contains(&k), "key {k} should be resident");
        }
    }

    #[test]
    fn victim_names_what_admit_evicts() {
        let mut c = ClockPolicy::new(3);
        for k in 0..3u32 {
            assert_eq!(c.victim(&k), None, "room left");
            c.admit(k);
        }
        assert_eq!(c.victim(&0), None, "resident");
        c.admit(3); // evicts 0, hand on frame 1; bits of 1, 2 cleared
        c.touch(&1);
        // Asking twice parks the hand once: the same answer, and admit
        // evicts exactly that key.
        assert_eq!(c.victim(&4), Some(&2));
        assert_eq!(c.victim(&4), Some(&2));
        assert_eq!(c.admit(4).evicted(), &[2]);
        // Asking and then admitting evicts what admitting alone would
        // have: the same sweep, split in two.
        let mut plain = ClockPolicy::new(3);
        let mut asked = ClockPolicy::new(3);
        for k in [0u32, 1, 2, 3, 4, 5, 6] {
            plain.touch(&(k / 2));
            asked.touch(&(k / 2));
            asked.victim(&k);
            assert_eq!(plain.admit(k), asked.admit(k), "key {k}");
        }
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        ClockPolicy::<u32>::new(0);
    }
}
