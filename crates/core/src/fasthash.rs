//! Multiply-fold hasher for the serving path's hot hash maps.
//!
//! The profiled `o3_dedup` hot spot was dominated not by the dedup
//! algorithm but by SipHash-1-3: every O3 result tuple was hashed twice
//! (DS probe + per-bcp counter map), and `Value`-heavy keys made each
//! hash a long byte-wise SipHash round. This hasher is the familiar
//! Fx/rustc scheme — fold every machine word into the state with a
//! rotate + xor + odd-constant multiply — which is several times faster
//! on short keys and has more than adequate distribution for in-process
//! tables. It is **not** DoS-resistant; use it only for maps whose keys
//! come from inside the engine (tuples, bcp keys, projection keys),
//! never for attacker-controlled strings.

use std::hash::{BuildHasherDefault, Hasher};

/// 64-bit odd multiplier (golden-ratio derived, same constant family as
/// rustc-hash).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The state-folding hasher. One `u64` of state; each word of input
/// costs a rotate, xor, and multiply.
#[derive(Clone, Copy, Debug, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add_to_hash(u64::from_le_bytes(chunk.try_into().unwrap()));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            self.add_to_hash(u64::from_le_bytes(tail) | ((rest.len() as u64) << 56));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        // One final avalanche so low-entropy states still spread across
        // HashMap's bucket-index bits.
        let h = self.hash;
        h ^ (h >> 32)
    }
}

/// `BuildHasher` plugging [`FxHasher`] into `HashMap`/`HashSet`.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// One 64-bit hash of a byte string, read in two (possibly overlapping)
/// words, no copy: a key of at most 16 bytes — a T1 bcp key is 3–5 —
/// takes one folded multiply, a longer one one per 16 bytes more. The
/// fold (the 128-bit product's halves xor-ed, as in foldhash) leaves
/// every output bit depending on every input bit, so any bit range of
/// the result can pick a bucket: a view picks its shard from the low
/// half and its chunk from the high bits.
#[inline]
pub(crate) fn hash_bytes(bytes: &[u8]) -> u64 {
    let n = bytes.len();
    let word = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"));
    let half = |at: usize| {
        u64::from(u32::from_le_bytes(
            bytes[at..at + 4].try_into().expect("4 bytes"),
        ))
    };
    let mut state = SEED ^ n as u64;
    let (a, b) = match n {
        0 => (0, 0),
        1..=3 => (
            u64::from(bytes[0]) | u64::from(bytes[n / 2]) << 8,
            u64::from(bytes[n - 1]),
        ),
        4..=7 => (half(0), half(n - 4)),
        8..=16 => (word(0), word(n - 8)),
        _ => {
            let mut at = 0;
            while n - at > 16 {
                state = fold(word(at) ^ state, word(at + 8) ^ MIX);
                at += 16;
            }
            (word(n - 16), word(n - 8))
        }
    };
    fold(a ^ state, b ^ MIX)
}

/// Second multiplier of [`hash_bytes`] (the 64-bit golden ratio).
const MIX: u64 = 0x9e37_79b9_7f4a_7c15;

/// The 128-bit product of `x` and `y`, its halves xor-ed.
#[inline]
fn fold(x: u64, y: u64) -> u64 {
    let p = u128::from(x) * u128::from(y);
    (p as u64) ^ ((p >> 64) as u64)
}

/// `HashMap` keyed by the fast hasher.
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

/// `HashSet` keyed by the fast hasher.
pub type FxHashSet<T> = std::collections::HashSet<T, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash + ?Sized>(v: &T) -> u64 {
        FxBuildHasher::default().hash_one(v)
    }

    #[test]
    fn equal_values_hash_equal_and_nearby_differ() {
        assert_eq!(hash_of(&42u64), hash_of(&42u64));
        assert_ne!(hash_of(&42u64), hash_of(&43u64));
        assert_eq!(hash_of(&"abc"), hash_of(&"abc"));
        assert_ne!(hash_of(&"abc"), hash_of(&"abd"));
        // Length must matter even when the padded prefix matches.
        assert_ne!(hash_of(&[1u8, 0, 0][..]), hash_of(&[1u8, 0][..]));
    }

    #[test]
    fn distribution_is_usable_for_bucketing() {
        // 10k sequential keys into 64 buckets — no bucket should hold
        // more than 4x its fair share under any reasonable mixing.
        let mut buckets = [0u32; 64];
        for i in 0..10_000u64 {
            buckets[(hash_of(&i) % 64) as usize] += 1;
        }
        let max = *buckets.iter().max().unwrap();
        assert!(max < 4 * (10_000 / 64), "skewed buckets: max={max}");
    }

    #[test]
    fn byte_hashes_see_every_byte_and_the_length() {
        let mut seen = std::collections::HashSet::new();
        // Every length from 0 to 40, and every one-byte change of it.
        for n in 0..=40usize {
            let base: Vec<u8> = (0..n as u8).collect();
            assert!(seen.insert(hash_bytes(&base)), "length {n}");
            for at in 0..n {
                let mut changed = base.clone();
                changed[at] ^= 0x80;
                assert!(seen.insert(hash_bytes(&changed)), "byte {at} of {n}");
            }
        }
        assert_ne!(hash_bytes(&[0]), hash_bytes(&[0, 0]));
    }

    #[test]
    fn map_and_set_aliases_behave() {
        let mut m: FxHashMap<String, u32> = FxHashMap::default();
        m.insert("k".into(), 7);
        assert_eq!(m.get("k"), Some(&7));
        let mut s: FxHashSet<u64> = FxHashSet::default();
        assert!(s.insert(9));
        assert!(!s.insert(9));
    }
}
