//! Lock-free log-bucketed latency histograms.
//!
//! The paper's headline numbers are latency *distributions* — partial
//! results "within ~1 ms" (Section 5) — so cumulative counters are not
//! enough: the serving path needs p50/p90/p99/max per phase without
//! taking a lock per query. [`LatencyHistogram`] is an HDR-lite design:
//!
//! * Values are recorded in **nanoseconds** into one of [`BUCKETS`]
//!   log-spaced buckets with 3 sub-bucket bits, so every bucket's width
//!   is ≤ 1/8 of its lower bound — quantile estimates carry at most
//!   ~12.5% relative error, far below run-to-run noise.
//! * Each bucket is a plain `AtomicU64` bumped with one relaxed
//!   `fetch_add`. All atomics in this module are statistics, not
//!   synchronization: no reader derives a happens-before edge from them,
//!   a snapshot taken while writers are active may mix adjacent updates,
//!   and totals are exact once writers quiesce (the same contract as
//!   `pmv_core::stats::AtomicPmvStats`).
//! * [`HistSnapshot`] is the plain (non-atomic) image: mergeable by
//!   bucket-wise addition — which is exactly associative and commutative,
//!   so per-thread histograms fold into one — with
//!   nearest-rank quantiles read off the bucket upper bounds.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Number of buckets: 8 exact buckets for values 0..8 ns, then 8
/// sub-buckets per power of two up to `u64::MAX` (61 octaves × 8).
pub const BUCKETS: usize = 496;

/// Bucket index for a nanosecond value. Total order preserving: larger
/// values never map to smaller indices.
#[inline]
pub fn bucket_of(ns: u64) -> usize {
    if ns < 8 {
        return ns as usize;
    }
    let msb = 63 - ns.leading_zeros() as usize; // ≥ 3
    let exp = msb - 3;
    let sub = ((ns >> exp) & 7) as usize;
    exp * 8 + 8 + sub
}

/// Inclusive `[lo, hi]` nanosecond range covered by bucket `i`.
pub fn bucket_bounds(i: usize) -> (u64, u64) {
    assert!(i < BUCKETS, "bucket index {i} out of range");
    if i < 8 {
        return (i as u64, i as u64);
    }
    let exp = (i - 8) / 8;
    let sub = ((i - 8) % 8) as u64;
    let lo = (8 + sub) << exp;
    let hi = lo + ((1u64 << exp) - 1); // grouped: lo + 2^exp overflows in the top bucket
    (lo, hi)
}

/// A concurrent latency histogram. Recording is wait-free (two relaxed
/// `fetch_add`s and a `fetch_max`); reading takes a [`HistSnapshot`].
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; BUCKETS],
    sum_ns: AtomicU64,
    max_ns: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram::new()
    }
}

impl LatencyHistogram {
    /// Fresh empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum_ns: AtomicU64::new(0),
            max_ns: AtomicU64::new(0),
        }
    }

    /// Record one duration.
    #[inline]
    pub fn record(&self, d: Duration) {
        self.record_ns(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Record one raw nanosecond value (tests and oracles).
    #[inline]
    pub fn record_ns(&self, ns: u64) {
        self.buckets[bucket_of(ns)].fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
        self.max_ns.fetch_max(ns, Ordering::Relaxed);
    }

    /// Point-in-time plain copy. A snapshot taken while writers are
    /// active may mix adjacent updates (see module docs).
    pub fn snapshot(&self) -> HistSnapshot {
        HistSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            sum_ns: self.sum_ns.load(Ordering::Relaxed),
            max_ns: self.max_ns.load(Ordering::Relaxed),
        }
    }

    /// Zero every bucket (e.g. after a warm-up phase or a completed
    /// revalidation sweep for `[transient]`-tagged histograms).
    pub fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.sum_ns.store(0, Ordering::Relaxed);
        self.max_ns.store(0, Ordering::Relaxed);
    }
}

/// Plain, mergeable image of a [`LatencyHistogram`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistSnapshot {
    buckets: [u64; BUCKETS],
    sum_ns: u64,
    max_ns: u64,
}

impl Default for HistSnapshot {
    fn default() -> Self {
        HistSnapshot::empty()
    }
}

impl HistSnapshot {
    /// The zero histogram (merge identity).
    pub fn empty() -> Self {
        HistSnapshot {
            buckets: [0; BUCKETS],
            sum_ns: 0,
            max_ns: 0,
        }
    }

    /// Total recorded values.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Sum of recorded values, in nanoseconds (saturating).
    pub fn sum_ns(&self) -> u64 {
        self.sum_ns
    }

    /// Largest recorded value, exactly.
    pub fn max(&self) -> Duration {
        Duration::from_nanos(self.max_ns)
    }

    /// Mean of recorded values ([`Duration::ZERO`] when empty).
    pub fn mean(&self) -> Duration {
        match self.sum_ns.checked_div(self.count()) {
            Some(ns) => Duration::from_nanos(ns),
            None => Duration::ZERO,
        }
    }

    /// Nearest-rank quantile estimate for `q ∈ [0, 1]`: the upper bound
    /// of the bucket holding the ⌈q·count⌉-th smallest value (capped at
    /// the exact max), hence within one bucket (≤ ~12.5% relative) of
    /// the true order statistic. Returns [`Duration::ZERO`] when empty.
    pub fn quantile(&self, q: f64) -> Duration {
        let n = self.count();
        if n == 0 {
            return Duration::ZERO;
        }
        let target = ((q.clamp(0.0, 1.0) * n as f64).ceil() as u64).clamp(1, n);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                let (_, hi) = bucket_bounds(i);
                return Duration::from_nanos(hi.min(self.max_ns));
            }
        }
        self.max()
    }

    /// Fold another snapshot into this one: bucket-wise addition, which
    /// is exactly associative and commutative (same result as recording
    /// the union of values into one histogram).
    pub fn merge(&mut self, other: &HistSnapshot) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.sum_ns = self.sum_ns.saturating_add(other.sum_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
    }

    /// Bucket counts (diagnostics/tests).
    pub fn buckets(&self) -> &[u64; BUCKETS] {
        &self.buckets
    }

    /// Rebuild a snapshot from its non-zero `(bucket, count)` pairs and
    /// exact sum and max — the inverse of reading [`Self::buckets`],
    /// [`Self::sum_ns`] and [`Self::max`]. `None` when a bucket index is
    /// out of range.
    pub fn from_buckets(
        counts: impl IntoIterator<Item = (usize, u64)>,
        sum_ns: u64,
        max_ns: u64,
    ) -> Option<HistSnapshot> {
        let mut snap = HistSnapshot {
            sum_ns,
            max_ns,
            ..HistSnapshot::empty()
        };
        for (i, n) in counts {
            let bucket = snap.buckets.get_mut(i)?;
            *bucket = bucket.saturating_add(n);
        }
        Some(snap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_math_is_monotone_and_self_consistent() {
        // Every bucket's bounds invert its own index, and boundaries are
        // seamless: hi(i) + 1 == lo(i + 1).
        for i in 0..BUCKETS {
            let (lo, hi) = bucket_bounds(i);
            assert!(lo <= hi);
            assert_eq!(bucket_of(lo), i, "lo of bucket {i}");
            assert_eq!(bucket_of(hi), i, "hi of bucket {i}");
            if i + 1 < BUCKETS {
                assert_eq!(bucket_bounds(i + 1).0, hi.wrapping_add(1));
            }
        }
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(7), 7);
        assert_eq!(bucket_of(8), 8);
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn relative_error_bounded_by_one_eighth() {
        for ns in [8u64, 100, 1_000, 123_456, 10u64.pow(9), u64::MAX / 2] {
            let (lo, hi) = bucket_bounds(bucket_of(ns));
            assert!((hi - lo) as f64 <= lo as f64 / 8.0 + 1.0, "ns={ns}");
        }
    }

    #[test]
    fn quantiles_mean_max_on_known_data() {
        let h = LatencyHistogram::new();
        for us in 1..=100u64 {
            h.record(Duration::from_micros(us));
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 100);
        assert_eq!(s.max(), Duration::from_micros(100));
        // Exact p50 is 50 µs; the estimate is within one bucket.
        let p50 = s.quantile(0.5).as_nanos() as f64;
        assert!((43_000.0..=57_000.0).contains(&p50), "p50={p50}");
        let mean = s.mean().as_nanos();
        assert_eq!(mean, 50_500);
        // p100 equals the exact max (capped).
        assert_eq!(s.quantile(1.0), Duration::from_micros(100));
        assert_eq!(s.quantile(0.0), s.quantile(1e-9));
    }

    #[test]
    fn empty_snapshot_is_all_zero() {
        let s = HistSnapshot::empty();
        assert_eq!(s.count(), 0);
        assert_eq!(s.quantile(0.99), Duration::ZERO);
        assert_eq!(s.mean(), Duration::ZERO);
        assert_eq!(s.max(), Duration::ZERO);
    }

    #[test]
    fn merge_matches_union_recording() {
        let a = LatencyHistogram::new();
        let b = LatencyHistogram::new();
        let u = LatencyHistogram::new();
        for v in [3u64, 900, 42_000, 7_000_000] {
            a.record_ns(v);
            u.record_ns(v);
        }
        for v in [1u64, 900, 1_000_000_000] {
            b.record_ns(v);
            u.record_ns(v);
        }
        let mut m = a.snapshot();
        m.merge(&b.snapshot());
        assert_eq!(m, u.snapshot());
    }

    #[test]
    fn concurrent_records_sum_exactly() {
        let h = std::sync::Arc::new(LatencyHistogram::new());
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let h = std::sync::Arc::clone(&h);
            handles.push(std::thread::spawn(move || {
                for i in 0..1000 {
                    h.record_ns(t * 1_000 + i);
                }
            }));
        }
        for j in handles {
            j.join().unwrap();
        }
        assert_eq!(h.snapshot().count(), 8_000);
    }
}
