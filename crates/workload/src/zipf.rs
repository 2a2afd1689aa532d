//! Zipfian sampling over ranks `0..n`.
//!
//! The paper's simulation draws each basic condition part from a Zipfian
//! distribution with parameter α: `e_i ∝ 1 / i^α` (Section 4.1). We
//! precompute the cumulative distribution once and sample by binary
//! search, so a draw is O(log n) with no floating-point accumulation
//! drift during sampling.

use rand::Rng;

/// A Zipfian distribution over `n` ranks (rank 0 is the hottest).
#[derive(Clone, Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Build for `n` items with skew `alpha` (> 0).
    pub fn new(n: usize, alpha: f64) -> Self {
        assert!(n > 0, "Zipf needs at least one item");
        assert!(alpha > 0.0, "alpha must be positive");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0f64;
        for i in 1..=n {
            acc += 1.0 / (i as f64).powf(alpha);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        // Guard against rounding: the last entry must be exactly 1.
        *cdf.last_mut().expect("non-empty") = 1.0;
        Zipf { cdf }
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// True if there are no ranks (impossible by construction).
    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }

    /// Probability mass of rank `i`.
    pub fn pmf(&self, i: usize) -> f64 {
        if i == 0 {
            self.cdf[0]
        } else {
            self.cdf[i] - self.cdf[i - 1]
        }
    }

    /// Draw a rank.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn pmf_sums_to_one() {
        let z = Zipf::new(1000, 1.07);
        let total: f64 = (0..1000).map(|i| z.pmf(i)).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn rank_zero_is_hottest() {
        let z = Zipf::new(100, 1.0);
        assert!(z.pmf(0) > z.pmf(1));
        assert!(z.pmf(1) > z.pmf(50));
    }

    #[test]
    fn sampling_respects_skew() {
        let z = Zipf::new(1000, 1.07);
        let mut rng = StdRng::seed_from_u64(42);
        let mut counts = vec![0usize; 1000];
        for _ in 0..200_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        // Rank 0 must be sampled far more often than rank 500.
        assert!(counts[0] > counts[500] * 10);
        // Empirical frequency of rank 0 within 10% of its pmf.
        let emp = counts[0] as f64 / 200_000.0;
        assert!((emp - z.pmf(0)).abs() / z.pmf(0) < 0.1);
    }

    #[test]
    fn skew_concentration_matches_paper_narrative() {
        // Paper: α = 1.07 → ~10% of 1M bcps get 90% of accesses;
        // α = 1.01 → ~21%. Verify the direction and rough magnitude on
        // a smaller universe (exact fractions depend on n).
        let hi = Zipf::new(100_000, 1.07);
        let lo = Zipf::new(100_000, 1.01);
        // Smallest number of top ranks holding 90% of the mass.
        let frac = |z: &Zipf| (z.cdf.partition_point(|&c| c < 0.9) + 1) as f64 / 100_000.0;
        let (hi_frac, lo_frac) = (frac(&hi), frac(&lo));
        assert!(hi_frac < lo_frac, "higher skew concentrates more");
        assert!(hi_frac < 0.35, "got {hi_frac}");
    }

    #[test]
    fn sample_always_in_range() {
        let z = Zipf::new(10, 2.0);
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..10_000 {
            assert!(z.sample(&mut rng) < 10);
        }
    }
}
