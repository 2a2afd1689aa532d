//! Statistics helpers: percentiles with the "ten samples beyond" rule,
//! median-of-trials, quartile spread, drift, and explained-share
//! arithmetic. Everything here is pure and covered by `cargo test`.

/// Whether a sample of `n` values supports percentile `q`. A tail
/// percentile needs ten samples beyond it, or the figure is one outlier's
/// latency; the median is no outlier's and needs ten samples in all.
pub fn percentile_supported(n: usize, q: f64) -> bool {
    let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as usize).clamp(1, n.max(1));
    if q <= 0.5 {
        n >= 10
    } else {
        n >= rank + 10
    }
}

/// Percentile of an unsorted `u32` latency sample (nanoseconds), sorting
/// in place. `None` when the sample does not support `q`.
pub fn percentile_ns(samples: &mut [u32], q: f64) -> Option<f64> {
    if !percentile_supported(samples.len(), q) {
        return None;
    }
    samples.sort_unstable();
    let n = samples.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    Some(samples[rank - 1] as f64)
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("metrics are never NaN"));
    v
}

/// Median (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let v = sorted(values);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartile, by the "exclusive" method Python's
/// `statistics.quantiles(values, n=4)` uses — the driver's spread is
/// computed with that function, so the harness's own gauge matches it.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return (v[0], v[0]);
    }
    let at = |k: usize| {
        // Position k·(n+1)/4 on a 1-based axis, linearly interpolated
        // between its neighbours (extrapolated at the ends, as Python does).
        let pos = k as f64 * (n as f64 + 1.0) / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    (at(1), at(3))
}

/// Interquartile range as a share of the median (0 when the median is 0).
pub fn iqr_share(values: &[f64]) -> f64 {
    let m = median(values);
    if m == 0.0 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    (q3 - q1) / m.abs()
}

/// Drift across a run: median of the last third of the trials against
/// the median of the first third, in percent. State that grows across
/// trials (a WAL segment, a relation, a sketch) shows here.
pub fn drift_pct(trials: &[f64]) -> f64 {
    let third = trials.len() / 3;
    if third == 0 {
        return 0.0;
    }
    let first = median(&trials[..third]);
    let last = median(&trials[trials.len() - third..]);
    if first == 0.0 {
        return if last == 0.0 { 0.0 } else { 100.0 };
    }
    (last - first) / first.abs() * 100.0
}

/// Share of a wall time that a set of `(unit cost, count)` ladder lines
/// explains: Σ(cost × count) ÷ wall. Costs and wall share one unit.
pub fn explained_share(lines: &[(f64, f64)], wall: f64) -> f64 {
    if wall <= 0.0 {
        return 0.0;
    }
    lines.iter().map(|(cost, count)| cost * count).sum::<f64>() / wall
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ten_samples_beyond_rule() {
        // p99 of 1000 samples is rank 990: exactly ten beyond.
        assert!(percentile_supported(1000, 0.99));
        assert!(!percentile_supported(999, 0.99));
        assert!(percentile_supported(10, 0.5));
        assert!(!percentile_supported(9, 0.5));
        let mut few = vec![5u32; 500];
        assert_eq!(percentile_ns(&mut few, 0.99), None);
        let mut many: Vec<u32> = (1..=2000).rev().collect();
        assert_eq!(percentile_ns(&mut many, 0.99), Some(1980.0));
        assert_eq!(percentile_ns(&mut many, 0.5), Some(1000.0));
    }

    #[test]
    fn median_of_trials() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        // One disturbed trial does not move the run value.
        assert_eq!(median(&[10.0, 10.0, 10.0, 10.0, 90.0]), 10.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let (q1, q3) = quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]);
        assert!((q1 - 1.5).abs() < 1e-12 && (q3 - 12.0).abs() < 1e-12);
        assert!((iqr_share(&[16.0, 1.0, 8.0, 2.0, 4.0]) - 10.5 / 4.0).abs() < 1e-12);
    }

    #[test]
    fn drift_compares_last_third_with_first_third() {
        let flat = [5.0; 9];
        assert_eq!(drift_pct(&flat), 0.0);
        let growing = [10.0, 10.0, 10.0, 11.0, 11.0, 11.0, 12.0, 12.0, 12.0];
        assert!((drift_pct(&growing) - 20.0).abs() < 1e-12);
        assert_eq!(drift_pct(&[1.0, 2.0]), 0.0);
    }

    #[test]
    fn explained_share_is_cost_times_count_over_wall() {
        let lines = [(2.0, 10.0), (0.5, 40.0)];
        assert!((explained_share(&lines, 80.0) - 0.5).abs() < 1e-12);
        assert_eq!(explained_share(&lines, 0.0), 0.0);
    }
}
