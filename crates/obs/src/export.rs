//! The per-view telemetry model, [`ViewMetrics`], and its Prometheus
//! rendering.
//!
//! `ViewMetrics` is data only: the JSON document it becomes (and is
//! parsed back from) is written by `pmv_wal::telemetry`, where the
//! `serde_json` shim is already linked. The Prometheus rendering follows
//! the text exposition format: counters as `pmv_<name>_total`,
//! per-phase latencies as summary-style quantile gauges
//! (`quantile="0.5|0.9|0.99"`) plus `_sum`/`_count`/`_max` — rather than
//! 496 `le`-labelled buckets, which would swamp scrapes for no added
//! fidelity beyond the ≤12.5% bucket error.

use crate::hist::HistSnapshot;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

/// Quantiles exported for every phase histogram.
pub const EXPORT_QUANTILES: [(f64, &str); 3] = [(0.5, "0.5"), (0.9, "0.9"), (0.99, "0.99")];

/// One view's exportable telemetry: identity/health plus the counter,
/// gauge, and per-phase histogram series. Built by `SharedPmv::metrics`
/// from `PmvStats`, the circuit breaker and the obs registry, and by
/// `EpochDb::metrics` for the host's `__db` row.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ViewMetrics {
    /// View name — the `view` label.
    pub name: String,
    /// Template the view caches; `None` for a host row such as `__db`.
    pub template: Option<String>,
    /// Breaker state name (`healthy` / `degraded` / `quarantined`).
    pub health: String,
    /// Breaker windowed error rate in `[0, 1]`.
    pub error_rate: f64,
    /// Breaker trip count.
    pub trips: u64,
    /// Milliseconds since the view was last verified consistent
    /// (maintenance or revalidation) — the staleness age.
    pub last_verified_age_ms: u64,
    /// Monotonic counters by name, e.g. from `PmvStats::as_pairs`.
    pub counters: BTreeMap<String, u64>,
    /// Derived gauges by name, e.g. hit probability.
    pub gauges: BTreeMap<String, f64>,
    /// Per-phase latency snapshots (phase name, histogram), in
    /// `Phase::ALL` order.
    pub phases: Vec<(&'static str, HistSnapshot)>,
}

impl ViewMetrics {
    /// Counter `name`, 0 when absent.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Gauge `name`, 0 when absent.
    pub fn gauge(&self, name: &str) -> f64 {
        self.gauges.get(name).copied().unwrap_or(0.0)
    }

    /// Phase histogram `name`, empty when absent.
    pub fn phase(&self, name: &str) -> HistSnapshot {
        self.phases
            .iter()
            .find(|(n, _)| *n == name)
            .map_or_else(HistSnapshot::empty, |(_, h)| h.clone())
    }
}

/// Render a fleet of views in the Prometheus text exposition format.
pub fn to_prometheus(views: &[ViewMetrics]) -> String {
    let mut out = String::with_capacity(4096);

    head(
        &mut out,
        "pmv_view_health",
        "gauge",
        "Breaker health state of each view (1 for the labelled state)",
    );
    for v in views {
        let _ = writeln!(
            out,
            "pmv_view_health{{view=\"{}\",state=\"{}\"}} 1",
            label_esc(&v.name),
            label_esc(&v.health)
        );
    }
    head(
        &mut out,
        "pmv_view_error_rate",
        "gauge",
        "Windowed circuit-breaker error rate per view, in [0, 1]",
    );
    for v in views {
        let _ = writeln!(
            out,
            "pmv_view_error_rate{{view=\"{}\"}} {}",
            label_esc(&v.name),
            fmt_f64(v.error_rate)
        );
    }
    head(
        &mut out,
        "pmv_view_breaker_trips_total",
        "counter",
        "Circuit-breaker trips per view",
    );
    for v in views {
        let _ = writeln!(
            out,
            "pmv_view_breaker_trips_total{{view=\"{}\"}} {}",
            label_esc(&v.name),
            v.trips
        );
    }
    head(
        &mut out,
        "pmv_view_last_verified_age_ms",
        "gauge",
        "Milliseconds since the view was last verified consistent (staleness age)",
    );
    for v in views {
        let _ = writeln!(
            out,
            "pmv_view_last_verified_age_ms{{view=\"{}\"}} {}",
            label_esc(&v.name),
            v.last_verified_age_ms
        );
    }

    // Counters: one HELP/TYPE pair per metric name, then every view's
    // sample.
    let counter_names: BTreeSet<&str> = views
        .iter()
        .flat_map(|v| v.counters.keys().map(String::as_str))
        .collect();
    for name in counter_names {
        let _ = writeln!(
            out,
            "# HELP pmv_{name}_total PMV serving-path counter '{name}' (see DESIGN.md)"
        );
        let _ = writeln!(out, "# TYPE pmv_{name}_total counter");
        for v in views {
            if let Some(value) = v.counters.get(name) {
                let _ = writeln!(
                    out,
                    "pmv_{name}_total{{view=\"{}\"}} {value}",
                    label_esc(&v.name)
                );
            }
        }
    }

    let gauge_names: BTreeSet<&str> = views
        .iter()
        .flat_map(|v| v.gauges.keys().map(String::as_str))
        .collect();
    for name in gauge_names {
        let _ = writeln!(
            out,
            "# HELP pmv_{name} PMV derived gauge '{name}' (see DESIGN.md)"
        );
        let _ = writeln!(out, "# TYPE pmv_{name} gauge");
        for v in views {
            if let Some(&value) = v.gauges.get(name) {
                let _ = writeln!(
                    out,
                    "pmv_{name}{{view=\"{}\"}} {}",
                    label_esc(&v.name),
                    fmt_f64(value)
                );
            }
        }
    }

    // Phase latencies as a summary per (view, phase).
    head(
        &mut out,
        "pmv_phase_latency_seconds",
        "summary",
        "Serving-path phase latency quantiles per view",
    );
    for v in views {
        let view = label_esc(&v.name);
        for (phase, snap) in &v.phases {
            for (q, qlabel) in EXPORT_QUANTILES {
                let _ = writeln!(
                    out,
                    "pmv_phase_latency_seconds{{view=\"{view}\",phase=\"{phase}\",quantile=\"{qlabel}\"}} {}",
                    fmt_f64(snap.quantile(q).as_secs_f64())
                );
            }
            let _ = writeln!(
                out,
                "pmv_phase_latency_seconds_sum{{view=\"{view}\",phase=\"{phase}\"}} {}",
                fmt_f64(snap.sum_ns() as f64 / 1e9)
            );
            let _ = writeln!(
                out,
                "pmv_phase_latency_seconds_count{{view=\"{view}\",phase=\"{phase}\"}} {}",
                snap.count()
            );
        }
    }
    head(
        &mut out,
        "pmv_phase_latency_seconds_max",
        "gauge",
        "Exact maximum phase latency per view",
    );
    for v in views {
        let view = label_esc(&v.name);
        for (phase, snap) in &v.phases {
            let _ = writeln!(
                out,
                "pmv_phase_latency_seconds_max{{view=\"{view}\",phase=\"{phase}\"}} {}",
                fmt_f64(snap.max().as_secs_f64())
            );
        }
    }
    out
}

/// A Prometheus label value: `\`, `"` and newline become two-character
/// escapes — the exact set the text exposition format defines.
fn label_esc(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Emit the `# HELP`/`# TYPE` header pair for one metric family. The
/// exposition format requires HELP before TYPE and both before any
/// sample of the family.
fn head(out: &mut String, family: &str, kind: &str, help: &str) {
    let _ = writeln!(out, "# HELP {family} {help}");
    let _ = writeln!(out, "# TYPE {family} {kind}");
}

/// `f64` rendering that is always valid JSON/Prometheus: finite values
/// via `{}` (Rust's shortest round-trip), non-finite clamped to 0.
fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hist::LatencyHistogram;
    use std::time::Duration;

    fn named<V>(pairs: &[(&str, V)]) -> BTreeMap<String, V>
    where
        V: Copy,
    {
        pairs.iter().map(|&(k, v)| (k.to_string(), v)).collect()
    }

    fn sample() -> Vec<ViewMetrics> {
        let h = LatencyHistogram::new();
        for us in [100u64, 200, 900, 5_000] {
            h.record(Duration::from_micros(us));
        }
        vec![
            ViewMetrics {
                name: "t1".into(),
                health: "healthy".into(),
                last_verified_age_ms: 12,
                counters: named(&[("queries", 4), ("bcp_hit_queries", 3)]),
                gauges: named(&[("hit_probability", 0.75)]),
                phases: vec![("ttfr", h.snapshot()), ("full", HistSnapshot::empty())],
                ..Default::default()
            },
            ViewMetrics {
                name: "t2".into(),
                health: "degraded".into(),
                error_rate: 0.25,
                trips: 1,
                last_verified_age_ms: 9_000,
                counters: named(&[("queries", 8)]),
                ..Default::default()
            },
        ]
    }

    #[test]
    fn prometheus_contains_expected_series() {
        let text = to_prometheus(&sample());
        assert!(text.contains("# TYPE pmv_queries_total counter"), "{text}");
        assert!(text.contains("pmv_queries_total{view=\"t1\"} 4"), "{text}");
        assert!(text.contains("pmv_queries_total{view=\"t2\"} 8"), "{text}");
        assert!(
            text.contains("pmv_view_health{view=\"t2\",state=\"degraded\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("pmv_hit_probability{view=\"t1\"} 0.75"),
            "{text}"
        );
        assert!(
            text.contains(
                "pmv_phase_latency_seconds{view=\"t1\",phase=\"ttfr\",quantile=\"0.99\"}"
            ),
            "{text}"
        );
        assert!(
            text.contains("pmv_phase_latency_seconds_count{view=\"t1\",phase=\"ttfr\"} 4"),
            "{text}"
        );
        assert!(
            text.contains("pmv_view_last_verified_age_ms{view=\"t2\"} 9000"),
            "{text}"
        );
        // Exactly one TYPE line per metric family.
        assert_eq!(text.matches("# TYPE pmv_queries_total").count(), 1);
        // Every non-comment line has a value.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            assert!(line.contains(' '), "malformed line: {line}");
        }
    }

    #[test]
    fn non_finite_gauges_render_as_zero() {
        let mut views = sample();
        views[0].gauges.insert("bad".into(), f64::NAN);
        let text = to_prometheus(&views);
        assert!(text.contains("pmv_bad{view=\"t1\"} 0"), "{text}");
    }
}
