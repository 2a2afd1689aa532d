//! Export layer: Prometheus text format and JSON snapshots.
//!
//! The serde_json shim has no serializer derive, so JSON is hand-rolled;
//! every string goes through [`json_escape`], here and in the other
//! crates' renderers (`VerifyReport::to_json`, the SARIF writer). The
//! Prometheus rendering follows the text exposition format: counters as
//! `pmv_<name>_total`, per-phase latencies as summary-style quantile
//! gauges (`quantile="0.5|0.9|0.99"`) plus `_sum`/`_count`/`_max` —
//! rather than 496 `le`-labelled buckets, which would swamp scrapes for
//! no added fidelity beyond the ≤12.5% bucket error.

use crate::hist::HistSnapshot;
use std::fmt::Write as _;

/// Quantiles exported for every phase histogram.
pub const EXPORT_QUANTILES: [(f64, &str); 3] = [(0.5, "0.5"), (0.9, "0.9"), (0.99, "0.99")];

/// One view's exportable telemetry: identity/health plus the counter,
/// gauge, and per-phase histogram series. Built by `PmvManager` (or the
/// CLI) from `PmvStats`, the circuit breaker, and the obs registry.
#[derive(Clone, Debug)]
pub struct ViewMetrics {
    /// View (template) name — the `view` label.
    pub name: String,
    /// Breaker state name (`healthy` / `degraded` / `quarantined`).
    pub health: String,
    /// Breaker windowed error rate in `[0, 1]`.
    pub error_rate: f64,
    /// Breaker trip count.
    pub trips: u64,
    /// Milliseconds since the view was last verified consistent
    /// (maintenance or revalidation) — the staleness age.
    pub last_verified_age_ms: u64,
    /// Monotonic counters (name, value), e.g. from `PmvStats::as_pairs`.
    pub counters: Vec<(&'static str, u64)>,
    /// Derived gauges (name, value), e.g. hit probability.
    pub gauges: Vec<(&'static str, f64)>,
    /// Per-phase latency snapshots (phase name, histogram).
    pub phases: Vec<(&'static str, HistSnapshot)>,
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
    let mut counter_names: Vec<&'static str> = Vec::new();
    for v in views {
        for &(name, _) in &v.counters {
            if !counter_names.contains(&name) {
                counter_names.push(name);
            }
        }
    }
    for name in counter_names {
        let _ = writeln!(
            out,
            "# HELP pmv_{name}_total PMV serving-path counter '{name}' (see DESIGN.md)"
        );
        let _ = writeln!(out, "# TYPE pmv_{name}_total counter");
        for v in views {
            if let Some(&(_, value)) = v.counters.iter().find(|(n, _)| *n == name) {
                let _ = writeln!(
                    out,
                    "pmv_{name}_total{{view=\"{}\"}} {value}",
                    label_esc(&v.name)
                );
            }
        }
    }

    let mut gauge_names: Vec<&'static str> = Vec::new();
    for v in views {
        for &(name, _) in &v.gauges {
            if !gauge_names.contains(&name) {
                gauge_names.push(name);
            }
        }
    }
    for name in gauge_names {
        let _ = writeln!(
            out,
            "# HELP pmv_{name} PMV derived gauge '{name}' (see DESIGN.md)"
        );
        let _ = writeln!(out, "# TYPE pmv_{name} gauge");
        for v in views {
            if let Some(&(_, value)) = v.gauges.iter().find(|(n, _)| *n == name) {
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

/// Render a fleet of views as one JSON document:
/// `{"views":[{...,"phases":{"ttfr":{"count":..,"p50_us":..},..}},..]}`.
pub fn to_json(views: &[ViewMetrics]) -> String {
    let mut out = String::with_capacity(2048);
    out.push_str("{\"views\":[");
    for (i, v) in views.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"health\":\"{}\",\"error_rate\":{},\"trips\":{},\
             \"last_verified_age_ms\":{}",
            json_escape(&v.name),
            json_escape(&v.health),
            fmt_f64(v.error_rate),
            v.trips,
            v.last_verified_age_ms
        );
        out.push_str(",\"counters\":{");
        for (j, (name, value)) in v.counters.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{name}\":{value}");
        }
        out.push_str("},\"gauges\":{");
        for (j, (name, value)) in v.gauges.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{name}\":{}", fmt_f64(*value));
        }
        out.push_str("},\"phases\":{");
        for (j, (phase, snap)) in v.phases.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{phase}\":{}", phase_json(snap));
        }
        out.push_str("}}");
    }
    out.push_str("]}");
    out
}

/// One phase histogram as a JSON object with microsecond percentiles.
pub fn phase_json(snap: &HistSnapshot) -> String {
    format!(
        "{{\"count\":{},\"sum_us\":{},\"p50_us\":{},\"p90_us\":{},\"p99_us\":{},\"max_us\":{}}}",
        snap.count(),
        snap.sum_ns() / 1_000,
        snap.quantile(0.5).as_micros(),
        snap.quantile(0.9).as_micros(),
        snap.quantile(0.99).as_micros(),
        snap.max().as_micros()
    )
}

/// The body of a JSON string literal (RFC 8259 §7): `"` and `\` get
/// their two-character escapes, every control character below 0x20 its
/// short escape or `\u00XX` — the one escaper every hand-rolled JSON
/// renderer in the workspace goes through.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
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

    fn sample() -> Vec<ViewMetrics> {
        let h = LatencyHistogram::new();
        for us in [100u64, 200, 900, 5_000] {
            h.record(Duration::from_micros(us));
        }
        vec![
            ViewMetrics {
                name: "t1".into(),
                health: "healthy".into(),
                error_rate: 0.0,
                trips: 0,
                last_verified_age_ms: 12,
                counters: vec![("queries", 4), ("bcp_hit_queries", 3)],
                gauges: vec![("hit_probability", 0.75)],
                phases: vec![("ttfr", h.snapshot()), ("full", HistSnapshot::empty())],
            },
            ViewMetrics {
                name: "t2".into(),
                health: "degraded".into(),
                error_rate: 0.25,
                trips: 1,
                last_verified_age_ms: 9_000,
                counters: vec![("queries", 8)],
                gauges: vec![],
                phases: vec![],
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
    fn json_is_balanced_and_complete() {
        let j = to_json(&sample());
        assert!(j.starts_with("{\"views\":["), "{j}");
        assert!(j.contains("\"name\":\"t1\""), "{j}");
        assert!(j.contains("\"counters\":{\"queries\":4"), "{j}");
        assert!(j.contains("\"p99_us\""), "{j}");
        assert!(j.contains("\"health\":\"degraded\""), "{j}");
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
    }

    #[test]
    fn empty_phase_exports_zeroes() {
        let p = phase_json(&HistSnapshot::empty());
        assert_eq!(
            p,
            "{\"count\":0,\"sum_us\":0,\"p50_us\":0,\"p90_us\":0,\"p99_us\":0,\"max_us\":0}"
        );
    }

    #[test]
    fn non_finite_gauges_render_as_zero() {
        let mut views = sample();
        views[0].gauges.push(("bad", f64::NAN));
        let text = to_prometheus(&views);
        assert!(text.contains("pmv_bad{view=\"t1\"} 0"), "{text}");
    }
}
