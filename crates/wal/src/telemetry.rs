//! The one JSON writer and reader for telemetry documents.
//!
//! A per-view document is one [`ViewMetrics`] as a JSON object. It is
//! both an element of the `views` array that `metrics --format json`
//! prints ([`metrics_json`]) and the `metrics` member of a flight dump
//! ([`dump_json`]); [`view_from_json`] parses it back. Each phase object
//! carries its non-zero buckets and exact `sum_ns` / `max_ns` next to the
//! readable microsecond percentiles, so it parses back to the identical
//! `HistSnapshot` and a profile derived from a dump equals the live one.
//! Object keys come out sorted (the shim's map is a `BTreeMap`).
//!
//! These documents are built here because `pmv-obs` and `pmv-core` do
//! not link `serde_json` and their dependency lists are pinned by the
//! benchmark's lock file; `pmv-wal` already links it, and its
//! `DiskSpool` is the one production flight-dump sink.

use pmv_obs::{EventKind, FlightDump, HistSnapshot, Phase, QueryTrace, TraceEvent, ViewMetrics};
use serde_json::Value;

/// Version sentinel of the flight-dump document.
pub const DUMP_FORMAT: u64 = 2;

/// A gauge as JSON: non-finite values render as 0.
fn gauge(v: f64) -> Value {
    Value::from(if v.is_finite() { v } else { 0.0 })
}

fn hist_json(h: &HistSnapshot) -> Value {
    let us = |d: std::time::Duration| Value::from(d.as_micros() as u64);
    let buckets: Value = (h.buckets().iter().enumerate())
        .filter(|&(_, &n)| n > 0)
        .map(|(i, &n)| Value::from_iter([i as u64, n]))
        .collect();
    Value::from_iter([
        ("count", Value::from(h.count())),
        ("sum_us", Value::from(h.sum_ns() / 1_000)),
        ("p50_us", us(h.quantile(0.5))),
        ("p90_us", us(h.quantile(0.9))),
        ("p99_us", us(h.quantile(0.99))),
        ("max_us", us(h.max())),
        ("buckets", buckets),
        ("sum_ns", Value::from(h.sum_ns())),
        ("max_ns", Value::from(h.max().as_nanos() as u64)),
    ])
}

/// One view's document.
pub fn view_json(v: &ViewMetrics) -> Value {
    Value::from_iter([
        ("name", Value::from(v.name.as_str())),
        ("template", Value::from(v.template.as_deref())),
        ("health", Value::from(v.health.as_str())),
        ("error_rate", gauge(v.error_rate)),
        ("trips", Value::from(v.trips)),
        ("last_verified_age_ms", Value::from(v.last_verified_age_ms)),
        ("counters", Value::from_iter(v.counters.clone())),
        (
            "gauges",
            (v.gauges.iter())
                .map(|(k, &g)| (k.as_str(), gauge(g)))
                .collect(),
        ),
        (
            "phases",
            (v.phases.iter()).map(|(p, h)| (*p, hist_json(h))).collect(),
        ),
    ])
}

/// The `metrics --format json` document: `{"views":[…]}`.
pub fn metrics_json(views: &[ViewMetrics]) -> Value {
    Value::from_iter([("views", views.iter().map(view_json).collect::<Value>())])
}

fn event_json(e: &TraceEvent) -> Value {
    let n = |x: usize| Value::from(x);
    let mut fields: Vec<(&str, Value)> = match &e.kind {
        EventKind::Decompose { parts, us } => vec![("parts", n(*parts)), ("us", (*us).into())],
        EventKind::Breaker { serving, state } => {
            vec![("serving", (*serving).into()), ("state", (*state).into())]
        }
        EventKind::ShardProbe { parts, served, us } => vec![
            ("parts", n(*parts)),
            ("served", n(*served)),
            ("us", (*us).into()),
        ],
        EventKind::FirstResults {
            tuples,
            bcp_hit,
            us,
        } => vec![
            ("tuples", n(*tuples)),
            ("bcp_hit", (*bcp_hit).into()),
            ("us", (*us).into()),
        ],
        EventKind::Exec {
            rows,
            tuples_examined,
            index_probes,
            us,
        } => vec![
            ("rows", n(*rows)),
            ("tuples_examined", n(*tuples_examined)),
            ("index_probes", n(*index_probes)),
            ("us", (*us).into()),
        ],
        EventKind::Fill {
            admitted,
            evicted,
            us,
        } => vec![
            ("admitted", (*admitted).into()),
            ("evicted", (*evicted).into()),
            ("us", (*us).into()),
        ],
        EventKind::Degraded {
            reason,
            staleness_us,
        } => vec![
            ("reason", reason.as_str().into()),
            ("staleness_us", (*staleness_us).into()),
        ],
        EventKind::Quarantine => vec![],
        EventKind::FaultFired { site, kind } => {
            vec![
                ("site", site.as_str().into()),
                ("kind", kind.as_str().into()),
            ]
        }
        EventKind::MaintBatch {
            relation,
            joined,
            join_rows,
            removed,
            retries,
            fallbacks,
        } => vec![
            ("relation", relation.as_str().into()),
            ("joined", n(*joined)),
            ("join_rows", n(*join_rows)),
            ("removed", n(*removed)),
            ("retries", n(*retries)),
            ("fallbacks", n(*fallbacks)),
        ],
        EventKind::Revalidated { removed } => vec![("removed", n(*removed))],
    };
    fields.push(("at_us", e.at_us.into()));
    fields.push(("event", e.kind.name().into()));
    Value::from_iter(fields)
}

fn trace_json(t: &QueryTrace) -> Value {
    Value::from_iter([
        ("id", Value::from(t.id)),
        ("kind", t.kind.as_str().into()),
        ("template", Value::from(&*t.template)),
        ("total_us", t.total_us.into()),
        ("events", t.events.iter().map(event_json).collect()),
    ])
}

/// One flight-dump document: `pmv_flight_dump` (the format sentinel),
/// `seq`, `reason`, `view`, `trigger_total_us`, `traces` and `metrics`
/// (the view's document).
pub fn dump_json(d: &FlightDump) -> Value {
    Value::from_iter([
        ("pmv_flight_dump", Value::from(DUMP_FORMAT)),
        ("seq", d.seq.into()),
        ("reason", d.reason.as_str().into()),
        ("view", d.metrics.name.as_str().into()),
        ("trigger_total_us", d.trigger_total_us.into()),
        ("traces", d.traces.iter().map(trace_json).collect()),
        ("metrics", view_json(&d.metrics)),
    ])
}

fn field<'a>(doc: &'a Value, key: &str) -> Result<&'a Value, String> {
    doc.get(key).ok_or_else(|| format!("missing field '{key}'"))
}

fn u64_field(doc: &Value, key: &str) -> Result<u64, String> {
    field(doc, key)?
        .as_u64()
        .ok_or_else(|| format!("field '{key}' must be an unsigned integer"))
}

fn f64_field(doc: &Value, key: &str) -> Result<f64, String> {
    field(doc, key)?
        .as_f64()
        .ok_or_else(|| format!("field '{key}' must be a number"))
}

fn str_field(doc: &Value, key: &str) -> Result<String, String> {
    field(doc, key)?
        .as_str()
        .map(str::to_owned)
        .ok_or_else(|| format!("field '{key}' must be a string"))
}

fn hist_from_json(doc: &Value) -> Result<HistSnapshot, String> {
    let pair = |b: &Value| Some((b[0].as_u64()? as usize, b[1].as_u64()?));
    let buckets = field(doc, "buckets")?
        .as_array()
        .ok_or("field 'buckets' must be an array")?
        .iter()
        .map(|b| pair(b).ok_or("a bucket must be [index, count]"))
        .collect::<Result<Vec<_>, _>>()?;
    HistSnapshot::from_buckets(
        buckets,
        u64_field(doc, "sum_ns")?,
        u64_field(doc, "max_ns")?,
    )
    .ok_or_else(|| "bucket index out of range".to_string())
}

/// Parse one view's document back: the inverse of [`view_json`] (up to
/// non-finite gauges, which were written as 0).
pub fn view_from_json(doc: &Value) -> Result<ViewMetrics, String> {
    let object = |key| {
        field(doc, key)?
            .as_object()
            .ok_or_else(|| format!("field '{key}' must be an object"))
    };
    let counters = object("counters")?;
    let gauges = object("gauges")?;
    let phases = object("phases")?;
    if let Some(unknown) = phases
        .keys()
        .find(|k| !Phase::ALL.iter().any(|p| p.as_str() == *k))
    {
        return Err(format!("unknown phase '{unknown}'"));
    }
    Ok(ViewMetrics {
        name: str_field(doc, "name")?,
        template: doc["template"].as_str().map(str::to_owned),
        health: str_field(doc, "health")?,
        error_rate: f64_field(doc, "error_rate")?,
        trips: u64_field(doc, "trips")?,
        last_verified_age_ms: u64_field(doc, "last_verified_age_ms")?,
        counters: (counters.keys())
            .map(|k| Ok((k.clone(), u64_field(&doc["counters"], k)?)))
            .collect::<Result<_, String>>()?,
        gauges: (gauges.keys())
            .map(|k| Ok((k.clone(), f64_field(&doc["gauges"], k)?)))
            .collect::<Result<_, String>>()?,
        phases: (Phase::ALL.iter())
            .filter_map(|p| Some((p.as_str(), phases.get(p.as_str())?)))
            .map(|(name, h)| Ok((name, hist_from_json(h)?)))
            .collect::<Result<_, String>>()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmv_obs::{LatencyHistogram, TraceKind, TraceRecorder, TriggerReason};
    use std::time::Duration;

    fn sample() -> ViewMetrics {
        let h = LatencyHistogram::new();
        for ns in [0u64, 7, 900, 42_000, 7_000_000, u64::MAX / 3] {
            h.record_ns(ns);
        }
        ViewMetrics {
            name: "pmv_t1".into(),
            template: Some("t1".into()),
            health: "healthy".into(),
            error_rate: 0.25,
            trips: 1,
            last_verified_age_ms: 12,
            counters: [("queries".to_string(), 4), ("o2_miss".to_string(), 1)].into(),
            gauges: [("hit_probability".to_string(), 1.0 / 3.0)].into(),
            phases: vec![("ttfr", h.snapshot()), ("full", HistSnapshot::empty())],
        }
    }

    #[test]
    fn a_view_document_parses_back_to_the_identical_metrics() {
        let v = sample();
        let text = view_json(&v).to_string();
        let back = view_from_json(&serde_json::from_str(&text).unwrap()).unwrap();
        assert_eq!(back, v);
        let host = ViewMetrics {
            template: None,
            ..sample()
        };
        assert_eq!(view_from_json(&view_json(&host)).unwrap(), host);
    }

    #[test]
    fn phases_keep_readable_percentiles_and_non_finite_gauges_render_as_zero() {
        let mut v = sample();
        v.gauges.insert("bad".into(), f64::NAN);
        let doc = view_json(&v);
        let ttfr = &doc["phases"]["ttfr"];
        assert_eq!(ttfr["count"], 6u64);
        assert_eq!(ttfr["max_ns"], u64::MAX / 3);
        assert_eq!(doc["phases"]["full"]["buckets"], Value::Array(vec![]));
        assert_eq!(doc["gauges"]["bad"], 0.0);
        assert!(view_from_json(&Value::from_iter([("name", "x")])).is_err());
    }

    #[test]
    fn a_dump_carries_its_traces_and_the_view_document() {
        let rec = TraceRecorder::new(4);
        {
            let mut s = rec.begin(TraceKind::Query, "pmv_t1");
            s.event(EventKind::Breaker {
                serving: true,
                state: "healthy",
            });
            s.event_at(3, EventKind::Decompose { parts: 2, us: 1 });
        }
        let dump = FlightDump {
            seq: 7,
            reason: TriggerReason::Degraded,
            trigger_total_us: Duration::from_millis(2).as_micros() as u64,
            traces: rec.tail(4),
            metrics: sample(),
        };
        let doc = dump_json(&dump);
        assert_eq!(doc["pmv_flight_dump"], DUMP_FORMAT);
        assert_eq!(doc["reason"], "degraded");
        assert_eq!(doc["view"], "pmv_t1");
        let events = &doc["traces"][0]["events"];
        assert_eq!(events[0]["event"], "breaker");
        assert_eq!(events[0]["state"], "healthy");
        assert_eq!(events[1]["at_us"], 3u64);
        assert_eq!(events[1]["parts"], 2u64);
        assert_eq!(view_from_json(&doc["metrics"]).unwrap(), dump.metrics);
    }
}
