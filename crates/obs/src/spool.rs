//! Anomaly-triggered flight recorder.
//!
//! Histograms tell you a p99 got worse; by the time a human looks, the
//! traces that *caused* it have rotated out of the ring. The
//! [`FlightRecorder`] closes that gap: when a pass exceeds a latency
//! threshold, or a breaker/quarantine/degradation event fires, it dumps
//! the trace ring plus a metrics snapshot as one JSON document into a
//! [`SpoolSink`].
//!
//! `pmv-obs` stays dependency-free, so the disk sink lives in `pmv-wal`
//! (`wal::spool::DiskSpool`, built on `wal::dio` so every spool write
//! is fault-injectable); this module owns the trigger policy, the
//! bounded-dump accounting, and the dump document format that
//! `pmv-profile` parses back.
//!
//! Hot-path contract: the serving path asks [`FlightRecorder::armed`]
//! (one relaxed load) and compares the pass latency against
//! [`FlightRecorder::latency_threshold_ns`] (a second relaxed load)
//! only when observability is already enabled — a disabled registry
//! never reaches the recorder at all. The expensive part (snapshotting,
//! JSON rendering, the sink write) runs only on trigger, which is by
//! construction rare and bounded by `max_dumps`.

use crate::hist::HistSnapshot;
use crate::trace::QueryTrace;
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// Where flight dumps go. Implementations must be safe to call from
/// any serving thread; the recorder serializes nothing — a sink that
/// needs exclusion takes its own lock (dumps are rare by design).
pub trait SpoolSink: Send + Sync {
    /// Persist one dump document; returns where it landed (a path for
    /// disk sinks, a synthetic name for in-memory test sinks).
    fn spool_dump(&self, seq: u64, json: &str) -> io::Result<PathBuf>;
}

/// In-memory sink for tests: retains every dump in order.
#[derive(Debug, Default)]
pub struct MemSink {
    dumps: std::sync::Mutex<Vec<(u64, String)>>,
}

impl MemSink {
    /// Empty sink.
    pub fn new() -> Self {
        MemSink::default()
    }

    /// Every dump received so far, in arrival order.
    pub fn dumps(&self) -> Vec<(u64, String)> {
        self.dumps.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }
}

impl SpoolSink for MemSink {
    fn spool_dump(&self, seq: u64, json: &str) -> io::Result<PathBuf> {
        self.dumps
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push((seq, json.to_string()));
        Ok(PathBuf::from(format!("mem:flight-{seq:06}.json")))
    }
}

/// Why a dump fired — rendered into the dump's `reason` field.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TriggerReason {
    /// A pass exceeded the latency threshold.
    LatencyThreshold,
    /// The circuit breaker tripped.
    BreakerTrip,
    /// A shard was drained into quarantine.
    Quarantine,
    /// A query degraded (O3 did not complete).
    Degraded,
}

impl TriggerReason {
    /// Stable name used in the dump document.
    pub fn as_str(self) -> &'static str {
        match self {
            TriggerReason::LatencyThreshold => "latency_threshold",
            TriggerReason::BreakerTrip => "breaker_trip",
            TriggerReason::Quarantine => "quarantine",
            TriggerReason::Degraded => "degraded",
        }
    }
}

/// Threshold value meaning "latency trigger disarmed".
const DISARMED: u64 = u64::MAX;

/// The flight recorder: trigger policy + bounded dump accounting over a
/// [`SpoolSink`].
pub struct FlightRecorder {
    /// Latency trigger in nanoseconds; [`DISARMED`] when off. Relaxed —
    /// statistics/config, not synchronization.
    threshold_ns: AtomicU64,
    /// Dumps written; never exceeds `max_dumps`.
    dumped: AtomicU64,
    /// Monotonic dump sequence (also counts dumps dropped by the cap).
    seq: AtomicU64,
    max_dumps: u64,
    sink: Box<dyn SpoolSink>,
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("threshold_ns", &self.threshold_ns)
            .field("dumped", &self.dumped)
            .field("max_dumps", &self.max_dumps)
            .finish_non_exhaustive()
    }
}

impl FlightRecorder {
    /// Recorder writing at most `max_dumps` dumps into `sink`, with the
    /// latency trigger disarmed (event triggers still fire).
    pub fn new(sink: Box<dyn SpoolSink>, max_dumps: u64) -> Self {
        FlightRecorder {
            threshold_ns: AtomicU64::new(DISARMED),
            dumped: AtomicU64::new(0),
            seq: AtomicU64::new(0),
            max_dumps,
            sink,
        }
    }

    /// Arm (Some) or disarm (None) the latency trigger.
    pub fn set_latency_threshold(&self, threshold: Option<std::time::Duration>) {
        let ns = match threshold {
            Some(d) => (d.as_nanos().min(u64::MAX as u128) as u64).min(DISARMED - 1),
            None => DISARMED,
        };
        self.threshold_ns.store(ns, Ordering::Relaxed);
    }

    /// Latency trigger in nanoseconds ([`u64::MAX`] when disarmed). One
    /// relaxed load — the entire per-pass cost of an armed-but-quiet
    /// recorder.
    #[inline]
    pub fn latency_threshold_ns(&self) -> u64 {
        self.threshold_ns.load(Ordering::Relaxed)
    }

    /// Whether the dump budget still has room (one relaxed load).
    #[inline]
    pub fn armed(&self) -> bool {
        self.dumped.load(Ordering::Relaxed) < self.max_dumps
    }

    /// Dumps written so far.
    pub fn dumps_written(&self) -> u64 {
        self.dumped.load(Ordering::Relaxed)
    }

    /// Fire a dump: composes the document from the trace tail and a
    /// metrics snapshot, spends one unit of the dump budget, and hands
    /// it to the sink. Returns the sink path, or `None` when the budget
    /// is exhausted (the sequence number still advances, so the dump
    /// stream records how many triggers were dropped) or the sink
    /// failed (spooling is diagnostics — it must never take the serving
    /// path down).
    pub fn trigger(
        &self,
        reason: TriggerReason,
        view: &str,
        total_us: u64,
        traces: &[QueryTrace],
        metrics_json: &str,
    ) -> Option<PathBuf> {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        // Budget check-and-spend: fetch_update keeps the count exact
        // under concurrent triggers (a plain load+add could overshoot).
        if self
            .dumped
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
                (n < self.max_dumps).then_some(n + 1)
            })
            .is_err()
        {
            return None;
        }
        let json = compose_dump(seq, reason, view, total_us, traces, metrics_json);
        self.sink.spool_dump(seq, &json).ok()
    }
}

/// Render one flight-dump document. Format (hand-rolled, splicing the
/// already-rendered trace and metrics JSON in as raw text):
///
/// ```json
/// {"pmv_flight_dump":1,"seq":0,"reason":"latency_threshold",
///  "view":"t1","trigger_total_us":12345,
///  "traces":[{...QueryTrace::to_json...}],
///  "metrics":{...}}
/// ```
///
/// `pmv_flight_dump` is the format-version sentinel `pmv-profile` keys
/// on when parsing spool directories.
pub fn compose_dump(
    seq: u64,
    reason: TriggerReason,
    view: &str,
    total_us: u64,
    traces: &[QueryTrace],
    metrics_json: &str,
) -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(512 + traces.len() * 256 + metrics_json.len());
    let _ = write!(
        out,
        "{{\"pmv_flight_dump\":1,\"seq\":{seq},\"reason\":\"{}\",\"view\":\"{}\",\
         \"trigger_total_us\":{total_us},\"traces\":[",
        reason.as_str(),
        crate::export::json_escape(view),
    );
    for (i, t) in traces.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&t.to_json());
    }
    let _ = write!(out, "],\"metrics\":{metrics_json}}}");
    out
}

/// Render the `metrics` member of a dump from counter pairs and phase
/// snapshots (the same shapes `ViewMetrics` carries) — lets `pmv-core`
/// compose a dump without depending on the export layer's view model.
pub fn metrics_json_from(
    counters: &[(&'static str, u64)],
    phases: &[(&'static str, HistSnapshot)],
) -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(512);
    out.push_str("{\"counters\":{");
    for (i, (name, value)) in counters.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{name}\":{value}");
    }
    out.push_str("},\"phases\":{");
    for (i, (phase, snap)) in phases.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{phase}\":{}", crate::export::phase_json(snap));
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{EventKind, TraceKind, TraceRecorder};
    use std::sync::Arc;

    fn sample_traces() -> Vec<QueryTrace> {
        let rec = TraceRecorder::new(4);
        {
            let mut s = rec.begin(TraceKind::Query, "t1");
            s.event(EventKind::Decompose { parts: 2, us: 5 });
        }
        rec.tail(4)
    }

    #[test]
    fn trigger_composes_bounded_dumps() {
        let sink = Arc::new(MemSink::new());
        struct Shared(Arc<MemSink>);
        impl SpoolSink for Shared {
            fn spool_dump(&self, seq: u64, json: &str) -> io::Result<PathBuf> {
                self.0.spool_dump(seq, json)
            }
        }
        let fr = FlightRecorder::new(Box::new(Shared(Arc::clone(&sink))), 2);
        assert!(fr.armed());
        let traces = sample_traces();
        let metrics = metrics_json_from(&[("queries", 7)], &[("ttfr", HistSnapshot::empty())]);
        assert!(fr
            .trigger(
                TriggerReason::LatencyThreshold,
                "t1",
                9_000,
                &traces,
                &metrics
            )
            .is_some());
        assert!(fr
            .trigger(TriggerReason::Degraded, "t1", 100, &traces, &metrics)
            .is_some());
        // Budget exhausted: dropped, but the sequence keeps counting.
        assert!(fr
            .trigger(TriggerReason::Quarantine, "t1", 100, &traces, &metrics)
            .is_none());
        assert!(!fr.armed());
        assert_eq!(fr.dumps_written(), 2);

        let dumps = sink.dumps();
        assert_eq!(dumps.len(), 2);
        let (seq0, ref j0) = dumps[0];
        assert_eq!(seq0, 0);
        assert!(j0.starts_with("{\"pmv_flight_dump\":1,\"seq\":0"), "{j0}");
        assert!(j0.contains("\"reason\":\"latency_threshold\""), "{j0}");
        assert!(j0.contains("\"view\":\"t1\""), "{j0}");
        assert!(j0.contains("\"event\":\"decompose\""), "{j0}");
        assert!(j0.contains("\"counters\":{\"queries\":7}"), "{j0}");
        assert_eq!(j0.matches('{').count(), j0.matches('}').count());
        assert_eq!(j0.matches('[').count(), j0.matches(']').count());
    }

    #[test]
    fn latency_threshold_arms_and_disarms() {
        let fr = FlightRecorder::new(Box::new(MemSink::new()), 8);
        assert_eq!(fr.latency_threshold_ns(), u64::MAX);
        fr.set_latency_threshold(Some(std::time::Duration::from_millis(5)));
        assert_eq!(fr.latency_threshold_ns(), 5_000_000);
        fr.set_latency_threshold(None);
        assert_eq!(fr.latency_threshold_ns(), u64::MAX);
    }

    #[test]
    fn concurrent_triggers_respect_the_budget_exactly() {
        let fr = Arc::new(FlightRecorder::new(Box::new(MemSink::new()), 5));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let fr = Arc::clone(&fr);
            handles.push(std::thread::spawn(move || {
                let mut wrote = 0u64;
                for _ in 0..4 {
                    if fr
                        .trigger(TriggerReason::BreakerTrip, "v", 1, &[], "{}")
                        .is_some()
                    {
                        wrote += 1;
                    }
                }
                wrote
            }));
        }
        let total: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(total, 5);
        assert_eq!(fr.dumps_written(), 5);
    }
}
