//! Anomaly-triggered flight recorder.
//!
//! Histograms tell you a p99 got worse; by the time a human looks, the
//! traces that *caused* it have rotated out of the ring. The
//! [`FlightRecorder`] closes that gap: when a pass exceeds a latency
//! threshold, or a quarantine or degradation event fires, it hands
//! the trace-ring tail plus the view's [`ViewMetrics`] to a [`SpoolSink`]
//! as one [`FlightDump`].
//!
//! `pmv-obs` stays dependency-free and keeps telemetry as data: the disk
//! sink, and the JSON document it writes, live in `pmv-wal`
//! (`wal::spool::DiskSpool`, built on `wal::dio` so every spool write is
//! fault-injectable). This module owns the trigger policy and the
//! bounded-dump accounting.
//!
//! Hot-path contract: the serving path asks [`FlightRecorder::armed`]
//! (one relaxed load) and compares the pass latency against
//! [`FlightRecorder::latency_threshold_ns`] (a second relaxed load)
//! only when observability is already enabled — a disabled registry
//! never reaches the recorder at all. The expensive part (snapshotting,
//! rendering, the sink write) runs only on trigger, which is by
//! construction rare and bounded by `max_dumps`.

use crate::export::ViewMetrics;
use crate::trace::QueryTrace;
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// One flight-recorder dump: why it fired, the trace-ring tail, and the
/// view's telemetry at that moment.
#[derive(Clone, Debug)]
pub struct FlightDump {
    /// Dump sequence number (counts dumps dropped by the budget too).
    pub seq: u64,
    /// What fired it.
    pub reason: TriggerReason,
    /// End-to-end latency of the triggering pass, microseconds.
    pub trigger_total_us: u64,
    /// The most recent traces, oldest first.
    pub traces: Vec<QueryTrace>,
    /// The view's counters, gauges and phase histograms.
    pub metrics: ViewMetrics,
}

/// Where flight dumps go. Implementations must be safe to call from
/// any serving thread; the recorder serializes nothing — a sink that
/// needs exclusion takes its own lock (dumps are rare by design).
pub trait SpoolSink: Send + Sync {
    /// Persist one dump; returns where it landed (a path for disk
    /// sinks, a synthetic name for in-memory test sinks).
    fn spool_dump(&self, dump: &FlightDump) -> io::Result<PathBuf>;
}

/// Why a dump fired — rendered into the dump's `reason` field.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TriggerReason {
    /// A pass exceeded the latency threshold.
    LatencyThreshold,
    /// A view's circuit breaker tripped into Quarantined: its store was
    /// drained, or its error rate crossed the quarantine threshold.
    Quarantine,
    /// A query degraded (O3 did not complete).
    Degraded,
}

impl TriggerReason {
    /// Stable name used in the dump document.
    pub fn as_str(self) -> &'static str {
        match self {
            TriggerReason::LatencyThreshold => "latency_threshold",
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

    /// Fire a dump of `traces` and `metrics`: spends one unit of the
    /// dump budget and hands the dump to the sink. Returns the sink
    /// path, or `None` when the budget is exhausted (the sequence number
    /// still advances, so the dump stream records how many triggers
    /// were dropped) or the sink failed (spooling is diagnostics — it
    /// must never take the serving path down).
    pub fn trigger(
        &self,
        reason: TriggerReason,
        total_us: u64,
        traces: Vec<QueryTrace>,
        metrics: ViewMetrics,
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
        let dump = FlightDump {
            seq,
            reason,
            trigger_total_us: total_us,
            traces,
            metrics,
        };
        self.sink.spool_dump(&dump).ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{EventKind, TraceKind, TraceRecorder};
    use std::sync::{Arc, Mutex};

    /// Keeps every dump it receives, in arrival order.
    #[derive(Default)]
    struct MemSink(Mutex<Vec<FlightDump>>);

    impl SpoolSink for Arc<MemSink> {
        fn spool_dump(&self, dump: &FlightDump) -> io::Result<PathBuf> {
            self.0.lock().unwrap().push(dump.clone());
            Ok(PathBuf::from(format!("mem:flight-{:06}.json", dump.seq)))
        }
    }

    fn sample_traces() -> Vec<QueryTrace> {
        let rec = TraceRecorder::new(4);
        {
            let mut s = rec.begin(TraceKind::Query, "t1");
            s.event(EventKind::Decompose { parts: 2, us: 5 });
        }
        rec.tail(4)
    }

    fn metrics() -> ViewMetrics {
        ViewMetrics {
            name: "t1".into(),
            ..Default::default()
        }
    }

    #[test]
    fn trigger_spools_bounded_dumps() {
        let sink = Arc::new(MemSink::default());
        let fr = FlightRecorder::new(Box::new(Arc::clone(&sink)), 2);
        assert!(fr.armed());
        let fire = |reason| fr.trigger(reason, 9_000, sample_traces(), metrics());
        assert!(fire(TriggerReason::LatencyThreshold).is_some());
        assert!(fire(TriggerReason::Degraded).is_some());
        // Budget exhausted: dropped, but the sequence keeps counting.
        assert!(fire(TriggerReason::Quarantine).is_none());
        assert!(!fr.armed());
        assert_eq!(fr.dumps_written(), 2);

        let dumps = sink.0.lock().unwrap();
        assert_eq!(dumps.len(), 2);
        assert_eq!(dumps[0].seq, 0);
        assert_eq!(dumps[0].reason, TriggerReason::LatencyThreshold);
        assert_eq!(dumps[0].metrics, metrics());
        assert_eq!(dumps[0].traces[0].events[0].kind.name(), "decompose");
        assert_eq!(dumps[1].reason, TriggerReason::Degraded);
    }

    #[test]
    fn latency_threshold_arms_and_disarms() {
        let fr = FlightRecorder::new(Box::new(Arc::new(MemSink::default())), 8);
        assert_eq!(fr.latency_threshold_ns(), u64::MAX);
        fr.set_latency_threshold(Some(std::time::Duration::from_millis(5)));
        assert_eq!(fr.latency_threshold_ns(), 5_000_000);
        fr.set_latency_threshold(None);
        assert_eq!(fr.latency_threshold_ns(), u64::MAX);
    }

    #[test]
    fn concurrent_triggers_respect_the_budget_exactly() {
        let fr = Arc::new(FlightRecorder::new(
            Box::new(Arc::new(MemSink::default())),
            5,
        ));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let fr = Arc::clone(&fr);
            handles.push(std::thread::spawn(move || {
                let mut wrote = 0u64;
                for _ in 0..4 {
                    if fr
                        .trigger(TriggerReason::Quarantine, 1, Vec::new(), metrics())
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
