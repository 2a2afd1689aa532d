//! Bounded ring-buffer trace recorder: per-query lifecycle events.
//!
//! Aggregate histograms answer "how slow", traces answer "why": one
//! [`QueryTrace`] records the ordered [`TraceEvent`]s of a single pass
//! through the serving path — decomposition, the O2 probe, the
//! first-results point, execution, fill/eviction, degradation and
//! breaker decisions, and any fault-injection site that fired. The
//! recorder keeps the last `capacity` traces in a [`VecDeque`] ring
//! behind a [`Mutex`]; the `id` counter is a relaxed atomic — it is a
//! statistics sequence number, not synchronization.
//!
//! [`TraceScope`] is the span API: the serving path holds one per
//! query/maintenance pass, appends events as phases complete, and the
//! scope publishes itself into the ring on drop — so early-return and
//! degraded paths are captured without extra bookkeeping. A scope opened
//! on a disabled registry carries no recorder reference and allocates
//! nothing.

use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// What kind of pass a trace covers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceKind {
    /// One query through O1/O2/O3.
    Query,
    /// One maintenance delta batch (ΔR join + store eviction).
    Maintenance,
    /// One revalidation sweep.
    Revalidate,
}

impl TraceKind {
    /// Stable name, used in the JSON rendering.
    pub fn as_str(self) -> &'static str {
        match self {
            TraceKind::Query => "query",
            TraceKind::Maintenance => "maintenance",
            TraceKind::Revalidate => "revalidate",
        }
    }
}

/// One lifecycle event inside a trace. `at_us` on the enclosing
/// [`TraceEvent`] is the offset from the start of the pass.
#[derive(Clone, Debug, PartialEq)]
pub enum EventKind {
    /// O1 finished: the query decomposed into `parts` condition parts.
    Decompose {
        /// Condition parts produced (the paper's `h`).
        parts: usize,
        /// O1 duration in microseconds.
        us: u64,
    },
    /// The circuit breaker's serve decision for this pass.
    Breaker {
        /// Whether O2/fill are allowed.
        serving: bool,
        /// Breaker state name at decision time (a static name — the
        /// serving path records this per query, so it must not
        /// allocate).
        state: &'static str,
    },
    /// The O2 probe of the published table completed.
    ShardProbe {
        /// Distinct bcps probed.
        parts: usize,
        /// Partial tuples served.
        served: usize,
        /// Probe duration in microseconds.
        us: u64,
    },
    /// O2 complete: the time-to-first-result point, inside the call (the
    /// caller receives the partials only with O3's rows).
    FirstResults {
        /// Partial tuples served from the cache.
        tuples: usize,
        /// Whether any probed bcp was resident (the paper's "hit").
        bcp_hit: bool,
        /// Offset from query start in microseconds (TTFR).
        us: u64,
    },
    /// O3 execution finished.
    Exec {
        /// Result tuples produced.
        rows: usize,
        /// Executor tuples examined.
        tuples_examined: usize,
        /// Executor exact-match index probes.
        index_probes: usize,
        /// Execution duration in microseconds.
        us: u64,
    },
    /// The O3 write-back under the store's write guard completed (cache
    /// admission/eviction events).
    Fill {
        /// Tuples admitted into the store.
        admitted: u64,
        /// Entries evicted by the replacement policy during the fill.
        evicted: u64,
        /// Fill duration in microseconds.
        us: u64,
    },
    /// The pass degraded: O3 did not complete.
    Degraded {
        /// Degradation reason (rendered from `DegradeReason`).
        reason: String,
        /// Staleness upper bound in microseconds.
        staleness_us: u64,
    },
    /// The view's store was drained into quarantine during this pass.
    Quarantine,
    /// An injected fault fired during this pass (site + kind; latency
    /// carries its duration in microseconds).
    FaultFired {
        /// Fault site name (`pmv_faultinject::Site::as_str`).
        site: String,
        /// `"error"`, `"panic"`, or `"latency:<N>us"`.
        kind: String,
    },
    /// One maintenance batch finished.
    MaintBatch {
        /// Base relation the delta targets.
        relation: String,
        /// Deletes + relevant updates joined.
        joined: usize,
        /// ΔR ⋈ R_j rows produced.
        join_rows: usize,
        /// View tuples removed.
        removed: usize,
        /// Transient-failure retries.
        retries: usize,
        /// Fallback invalidations (retries exhausted).
        fallbacks: usize,
    },
    /// One revalidation sweep finished.
    Revalidated {
        /// Stale tuples removed.
        removed: usize,
    },
}

impl EventKind {
    /// Stable event name, used as the JSON `event` field.
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::Decompose { .. } => "decompose",
            EventKind::Breaker { .. } => "breaker",
            EventKind::ShardProbe { .. } => "shard_probe",
            EventKind::FirstResults { .. } => "first_results",
            EventKind::Exec { .. } => "exec",
            EventKind::Fill { .. } => "fill",
            EventKind::Degraded { .. } => "degraded",
            EventKind::Quarantine => "quarantine",
            EventKind::FaultFired { .. } => "fault_fired",
            EventKind::MaintBatch { .. } => "maint_batch",
            EventKind::Revalidated { .. } => "revalidated",
        }
    }
}

/// One timestamped event.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceEvent {
    /// Microseconds since the start of the pass.
    pub at_us: u64,
    /// What happened.
    pub kind: EventKind,
}

/// A completed trace: the full lifecycle of one pass.
#[derive(Clone, Debug)]
pub struct QueryTrace {
    /// Monotonic sequence number assigned by the recorder.
    pub id: u64,
    /// Pass kind.
    pub kind: TraceKind,
    /// Template (or view) name the pass targeted. Shared (`Arc<str>`)
    /// so hot paths publish a refcount bump, not a string copy.
    pub template: Arc<str>,
    /// Total pass duration in microseconds.
    pub total_us: u64,
    /// Ordered lifecycle events.
    pub events: Vec<TraceEvent>,
}

impl fmt::Display for QueryTrace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "#{} {} '{}' ({} µs)",
            self.id,
            self.kind.as_str(),
            self.template,
            self.total_us
        )?;
        for e in &self.events {
            writeln!(f, "  +{:>8} µs  {:?}", e.at_us, e.kind)?;
        }
        Ok(())
    }
}

/// Bounded ring of the most recent traces.
#[derive(Debug)]
pub struct TraceRecorder {
    capacity: usize,
    next_id: AtomicU64,
    ring: Mutex<VecDeque<QueryTrace>>,
}

impl TraceRecorder {
    /// Recorder keeping the last `capacity` traces (min 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        TraceRecorder {
            capacity,
            next_id: AtomicU64::new(0),
            ring: Mutex::new(VecDeque::with_capacity(capacity)),
        }
    }

    /// Maximum traces retained.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Traces currently retained.
    pub fn len(&self) -> usize {
        self.ring.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// Whether no trace has been recorded (or all have been dropped).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Open a span. The scope buffers events locally and publishes into
    /// the ring when dropped.
    pub fn begin(&self, kind: TraceKind, template: &str) -> TraceScope<'_> {
        self.begin_shared(kind, &Arc::from(template))
    }

    /// [`TraceRecorder::begin`] without the string copy: the caller
    /// holds the template name in an `Arc<str>` (e.g. one per view,
    /// created at registration) and each span costs one refcount bump.
    pub fn begin_shared(&self, kind: TraceKind, template: &Arc<str>) -> TraceScope<'_> {
        TraceScope {
            rec: Some(self),
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            kind,
            template: Some(Arc::clone(template)),
            start: Instant::now(),
            events: Vec::new(),
        }
    }

    /// The last `n` traces, oldest first (clones — the ring keeps its
    /// copies).
    pub fn tail(&self, n: usize) -> Vec<QueryTrace> {
        let ring = self.ring.lock().unwrap_or_else(|e| e.into_inner());
        let skip = ring.len().saturating_sub(n);
        ring.iter().skip(skip).cloned().collect()
    }

    /// Drop every retained trace (the id sequence keeps counting).
    pub fn clear(&self) {
        self.ring.lock().unwrap_or_else(|e| e.into_inner()).clear();
    }

    fn push(&self, trace: QueryTrace) {
        let mut ring = self.ring.lock().unwrap_or_else(|e| e.into_inner());
        if ring.len() == self.capacity {
            ring.pop_front();
        }
        ring.push_back(trace);
    }
}

/// A live span over one pass. Append events with [`TraceScope::event`];
/// the trace publishes into the recorder's ring when the scope drops, so
/// every exit path (including degraded early returns) is captured.
pub struct TraceScope<'a> {
    rec: Option<&'a TraceRecorder>,
    id: u64,
    kind: TraceKind,
    /// `Some` iff `rec` is `Some`; `None` in a noop scope so disabled
    /// observability allocates nothing.
    template: Option<Arc<str>>,
    start: Instant,
    events: Vec<TraceEvent>,
}

impl TraceScope<'_> {
    /// A scope that records nothing (disabled observability). All
    /// methods are near-free no-ops.
    pub fn noop() -> Self {
        TraceScope {
            rec: None,
            id: 0,
            kind: TraceKind::Query,
            template: None,
            start: Instant::now(),
            events: Vec::new(),
        }
    }

    /// Whether events are being captured.
    pub fn active(&self) -> bool {
        self.rec.is_some()
    }

    /// Microseconds since the scope opened.
    pub fn elapsed_us(&self) -> u64 {
        self.start.elapsed().as_micros().min(u64::MAX as u128) as u64
    }

    /// Append one event, stamped with the current offset.
    pub fn event(&mut self, kind: EventKind) {
        if self.rec.is_some() {
            self.events.push(TraceEvent {
                at_us: self.elapsed_us(),
                kind,
            });
        }
    }

    /// Append one event with an explicit offset (e.g. the TTFR point
    /// measured by the caller).
    pub fn event_at(&mut self, at_us: u64, kind: EventKind) {
        if self.rec.is_some() {
            self.events.push(TraceEvent { at_us, kind });
        }
    }
}

impl Drop for TraceScope<'_> {
    fn drop(&mut self) {
        if let Some(rec) = self.rec {
            let template = self.template.take().unwrap_or_else(|| Arc::from(""));
            rec.push(QueryTrace {
                id: self.id,
                kind: self.kind,
                template,
                total_us: self.elapsed_us(),
                events: std::mem::take(&mut self.events),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_keeps_last_capacity_traces() {
        let rec = TraceRecorder::new(3);
        for i in 0..5 {
            let mut s = rec.begin(TraceKind::Query, &format!("t{i}"));
            s.event(EventKind::Decompose { parts: 1, us: 2 });
        }
        assert_eq!(rec.len(), 3);
        let tail = rec.tail(10);
        assert_eq!(tail.len(), 3);
        assert_eq!(&*tail[0].template, "t2");
        assert_eq!(&*tail[2].template, "t4");
        assert_eq!(tail[2].id, 4, "ids keep counting past evicted traces");
        assert_eq!(rec.tail(1).len(), 1);
        rec.clear();
        assert!(rec.is_empty());
    }

    #[test]
    fn scope_publishes_on_drop_including_early_return() {
        let rec = TraceRecorder::new(8);
        fn early(rec: &TraceRecorder) -> u32 {
            let mut s = rec.begin(TraceKind::Query, "q");
            s.event(EventKind::Breaker {
                serving: false,
                state: "quarantined",
            });
            7 // scope drops here, mid-"pipeline"
        }
        assert_eq!(early(&rec), 7);
        let tail = rec.tail(1);
        assert_eq!(tail.len(), 1);
        assert_eq!(tail[0].events.len(), 1);
    }

    #[test]
    fn noop_scope_records_nothing() {
        let mut s = TraceScope::noop();
        assert!(!s.active());
        s.event(EventKind::Decompose { parts: 3, us: 1 });
        drop(s); // must not panic or publish anywhere
    }

    #[test]
    fn concurrent_scopes_do_not_lose_traces() {
        let rec = std::sync::Arc::new(TraceRecorder::new(10_000));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let rec = std::sync::Arc::clone(&rec);
            handles.push(std::thread::spawn(move || {
                for _ in 0..100 {
                    let mut s = rec.begin(TraceKind::Query, "x");
                    s.event(EventKind::Decompose { parts: 1, us: 0 });
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(rec.len(), 800);
    }
}
