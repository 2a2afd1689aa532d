//! `pmv-obs` — observability for the PMV serving path.
//!
//! Five pieces, all std-only so every layer of the workspace can record
//! into them without new dependencies. Telemetry here is data: no JSON
//! is written in this crate. The one writer and reader of the JSON
//! documents (`metrics --format json`, flight dumps) is
//! `pmv_wal::telemetry`, where the `serde_json` shim is already linked.
//!
//! * [`hist`] — lock-free log-bucketed latency histograms (HDR-lite),
//!   mergeable, with p50/p90/p99/max within one bucket (≤12.5%) of the
//!   exact order statistic.
//! * [`trace`] — a bounded ring-buffer recorder of per-query lifecycle
//!   events with a drop-publishing [`TraceScope`] span API.
//! * [`export`] — [`ViewMetrics`], one view's counters, gauges and
//!   phase histograms, and its Prometheus text rendering.
//! * [`spool`] — anomaly-triggered flight recorder handing a
//!   [`FlightDump`] to a pluggable [`SpoolSink`] (the disk sink lives in
//!   `pmv-wal`).
//! * [`profile`] — [`ProfileReport::from_views`], the one profile
//!   derivation: contention ranking, template cost ranking, pipeline
//!   stage breakdown.
//!
//! [`ObsRegistry`] ties them together: one histogram per serving-path
//! [`Phase`], one trace ring, and one `enabled` switch. The switch is a
//! relaxed `AtomicBool` — like every atomic in this crate it is
//! statistics, not synchronization; a disabled registry turns
//! [`ObsRegistry::record`] into a single relaxed load and
//! [`ObsRegistry::begin_trace`] into a no-alloc no-op scope, which is
//! what keeps disabled observability under the 5% serving-path budget.
//!
//! Phases are declared once in [`for_each_phase!`] with a
//! `[keep]`/`[transient]` tag, mirroring `for_each_stat_field!` in
//! `pmv-core`: `[transient]` histograms (degradation latency) are zeroed
//! by [`ObsRegistry::reset_transient`] alongside the transient counters
//! on revalidation, `[keep]` histograms (the paper-facing latency
//! series) survive.

pub mod export;
pub mod hist;
pub mod profile;
pub mod spool;
pub mod trace;

pub use export::{to_prometheus, ViewMetrics};
pub use hist::{bucket_bounds, bucket_of, HistSnapshot, LatencyHistogram, BUCKETS};
pub use profile::{ContentionSite, PipelineStage, ProfileReport, TemplateCost};
pub use spool::{FlightDump, FlightRecorder, SpoolSink, TriggerReason};
pub use trace::{EventKind, QueryTrace, TraceEvent, TraceKind, TraceRecorder, TraceScope};

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// Traces retained by a registry's ring buffer.
pub const DEFAULT_TRACE_CAPACITY: usize = 256;

/// Single declaration point for the serving-path phases, tagged
/// `[keep]` (survives `reset_transient`) or `[transient]` (zeroed with
/// the transient counters on revalidation).
#[macro_export]
macro_rules! for_each_phase {
    ($m:ident) => {
        $m! {
            [keep] ttfr,
            [keep] full,
            [keep] o1_decompose,
            [keep] o2_probe,
            [keep] o3_exec,
            [keep] o3_dedup,
            [keep] maint_join,
            [keep] maint_index,
            [keep] upquery,
            [keep] revalidate,
            [keep] snapshot_swap,
            [keep] epoch_pin,
            [keep] wal_append,
            [keep] wal_fsync,
            [keep] ckpt_write,
            [keep] recovery_replay,
            [keep] lock_shard_fill,
            [keep] lock_shard_maint,
            [keep] lock_master_commit,
            [keep] commit_drain,
            [keep] snapshot_publish,
            [transient] degraded,
        }
    };
}

macro_rules! reset_if_transient {
    ([keep] $h:expr) => {};
    ([transient] $h:expr) => {
        $h.reset();
    };
}

macro_rules! define_phases {
    ($([$tag:ident] $name:ident,)*) => {
        /// A timed phase of the serving path. `ttfr` is query start →
        /// end of O2, inside the call (the paper's "~1 ms" claim; the
        /// caller receives the partials only with O3's rows); `full` is
        /// query start → complete results; the rest are the individual
        /// phase timers.
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        #[allow(non_camel_case_types)]
        pub enum Phase {
            $(
                #[allow(missing_docs)]
                $name,
            )*
        }

        impl Phase {
            /// Every phase, in declaration order.
            pub const ALL: &'static [Phase] = &[$(Phase::$name,)*];

            /// Stable name used as the export `phase` label.
            pub fn as_str(self) -> &'static str {
                match self {
                    $(Phase::$name => stringify!($name),)*
                }
            }
        }

        #[derive(Debug, Default)]
        struct PhaseHists {
            $($name: LatencyHistogram,)*
        }

        impl PhaseHists {
            fn get(&self, p: Phase) -> &LatencyHistogram {
                match p {
                    $(Phase::$name => &self.$name,)*
                }
            }

            fn reset(&self) {
                $(self.$name.reset();)*
            }

            fn reset_transient(&self) {
                $(reset_if_transient!([$tag] self.$name);)*
            }
        }
    };
}

for_each_phase!(define_phases);

/// Per-view observability hub: one [`LatencyHistogram`] per [`Phase`]
/// plus a [`TraceRecorder`], behind one enable switch.
#[derive(Debug)]
pub struct ObsRegistry {
    enabled: AtomicBool,
    hists: PhaseHists,
    trace: TraceRecorder,
}

impl Default for ObsRegistry {
    fn default() -> Self {
        ObsRegistry::new()
    }
}

impl ObsRegistry {
    /// An enabled registry with [`DEFAULT_TRACE_CAPACITY`] traces.
    pub fn new() -> Self {
        ObsRegistry::with_capacity(DEFAULT_TRACE_CAPACITY)
    }

    /// An enabled registry retaining `trace_capacity` traces.
    pub fn with_capacity(trace_capacity: usize) -> Self {
        ObsRegistry {
            enabled: AtomicBool::new(true),
            hists: PhaseHists::default(),
            trace: TraceRecorder::new(trace_capacity),
        }
    }

    /// A registry that records nothing until re-enabled.
    pub fn disabled() -> Self {
        let reg = ObsRegistry::new();
        reg.set_enabled(false);
        reg
    }

    /// Flip recording on or off at runtime.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Whether recording is on. One relaxed load — this is the entire
    /// cost of a disabled [`ObsRegistry::record`] call.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Record one duration into a phase histogram (no-op when
    /// disabled).
    #[inline]
    pub fn record(&self, phase: Phase, d: Duration) {
        if self.enabled() {
            self.hists.get(phase).record(d);
        }
    }

    /// Snapshot one phase histogram.
    pub fn snapshot(&self, phase: Phase) -> HistSnapshot {
        self.hists.get(phase).snapshot()
    }

    /// Snapshot every phase, in declaration order, as export-ready
    /// `(phase name, histogram)` pairs.
    pub fn snapshots(&self) -> Vec<(&'static str, HistSnapshot)> {
        Phase::ALL
            .iter()
            .map(|&p| (p.as_str(), self.snapshot(p)))
            .collect()
    }

    /// Zero every histogram and drop every trace.
    pub fn reset(&self) {
        self.hists.reset();
        self.trace.clear();
    }

    /// Zero only `[transient]`-tagged histograms (the revalidation
    /// contract, matching `AtomicPmvStats::reset_transient`).
    pub fn reset_transient(&self) {
        self.hists.reset_transient();
    }

    /// The trace ring (always readable, even when disabled).
    pub fn trace(&self) -> &TraceRecorder {
        &self.trace
    }

    /// Open a lifecycle span. Disabled registries hand back a no-alloc
    /// no-op scope that publishes nothing on drop.
    pub fn begin_trace(&self, kind: TraceKind, template: &str) -> TraceScope<'_> {
        if self.enabled() {
            self.trace.begin(kind, template)
        } else {
            TraceScope::noop()
        }
    }

    /// [`ObsRegistry::begin_trace`] without the per-span string copy:
    /// the serving path holds one `Arc<str>` per view and opening a
    /// span costs a refcount bump — and, when disabled, nothing at all.
    pub fn begin_trace_shared(
        &self,
        kind: TraceKind,
        template: &std::sync::Arc<str>,
    ) -> TraceScope<'_> {
        if self.enabled() {
            self.trace.begin_shared(kind, template)
        } else {
            TraceScope::noop()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_names_are_unique_and_stable() {
        let mut names: Vec<_> = Phase::ALL.iter().map(|p| p.as_str()).collect();
        assert!(names.contains(&"ttfr"));
        assert!(names.contains(&"full"));
        assert!(names.contains(&"degraded"));
        assert!(names.contains(&"wal_append"));
        assert!(names.contains(&"recovery_replay"));
        assert!(names.contains(&"lock_master_commit"));
        assert!(names.contains(&"snapshot_publish"));
        assert!(names.contains(&"maint_index"));
        assert!(names.contains(&"upquery"));
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
        assert_eq!(n, 22);
    }

    #[test]
    fn reset_transient_keeps_keep_tagged_histograms() {
        let reg = ObsRegistry::new();
        reg.record(Phase::ttfr, Duration::from_micros(100));
        reg.record(Phase::full, Duration::from_micros(400));
        reg.record(Phase::degraded, Duration::from_micros(900));
        reg.reset_transient();
        assert_eq!(reg.snapshot(Phase::ttfr).count(), 1, "[keep] survives");
        assert_eq!(reg.snapshot(Phase::full).count(), 1, "[keep] survives");
        assert_eq!(
            reg.snapshot(Phase::degraded).count(),
            0,
            "[transient] zeroed"
        );
        reg.reset();
        assert_eq!(reg.snapshot(Phase::ttfr).count(), 0);
    }

    #[test]
    fn disabled_registry_records_nothing() {
        let reg = ObsRegistry::disabled();
        assert!(!reg.enabled());
        reg.record(Phase::o3_exec, Duration::from_millis(5));
        assert_eq!(reg.snapshot(Phase::o3_exec).count(), 0);
        let mut scope = reg.begin_trace(TraceKind::Query, "t1");
        assert!(!scope.active());
        scope.event(EventKind::Decompose { parts: 1, us: 1 });
        drop(scope);
        assert!(reg.trace().is_empty());

        reg.set_enabled(true);
        reg.record(Phase::o3_exec, Duration::from_millis(5));
        assert_eq!(reg.snapshot(Phase::o3_exec).count(), 1);
        drop(reg.begin_trace(TraceKind::Query, "t1"));
        assert_eq!(reg.trace().len(), 1);
    }

    #[test]
    fn snapshots_cover_every_phase_in_order() {
        let reg = ObsRegistry::new();
        reg.record(Phase::maint_join, Duration::from_micros(7));
        let snaps = reg.snapshots();
        assert_eq!(snaps.len(), Phase::ALL.len());
        assert_eq!(snaps[0].0, "ttfr");
        let (_, maint) = snaps.iter().find(|(n, _)| *n == "maint_join").unwrap();
        assert_eq!(maint.count(), 1);
    }
}
