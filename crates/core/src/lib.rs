//! # pmv-core — Partial Materialized Views
//!
//! The primary contribution of *Partial Materialized Views* (Gang Luo,
//! ICDE 2007), built on the workspace's storage/index/query substrates.
//!
//! A **PMV** caches, for one parameterized query template, up to `F`
//! result tuples for each of up to `L` *basic condition parts* — the
//! discretized cells of the template's selection space. On query arrival
//! the PMV is probed first and any cached results are returned within
//! microseconds (Operation O2); the query then executes normally and the
//! remaining results follow, deduplicated through the multiset `DS`
//! (Operation O3). The cached content adapts to the query pattern via a
//! replacement policy (CLOCK or simplified 2Q), is filled and updated
//! *for free* from observed result tuples, needs **no maintenance on
//! inserts**, and is kept consistent on deletes/updates by joining `ΔR`
//! with the other base relations.
//!
//! Module map (paper section in parentheses):
//!
//! * [`bcp`] — basic intervals, discretizers, bcp keys (3.1)
//! * [`view`] — PMV definitions and config (3.2)
//! * [`o1`] — decomposition of `Cselect` into condition parts (3.3, O1)
//! * [`store`] — the bounded, policy-managed result store (3.2, 3.5)
//! * [`ds`] — the O2/O3 dedup multiset (3.3)
//! * [`concurrent`] — the PMV itself: [`SharedPmv`], the one view type,
//!   its sharded store and published shard views (3.2)
//! * `serve` — the one O1/O2/O3 serving implementation, over a pinned
//!   snapshot (3.3, 3.6)
//! * [`epoch`] — [`EpochDb`], the one host: it registers and owns its
//!   views, every query pins a published snapshot, every commit
//!   maintains every view it owns before publishing (3.4, 3.6)
//! * [`pipeline`] — what a query run returns, and the no-PMV baseline
//! * [`maintenance`] — the one deferred-maintenance implementation, run
//!   by [`EpochDb::commit`] before the new state is visible (3.4, 3.6)
//! * [`delta_index`] — delta-key index: O(|Δ| · fanout) partial-state
//!   maintenance with no base-relation join (3.4, DESIGN.md §19)
//! * [`fasthash`] — multiply-fold hasher for the hot dedup/index maps
//! * [`mv`] — the traditional-MV baseline (2.2)
//! * [`ext`] — DISTINCT / aggregate / EXISTS / popularity-ranking
//!   extensions (3.6 and the conclusion)
//! * [`stats`] — cumulative counters, hit probability
//! * [`health`] — circuit breaker, degradation semantics, validation
//!   reports (failure model; see DESIGN.md §11)
//! * [`verify`] — registration-time static verifier, diagnostics
//!   `PMV001..PMV006` (see DESIGN.md §12)
//!
//! Observability (per-phase latency histograms, lifecycle traces, the
//! per-view [`ViewMetrics`] and its Prometheus rendering) lives in the
//! dependency-free `pmv-obs` crate; its core types are re-exported here.
//! Their JSON documents are written and read by `pmv_wal::telemetry`
//! (see DESIGN.md §13).

pub mod advisor;
pub mod bcp;
pub mod concurrent;
pub mod delta_index;
pub mod ds;
pub mod epoch;
pub mod ext;
pub mod fasthash;
pub mod health;
pub mod maintenance;
pub mod mv;
pub mod o1;
pub mod pipeline;
mod serve;
pub mod stats;
pub mod store;
pub mod verify;
pub mod view;

pub use advisor::{AdvisorConfig, PmvAdvisor, Recommendation};
pub use bcp::{BcpDim, BcpKey, Discretizer};
pub use concurrent::SharedPmv;
pub use delta_index::DeltaKeyIndex;
pub use ds::Ds;
pub use epoch::EpochDb;
pub use fasthash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use health::{
    CircuitBreaker, Degradation, DegradeReason, ShardReport, ValidationReport, ViewHealth,
};
pub use mv::TraditionalMv;
pub use o1::{decompose, ConditionPart};
pub use pipeline::{run_plain, QueryOutcome, QueryTimings};
pub use pmv_obs::{
    EventKind, HistSnapshot, LatencyHistogram, ObsRegistry, Phase, QueryTrace, TraceEvent,
    TraceKind, TraceRecorder, ViewMetrics,
};
pub use pmv_wal::{CheckpointMeta, Durability, RecoveryInfo, ViewSpec};
pub use stats::{AtomicPmvStats, PmvStats};
pub use store::{Hashed, PmvStore, Residency, RowCursor, Rows, HANDLE_BYTES};
pub use verify::{
    verify_def, verify_parts, DiagCode, Diagnostic, FilterSpec, Severity, VerifyOptions,
    VerifyReport,
};
pub use view::{PartialViewDef, PmvConfig, StoredLayout};

/// Errors from the PMV layer.
#[derive(Debug)]
pub enum CoreError {
    /// Bad PMV definition or query/definition mismatch.
    Definition(String),
    /// Underlying query/storage failure.
    Query(pmv_query::QueryError),
    /// The durability layer failed: a commit's WAL record could not be
    /// made durable (the transaction was rolled back and nothing
    /// published), or a checkpoint/recovery operation failed.
    Durability(String),
    /// Registration rejected by the static verifier (deny diagnostics).
    Analysis(verify::VerifyReport),
}

impl std::fmt::Display for CoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoreError::Definition(msg) => write!(f, "pmv definition error: {msg}"),
            CoreError::Query(e) => write!(f, "query error: {e}"),
            CoreError::Durability(msg) => write!(f, "durability error: {msg}"),
            CoreError::Analysis(report) => {
                write!(f, "registration denied by static analysis:\n{report}")
            }
        }
    }
}

impl std::error::Error for CoreError {}

impl From<pmv_query::QueryError> for CoreError {
    fn from(e: pmv_query::QueryError) -> Self {
        CoreError::Query(e)
    }
}

impl From<pmv_wal::WalError> for CoreError {
    fn from(e: pmv_wal::WalError) -> Self {
        CoreError::Durability(e.to_string())
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, CoreError>;
