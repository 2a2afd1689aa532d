//! The PMV: one view's definition and its bounded, sharded store
//! (Section 3.2), as a clonable thread-safe handle.
//!
//! [`SharedPmv`] shards the store by bcp-key hash:
//!
//! * The view's `L` entry budget is split over `N` shards (default: the
//!   machine's available parallelism; `with_shards(_, _, 1)` is the
//!   paper's single structure of exactly `L` entries), each with its own
//!   [`PmvStore`] — its slice of the bcp entries, its own
//!   replacement-policy instance of capacity `⌈L/N⌉`, and its own
//!   delta-key index slice — behind its own [`parking_lot::RwLock`].
//! * Each shard's store keeps its entries in one copy-on-write table,
//!   and the shard publishes that table to readers through a
//!   [`pmv_sync::LeftRight`] cell: a pointer copy of the table plus the
//!   store's insert watermark and quarantine flag. Mutators republish,
//!   under the shard's write guard, after changing what the shard
//!   serves; the store's first write after a publish copies only the
//!   spine and the chunk it touches, and a store whose table is still
//!   the published one has nothing to publish.
//! * Maintenance ([`crate::maintenance`]) X-locks (write-locks) only the
//!   shards its ΔR join rows hash to, in ascending index order; queries
//!   over other shards are never affected.
//! * Statistics accumulate locally per call and publish via one relaxed
//!   [`AtomicPmvStats::add`] — no lock is taken for bookkeeping.
//!
//! # Serving
//!
//! Queries run the one O1 → O2 → O3 implementation in `crate::serve`:
//! O2 [`pmv_sync::LeftRight::load`]s the published shard views wait-free
//! and never touches a shard `RwLock`; policy touches and fills are
//! deferred to a best-effort write-back that takes `try_write` and is
//! skipped under contention (a single thread is never declined), so
//! between pinning and the answer no lock is ever waited on
//! (`pmv-analyze`'s `pin_reaches_blocking_lock` contract checks every
//! function declared `// pmv::pin_region`). The two epoch
//! gates that stand in for the paper's S lock — serve only
//! `fill_epoch ≤ pin_epoch`, write back only when `pin_epoch ≥
//! maint_epoch` — are described there and in DESIGN.md "Serving path".
//!
//! `SharedPmv::run_pinned` serves against one pinned
//! [`pmv_query::DbSnapshot`]. [`crate::epoch::EpochDb`] is the host and
//! owns every view it serves: its `query` pins the published snapshot
//! for each call, and its `commit` maintains every view it owns before
//! the next snapshot publishes.
//!
//! Lock ordering is uniform — database access is always acquired before
//! any shard lock, queries never wait on a shard lock at all, and
//! maintenance acquires its affected shards in ascending index order — so
//! the embedding is deadlock-free.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use parking_lot::RwLock;
use pmv_obs::{
    EventKind, FlightRecorder, ObsRegistry, Phase, TraceKind, TriggerReason, ViewMetrics,
};
use pmv_query::{execute, Database, DbSnapshot, QueryInstance};
use pmv_storage::{PackedRow, Tuple};
use pmv_sync::LeftRight;

use crate::bcp::BcpKey;
use crate::health::{CircuitBreaker, ShardReport, ValidationReport, VerifiedClock, ViewHealth};
use crate::o1::ConditionPart;
use crate::pipeline::QueryOutcome;
use crate::serve::{self, WriteBack};
use crate::stats::{AtomicPmvStats, PmvStats};
use crate::store::{PmvStore, Published, Rows};
use crate::view::{PartialViewDef, PmvConfig};
use crate::Result;

/// Trace-ring tail length captured in a flight-recorder dump: enough
/// recent query lifecycles to reconstruct the anomaly's neighbourhood
/// without spooling the whole ring.
const FLIGHT_TRACE_TAIL: usize = 16;

/// The state behind a [`SharedPmv`] handle; [`crate::serve`] and
/// [`crate::maintenance`] work on it directly.
pub(crate) struct Inner {
    pub(crate) def: PartialViewDef,
    pub(crate) config: PmvConfig,
    pub(crate) shards: Vec<RwLock<PmvStore>>,
    /// What each shard's readers see, for the wait-free O2 probe: its
    /// store's table as of the last publish, republished (under the
    /// shard's write guard) after every mutation that changes what the
    /// shard serves.
    views: Vec<LeftRight<Published>>,
    /// Epoch (database version) of the last completed maintenance, or
    /// of the view joining its host. Epoch-mode fills are gated on
    /// `pin_epoch >= maint_epoch`: a query pinned before the latest
    /// maintenance must not write back results that maintenance may
    /// already have evicted.
    pub(crate) maint_epoch: AtomicU64,
    /// Id of the [`crate::epoch::EpochDb`] that owns this view; 0 before
    /// it joins one, `u64::MAX` while a host attaches it.
    pub(crate) host: AtomicU64,
    pub(crate) stats: AtomicPmvStats,
    /// Per-view health state machine; Quarantined disables all serving.
    pub(crate) breaker: CircuitBreaker,
    /// When the view last completed maintenance or revalidation
    /// (staleness reference point).
    pub(crate) verified: VerifiedClock,
    /// Per-phase latency histograms + lifecycle trace ring. Enabled by
    /// default; when disabled, every record is one relaxed load.
    pub(crate) obs: ObsRegistry,
    /// View name as a shared `Arc<str>`: trace spans clone this instead
    /// of copying the name string on every query.
    pub(crate) trace_name: Arc<str>,
    /// Anomaly-triggered flight recorder. A dump locks the trace ring
    /// and performs sink IO, so triggers fire only from `EpochDb::query`
    /// *after* the pin is released — never inside a pin region.
    flight: OnceLock<Arc<FlightRecorder>>,
    /// Breaker trip count already seen by [`SharedPmv::flight_check`],
    /// so each trip produces one `breaker_trip` dump, not one per query.
    flight_trips_seen: AtomicU64,
}

impl Inner {
    /// Owning shard of the bcp whose [`PmvStore::hash_of`] is `hash`:
    /// its low 32 bits scaled to the shard count. The chunk within the
    /// shard comes from the high bits ([`crate::store`]'s `chunk_of`),
    /// so the shard's bcps spread over all of its chunks.
    pub(crate) fn shard_of(&self, hash: u64) -> usize {
        ((u64::from(hash as u32) * self.shards.len() as u64) >> 32) as usize
    }

    /// Owning shard of `bcp`.
    pub(crate) fn shard_of_bcp(&self, bcp: &BcpKey) -> usize {
        self.shard_of(PmvStore::hash_of(bcp))
    }

    /// Epoch of the last completed maintenance — the fill gate.
    pub(crate) fn maint_epoch(&self) -> u64 {
        // Acquire pairs with the Release in `maintain`.
        self.maint_epoch.load(Ordering::Acquire)
    }

    /// Publish shard `si`'s store to its readers: a pointer copy of its
    /// table, watermark and quarantine flag. Must be called while the
    /// caller still holds the shard's write guard, so the published view
    /// always reflects a consistent store state (and no other publisher
    /// of this shard runs).
    pub(crate) fn publish_shard(&self, si: usize, store: &PmvStore) {
        let t0 = Instant::now();
        self.views[si].publish(Arc::new(store.published()));
        self.obs.record(Phase::snapshot_swap, t0.elapsed());
    }

    /// O2 read side of shard `si`: call `each(part, rows, claimed)` for
    /// every `(bcp hash, part number, bcp)`, with the bcp's cached tuples
    /// (if resident: a byte range of the chunk, read past its slot) and
    /// whether the entry carries a valid completeness claim. The hash is the bcp's [`PmvStore::hash_of`].
    /// Returns `false`, calling nothing, when the shard is quarantined.
    // pmv::pin_region
    pub(crate) fn probe_shard<'p>(
        &self,
        si: usize,
        parts: impl Iterator<Item = (u64, usize, &'p BcpKey)>,
        mut each: impl FnMut(usize, Option<Rows<'_>>, bool),
    ) -> bool {
        // `load` is wait-free (bounded retry over the two left-right
        // slots); a concurrent publish can at worst hand us the previous
        // consistent view.
        let sv = self.views[si].load();
        if sv.quarantined {
            return false;
        }
        for (hash, part, bcp) in parts {
            let entry = sv.table.get(hash, bcp);
            let claimed = entry.is_some_and(|e| e.complete == Some(sv.inserts_seen));
            each(part, entry.map(|e| e.rows), claimed);
        }
        true
    }

    /// Run `apply(store, maint_epoch)` on shard `si`'s store under its
    /// write guard — `maint_epoch` re-read once the guard is held — and
    /// republish the shard if its store's table is no longer the one it
    /// last published ([`PmvStore::unpublished`], read from the store
    /// itself, not from the view): `apply` changed what it serves
    /// (touches change only policy state and hit counts, in place; a
    /// quarantine installs a fresh table). `None` when the guard was
    /// contended or `apply` itself declined (quarantined store).
    // pmv::pin_region
    pub(crate) fn try_write_shard(
        &self,
        si: usize,
        apply: impl FnOnce(&mut PmvStore, u64) -> Option<WriteBack>,
    ) -> Option<WriteBack> {
        let mut store = self.shards[si].try_write()?;
        let done = apply(&mut store, self.maint_epoch())?;
        if store.unpublished() {
            // pmv::allow(pin_reaches_blocking_lock): LeftRight::publish
            // takes the writer-side mutex, which only fills contend on —
            // never the wait-free reader path. A cold-shard fill is
            // already the slow path (DESIGN.md "Serving path").
            self.publish_shard(si, &store);
        }
        Some(done)
    }
}

/// A clonable, thread-safe handle to one bcp-hash-sharded PMV.
#[derive(Clone)]
pub struct SharedPmv {
    pub(crate) inner: Arc<Inner>,
}

impl SharedPmv {
    /// An (initially empty) PMV with one shard per available hardware
    /// thread.
    pub fn new(def: PartialViewDef, config: PmvConfig) -> Self {
        let n = std::thread::available_parallelism().map_or(4, usize::from);
        SharedPmv::with_shards(def, config, n)
    }

    /// Sharded PMV with an explicit shard count (≥ 1). Each shard's store
    /// gets capacity `⌈L/N⌉`, so total capacity stays within one shard's
    /// rounding of the configured `L`, and its Section 3.4 delta-key
    /// index.
    pub fn with_shards(def: PartialViewDef, config: PmvConfig, shards: usize) -> Self {
        let n = shards.max(1);
        let per_shard = config.l.div_ceil(n).max(1);
        let (shards, views) = (0..n)
            .map(|_| {
                let mut store = PmvStore::with_capacity(&config, per_shard);
                store.enable_index(crate::delta_index::DeltaKeyIndex::for_view(&def));
                let view = LeftRight::new(Arc::new(store.published()));
                (RwLock::new(store), view)
            })
            .unzip();
        let breaker = CircuitBreaker::default();
        let trace_name: Arc<str> = Arc::from(def.name());
        SharedPmv {
            inner: Arc::new(Inner {
                def,
                config,
                shards,
                views,
                maint_epoch: AtomicU64::new(0),
                host: AtomicU64::new(0),
                stats: AtomicPmvStats::new(),
                breaker,
                verified: VerifiedClock::new(),
                obs: ObsRegistry::new(),
                trace_name,
                flight: OnceLock::new(),
                flight_trips_seen: AtomicU64::new(0),
            }),
        }
    }

    /// The view definition.
    pub fn def(&self) -> &PartialViewDef {
        &self.inner.def
    }

    /// The tuning knobs.
    pub fn config(&self) -> &PmvConfig {
        &self.inner.config
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.inner.shards.len()
    }

    /// Run one query through O1/O2/O3 ([`crate::serve`]) against the
    /// pinned snapshot `snap`: O2 reads the published shard views
    /// wait-free, O3 executes against the snapshot, and every cache
    /// write-back (fills *and* policy touches) is best-effort —
    /// `try_write`, skipped under contention — so between pinning and the
    /// answer no lock is ever waited on. [`crate::epoch::EpochDb::query`]
    /// and `query_at` call this once the view is attached.
    // pmv::pin_region
    pub(crate) fn run_pinned(&self, snap: &DbSnapshot, q: &QueryInstance) -> Result<QueryOutcome> {
        serve::query(&self.inner, snap, q)
    }

    /// Re-execute each resident bcp's query shard by shard and drop any
    /// cached tuple not in the current answer. Returns tuples removed.
    /// Useful after direct base mutations that bypassed maintenance, and
    /// the oracle the property tests use.
    ///
    /// This is also the repair path: quarantined shards are empty, so
    /// revalidation trivially verifies them, lifts their quarantine (they
    /// refill lazily through O3), and resets the circuit breaker back to
    /// Healthy.
    pub fn revalidate(&self, db: &Database) -> Result<usize> {
        let inner = &*self.inner;
        let t_start = Instant::now();
        let mut trace = inner
            .obs
            .begin_trace_shared(TraceKind::Revalidate, &inner.trace_name);
        let mut removed = 0;
        for (si, shard) in inner.shards.iter().enumerate() {
            // Phase 1: snapshot the resident bcps under a brief read
            // guard, then re-derive each bcp's truth with NO shard lock
            // held. Holding the write guard across the executor (as this
            // loop originally did) blocked the shard for the whole sweep
            // and violated the `write_guard_across_exec` contract that
            // `pmv-analyze` checks.
            let bcps: Vec<BcpKey> = {
                let store = shard.read();
                store.iter().map(|(k, _)| k.clone()).collect()
            };
            let truths = bcp_truths(db, &inner.def, &bcps)?;
            // Phase 2: apply the diff under the write guard. Tuples
            // filled concurrently between the phases came from O3
            // executions against the same database state (the caller
            // holds the DB guard for the sweep), so the truth multisets
            // are still current; removal-only keeps this sound either
            // way.
            let t_lock = Instant::now();
            let mut store = shard.write();
            inner.obs.record(Phase::lock_shard_maint, t_lock.elapsed());
            for (bcp, mut budget) in truths {
                removed += remove_stale(&mut store, &bcp, &mut budget);
            }
            store.lift_quarantine();
            inner.publish_shard(si, &store);
        }
        // The sweep closes the failure episode: clear transient
        // panic/quarantine tallies (counters AND `[transient]`-tagged
        // histograms — the `[keep]` latency series survive) with the
        // breaker, then record it.
        inner.stats.reset_transient();
        inner.obs.reset_transient();
        let local = PmvStats {
            revalidations: 1,
            ..Default::default()
        };
        inner.stats.add(&local);
        inner.breaker.reset();
        inner.verified.mark();
        inner.obs.record(Phase::revalidate, t_start.elapsed());
        trace.event(EventKind::Revalidated { removed });
        Ok(removed)
    }

    /// Per-phase latency histograms and the lifecycle trace ring.
    pub fn obs(&self) -> &ObsRegistry {
        &self.inner.obs
    }

    /// Attach an anomaly-triggered flight recorder (first attach wins).
    /// Dumps fire from `EpochDb::query` after the pin drops — never
    /// inside a pin region, because a dump locks the trace ring and
    /// performs sink IO.
    pub fn attach_flight(&self, recorder: Arc<FlightRecorder>) {
        let _ = self.inner.flight.set(recorder);
    }

    /// Whether a flight recorder is attached (one atomic load — the
    /// entire per-query cost when none is).
    pub fn flight_attached(&self) -> bool {
        self.inner.flight.get().is_some()
    }

    /// Inspect one finished query for anomalies and dump the flight
    /// recorder if one fired: a breaker trip since the last check
    /// (`breaker_trip`, or `quarantine` when the trip landed there), a
    /// degraded outcome, or end-to-end latency over the armed threshold.
    ///
    /// Must not be called while an epoch snapshot is pinned or a shard
    /// guard is held — the dump locks the trace ring and writes to the
    /// spool sink.
    pub fn flight_check(&self, outcome: &QueryOutcome, total: Duration) -> Option<PathBuf> {
        let inner = &*self.inner;
        let fr = inner.flight.get()?;
        let trips = inner.breaker.trip_count();
        // `swap` claims the trip for this thread: racing queries see the
        // updated count and dump nothing (trip counts are monotonic).
        let tripped = trips > inner.flight_trips_seen.swap(trips, Ordering::AcqRel);
        let reason = if tripped && inner.breaker.state() == ViewHealth::Quarantined {
            TriggerReason::Quarantine
        } else if tripped {
            TriggerReason::BreakerTrip
        } else if outcome.degraded.is_some() {
            TriggerReason::Degraded
        } else if fr.armed() && total.as_nanos() as u64 >= fr.latency_threshold_ns() {
            TriggerReason::LatencyThreshold
        } else {
            return None;
        };
        self.flight_dump(reason, total)
    }

    /// Unconditionally dump the flight recorder (if attached and within
    /// its dump budget): the trace-ring tail plus [`Self::metrics`],
    /// spooled through the recorder's sink.
    pub fn flight_dump(&self, reason: TriggerReason, total: Duration) -> Option<PathBuf> {
        let fr = self.inner.flight.get()?;
        let traces = self.inner.obs.trace().tail(FLIGHT_TRACE_TAIL);
        fr.trigger(reason, total.as_micros() as u64, traces, self.metrics())
    }

    /// Toggle observability recording at runtime. Disabled recording
    /// costs one relaxed load per call site on the serving path.
    pub fn set_obs_enabled(&self, on: bool) {
        self.inner.obs.set_enabled(on);
    }

    /// Current health of the view (circuit-breaker state).
    pub fn health(&self) -> ViewHealth {
        self.inner.breaker.state()
    }

    /// The per-view circuit breaker (error rate, trip count).
    pub fn breaker(&self) -> &CircuitBreaker {
        &self.inner.breaker
    }

    /// Upper bound on partial-result staleness: time since the view last
    /// completed maintenance or revalidation.
    pub fn staleness(&self) -> Duration {
        self.inner.verified.staleness()
    }

    /// Number of currently quarantined (drained) shards.
    pub fn quarantined_shards(&self) -> usize {
        self.inner
            .shards
            .iter()
            .filter(|s| s.read().is_quarantined())
            .count()
    }

    /// Snapshot of the statistics.
    pub fn stats(&self) -> PmvStats {
        self.inner.stats.snapshot()
    }

    /// Zero the statistics (e.g. after a warm-up phase).
    pub fn reset_stats(&self) {
        self.inner.stats.reset();
    }

    /// Total bcp entries across all shards.
    pub fn entry_count(&self) -> usize {
        self.inner
            .shards
            .iter()
            .map(|s| s.read().entry_count())
            .sum()
    }

    /// Total cached tuples across all shards.
    pub fn tuple_count(&self) -> usize {
        self.inner
            .shards
            .iter()
            .map(|s| s.read().tuple_count())
            .sum()
    }

    /// Bytes cached across all shards, exactly as each store charges
    /// them ([`PmvStore::byte_size`]).
    pub fn byte_size(&self) -> usize {
        self.inner.shards.iter().map(|s| s.read().byte_size()).sum()
    }

    /// Total entries evicted by the shard policies so far.
    pub fn evictions(&self) -> u64 {
        self.inner.shards.iter().map(|s| s.read().evictions()).sum()
    }

    /// Resident fraction of the policies' capacity in `[0, 1]`, averaged
    /// over the shards — the `occupancy` telemetry gauge.
    pub fn occupancy(&self) -> f64 {
        let shards = &self.inner.shards;
        shards.iter().map(|s| s.read().occupancy()).sum::<f64>() / shards.len() as f64
    }

    /// Tuples cached for `bcp` as full `Ls'` rows (with their fill
    /// epochs), if resident. Reads the owning shard's store; does not
    /// touch the policy.
    pub fn lookup(&self, bcp: &BcpKey) -> Option<Vec<(Arc<Tuple>, u64)>> {
        let layout = self.inner.def.layout();
        let store = self.inner.shards[self.inner.shard_of_bcp(bcp)].read();
        let (dims, mut row): (Vec<_>, _) = (bcp.values().collect(), Vec::new());
        store.rows(bcp).map(|cached| {
            let (mut rows, mut out) = (cached.iter(&mut row), Vec::with_capacity(cached.len()));
            while let Some((t, e)) = rows.next_row() {
                out.push((layout.rebuild_with(t, &dims), e));
            }
            out
        })
    }

    /// Whether the entry of `part`'s bcp holds a tuple inside `part` of
    /// `q` — read through the layout, nothing rebuilt. Does not touch the
    /// policy.
    pub(crate) fn has_witness(&self, part: &ConditionPart, q: &QueryInstance) -> bool {
        let def = &self.inner.def;
        let store = self.inner.shards[self.inner.shard_of_bcp(&part.bcp)].read();
        let (dims, mut row): (Vec<_>, _) = (part.bcp.values().collect(), Vec::new());
        store.rows(&part.bcp).is_some_and(|cached| {
            let mut rows = cached.iter(&mut row);
            while let Some((t, _)) = rows.next_row() {
                if part.is_basic || def.stored_matches_select(q, t, &dims) {
                    return true;
                }
            }
            false
        })
    }

    /// Popularity of `bcp`: number of queries it served (ranking
    /// extension; see `ext::ranking`).
    pub fn hit_count(&self, bcp: &BcpKey) -> u64 {
        let store = self.inner.shards[self.inner.shard_of_bcp(bcp)].read();
        store.hit_count(bcp)
    }

    /// Every cached `(bcp, tuples)` as full `Ls'` rows, bcps and each
    /// bcp's tuples in ascending order — a canonical dump for state
    /// comparison.
    pub fn dump(&self) -> Vec<(BcpKey, Vec<Tuple>)> {
        let layout = self.inner.def.layout();
        let (mut out, mut row): (Vec<(BcpKey, Vec<Tuple>)>, _) = (Vec::new(), Vec::new());
        for shard in &self.inner.shards {
            for (bcp, cached) in shard.read().iter() {
                let dims: Vec<_> = bcp.values().collect();
                let (mut rows, mut tuples) = (cached.iter(&mut row), Vec::new());
                while let Some((t, _)) = rows.next_row() {
                    tuples.push(Arc::unwrap_or_clone(layout.rebuild_with(t, &dims)));
                }
                tuples.sort();
                out.push((bcp.clone(), tuples));
            }
        }
        out.sort();
        out
    }

    /// Exportable telemetry: every `PmvStats` counter, the derived
    /// probability gauges, breaker state, and the per-phase latency
    /// snapshots — the feed for `pmv_obs::to_prometheus`, the JSON
    /// documents of `pmv_wal::telemetry`, flight dumps and the profile
    /// report's template row.
    pub fn metrics(&self) -> ViewMetrics {
        let stats = self.stats();
        let mut counters = stats.as_pairs();
        // The two O2 outcomes no single counter holds (a hit is
        // `serving_queries`): entry found but nothing servable, and no
        // probed bcp cached at all. Saturating: a snapshot taken under
        // load may mix adjacent relaxed updates.
        let hits = stats.bcp_hit_queries;
        counters.push(("o2_partial", hits.saturating_sub(stats.serving_queries)));
        counters.push(("o2_miss", stats.queries.saturating_sub(hits)));
        let gauges = [
            ("hit_probability", stats.hit_probability()),
            ("serving_probability", stats.serving_probability()),
            ("degraded_query_rate", stats.degraded_query_rate()),
            ("store_bytes", self.byte_size() as f64),
            ("occupancy", self.occupancy()),
            ("quarantined_shards", self.quarantined_shards() as f64),
        ];
        ViewMetrics {
            name: self.def().name().to_string(),
            template: Some(self.def().template().name().to_string()),
            health: self.health().as_str().to_string(),
            error_rate: self.breaker().error_rate(),
            trips: self.breaker().trip_count(),
            last_verified_age_ms: self.staleness().as_millis() as u64,
            counters: counters
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
            gauges: gauges
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
            phases: self.obs().snapshots(),
        }
    }

    /// Check every shard's structural invariants, returning a typed
    /// report instead of panicking (safe to call in production).
    pub fn validate(&self) -> ValidationReport {
        let shards = self
            .inner
            .shards
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let store = s.read();
                ShardReport {
                    shard: i,
                    quarantined: store.is_quarantined(),
                    violations: store.check(),
                }
            })
            .collect();
        ValidationReport { shards }
    }

    /// Panicking variant of [`Self::validate`] for tests.
    pub fn debug_validate(&self) {
        let report = self.validate();
        assert!(
            report.is_consistent(),
            "shard invariants violated:\n{report}"
        );
    }
}

/// Revalidation phase 1: for each cached bcp, re-derive the multiset of
/// tuples its query produces from current base truth, in the view's
/// stored layout. Pure executor reads — no store access — so this runs
/// with no shard lock held (repo lock rule: never hold a shard guard
/// across a call into `query::exec`).
fn bcp_truths(
    db: &Database,
    def: &PartialViewDef,
    bcps: &[BcpKey],
) -> Result<Vec<(BcpKey, HashMap<PackedRow, usize>)>> {
    let mut out = Vec::with_capacity(bcps.len());
    for bcp in bcps {
        let q = def.bcp_query(bcp)?;
        let (truth, _) = execute(db, &q)?;
        let mut budget: HashMap<PackedRow, usize> = HashMap::new();
        for t in truth {
            // Every truth row lies in `bcp`, so its stored form decides
            // equality with a cached tuple.
            *budget.entry(def.layout().store(&t)).or_insert(0) += 1;
        }
        out.push((bcp.clone(), budget));
    }
    Ok(out)
}

/// Revalidation phase 2: drop the cached tuples of `bcp` that exceed the
/// truth multiset, compared byte for byte. Runs under the store's
/// exclusive guard; removal-only, hence always sound.
fn remove_stale(
    store: &mut PmvStore,
    bcp: &BcpKey,
    budget: &mut HashMap<PackedRow, usize>,
) -> usize {
    store.retain(bcp, |row| match budget.get_mut(row.as_bytes()) {
        Some(n) if *n > 0 => {
            *n -= 1;
            true
        }
        _ => false,
    })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::epoch::EpochDb;
    use crate::pipeline::run_plain;
    use pmv_cache::PolicyKind;
    use pmv_index::IndexDef;
    use pmv_query::{Condition, TemplateBuilder, Transaction};
    use pmv_storage::{tuple, Column, ColumnType, Schema, Value};

    /// Plant `tuple` under `bcp` straight into its shard store, admitting
    /// the bcp first: a cached tuple no base row derives, which no
    /// maintained commit can leave behind — the stale tuple `revalidate`
    /// exists to find.
    pub(crate) fn seed_stale(view: &SharedPmv, bcp: &BcpKey, tuple: Tuple) {
        let inner = &view.inner;
        let si = inner.shard_of_bcp(bcp);
        let stored = inner.def.layout().stored_values(&tuple);
        let mut store = inner.shards[si].write();
        store.admit(bcp);
        let filled = store.fill(bcp, std::iter::once(stored), 0);
        assert_eq!(filled, 1, "no room under {bcp:?}");
        inner.publish_shard(si, &store);
    }

    fn setup(shards: usize) -> (EpochDb, SharedPmv) {
        let mut db = Database::new();
        db.create_relation(Schema::new(
            "r",
            vec![
                Column::new("a", ColumnType::Int),
                Column::new("f", ColumnType::Int),
            ],
        ))
        .unwrap();
        for i in 0..500i64 {
            db.insert("r", tuple![i, i % 10]).unwrap();
        }
        db.create_index(IndexDef::btree("r", vec![1])).unwrap();
        let t = TemplateBuilder::new("t")
            .relation(db.schema("r").unwrap())
            .select("r", "a")
            .unwrap()
            .cond_eq("r", "f")
            .unwrap()
            .build()
            .unwrap();
        let def = PartialViewDef::all_equality("shared", t).unwrap();
        let shared = SharedPmv::with_shards(def, PmvConfig::new(3, 16, PolicyKind::Clock), shards);
        (EpochDb::new(db), shared)
    }

    /// `read_hot`'s bcp universe — dates `0..2406` × suppliers
    /// `1..=200`, at the benchmark's L = 8 192 over 4 shards — placed by
    /// the one hash: each shard gets a quarter of it within 5 %, and no
    /// chunk holds more than twice its shard's mean.
    #[test]
    fn read_hot_bcps_spread_over_shards_and_chunks() {
        let (_, base) = setup(1);
        let config = PmvConfig::new(3, 8_192, PolicyKind::Clock);
        let shared = SharedPmv::with_shards(base.def().clone(), config, 4);
        let inner = &shared.inner;
        let tables: Vec<_> = inner
            .shards
            .iter()
            .map(|s| s.read().table().clone())
            .collect();
        let chunks = tables[0].chunks().len();
        assert_eq!(chunks, 64, "⌈2 048 / 32⌉ chunks per shard");
        let mut per_chunk = vec![vec![0usize; chunks]; 4];
        for date in 0..2_406i64 {
            for supp in 1..=200i64 {
                let key = BcpKey::new(vec![
                    crate::bcp::BcpDim::Eq(Value::Int(date)),
                    crate::bcp::BcpDim::Eq(Value::Int(supp)),
                ]);
                let hash = PmvStore::hash_of(&key);
                let si = inner.shard_of(hash);
                per_chunk[si][tables[si].chunk_of(hash)] += 1;
            }
        }
        let quarter = 2_406.0 * 200.0 / 4.0;
        for (si, counts) in per_chunk.iter().enumerate() {
            let n: usize = counts.iter().sum();
            assert!(
                (n as f64 - quarter).abs() <= 0.05 * quarter,
                "shard {si} holds {n}"
            );
            let mean = n as f64 / chunks as f64;
            let max = *counts.iter().max().unwrap();
            assert!(
                max as f64 <= 2.0 * mean,
                "shard {si}: a chunk of {max}, mean {mean}"
            );
        }
    }

    #[test]
    fn clones_share_state() {
        let (edb, shared) = setup(4);
        let clone = shared.clone();
        let t = shared.def().template().clone();
        let q = t
            .bind(vec![Condition::Equality(vec![Value::Int(3)])])
            .unwrap();
        edb.query(&shared, &q).unwrap();
        // The clone sees the warm cache.
        let out = edb.query(&clone, &q).unwrap();
        assert!(out.bcp_hit);
        assert_eq!(clone.stats().queries, 2);
        shared.debug_validate();
    }

    #[test]
    fn sharded_matches_plain_execution() {
        let (edb, shared) = setup(4);
        let t = shared.def().template().clone();
        for round in 0..3 {
            for f in 0..10i64 {
                let q = t
                    .bind(vec![Condition::Equality(vec![Value::Int(f)])])
                    .unwrap();
                let (mut plain, _, _) = run_plain(&edb.read(), &q).unwrap();
                let out = edb.query(&shared, &q).unwrap();
                let mut got = out.all_results();
                got.sort();
                plain.sort();
                assert_eq!(got, plain, "round {round} f={f}");
                assert_eq!(out.ds_leftover, 0);
            }
        }
        shared.debug_validate();
        // 10 distinct bcps over 4 shards of ⌈16/4⌉ = 4 entries; hash
        // imbalance may evict a few, but warm entries must exist and
        // later rounds must hit them.
        assert!(shared.entry_count() >= 1 && shared.entry_count() <= 10);
        assert_eq!(shared.stats().queries, 30);
        assert!(shared.stats().bcp_hit_queries >= 1);
    }

    #[test]
    fn single_shard_behaves_like_unsharded() {
        let (edb, shared) = setup(1);
        assert_eq!(shared.shard_count(), 1);
        let t = shared.def().template().clone();
        let q = t
            .bind(vec![Condition::Equality(vec![Value::Int(3)])])
            .unwrap();
        edb.query(&shared, &q).unwrap();
        let out = edb.query(&shared, &q).unwrap();
        assert!(out.bcp_hit);
        assert_eq!(out.partial.len(), 3); // F = 3 cached tuples served
        shared.debug_validate();
    }

    /// Every shard publishes its store's own table: the published spine
    /// is the store's, with its watermark and quarantine flag, and every
    /// entry sits in this shard and in the chunk, under the tag, its hash
    /// names.
    fn assert_views_current(shared: &SharedPmv, context: &str) {
        let inner = &shared.inner;
        for (si, shard) in inner.shards.iter().enumerate() {
            let view = inner.views[si].load();
            let store = shard.read();
            assert!(
                view.table.ptr_eq(store.table())
                    && (view.inserts_seen, view.quarantined)
                        == (store.inserts_seen(), store.is_quarantined()),
                "{context}: shard {si}'s view is not its store"
            );
            for (ci, chunk) in view.table.chunks().iter().enumerate() {
                for (hash, entry) in chunk.entries() {
                    let bcp = &BcpKey::from_row(entry.key);
                    assert_eq!(
                        (
                            inner.shard_of_bcp(bcp),
                            PmvStore::hash_of(bcp),
                            view.table.chunk_of(hash)
                        ),
                        (si, hash, ci),
                        "{context}: misplaced {bcp:?}"
                    );
                }
            }
            assert_eq!(store.check(), Vec::<String>::new(), "{context}");
        }
    }

    /// The view oracle: one script (one- and two-part queries, inserts,
    /// deletes, updates; 6 bcps over L = 4, so evictions too) against a
    /// 1-shard and a 4-shard view. After every step each shard's
    /// published view is its store's own table — across an insert-only
    /// batch and a quarantine/`revalidate` cycle as well — and both views
    /// answer like the plain executor.
    #[test]
    fn published_views_track_their_stores() {
        let mut db = Database::new();
        db.create_relation(Schema::new(
            "r",
            vec![
                Column::new("a", ColumnType::Int),
                Column::new("f", ColumnType::Int),
            ],
        ))
        .unwrap();
        for i in 0..36i64 {
            db.insert("r", tuple![i, i % 6]).unwrap();
        }
        db.create_index(IndexDef::btree("r", vec![1])).unwrap();
        db.create_index(IndexDef::btree("r", vec![0])).unwrap();
        db.declare_unique_key("r", &["a"]).unwrap();
        let t = TemplateBuilder::new("t")
            .relation(db.schema("r").unwrap())
            .select("r", "a")
            .unwrap()
            .cond_eq("r", "f")
            .unwrap()
            .build()
            .unwrap();
        let config = PmvConfig::new(8, 4, PolicyKind::Clock);
        let def = |name: &str| PartialViewDef::all_equality(name, t.clone()).unwrap();
        let views = [
            SharedPmv::with_shards(def("one_shard"), config.clone(), 1),
            SharedPmv::with_shards(def("four_shards"), config, 4),
        ];
        let edb = EpochDb::new(db);

        let mut rng: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut next = |n: u64| {
            rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((rng >> 33) % n) as i64
        };
        for step in 0..400i64 {
            let f = next(6);
            let kind = next(20);
            if step == 200 {
                // Drain a shard of each view the way a failed
                // maintenance would, then repair.
                for v in &views {
                    let mut store = v.inner.shards[0].write();
                    store.quarantine();
                    v.inner.publish_shard(0, &store);
                    drop(store);
                    assert_views_current(v, "quarantined");
                    assert_eq!(v.quarantined_shards(), 1);
                    v.revalidate(&edb.read()).unwrap();
                    assert_eq!(v.quarantined_shards(), 0);
                }
            } else if kind < 17 {
                let mut values = vec![Value::Int(f)];
                if kind < 6 {
                    values.push(Value::Int((f + 1 + next(5)) % 6));
                }
                let q = t.bind(vec![Condition::Equality(values)]).unwrap();
                let (mut plain, _, _) = run_plain(&edb.read(), &q).unwrap();
                plain.sort();
                for v in &views {
                    let out = edb.query(v, &q).unwrap();
                    assert_eq!(out.ds_leftover, 0, "step {step}");
                    let mut got = out.all_results();
                    got.sort();
                    assert_eq!(got, plain, "step {step}");
                }
            } else {
                let row = edb
                    .read()
                    .relation("r")
                    .unwrap()
                    .iter()
                    .find(|(_, tu)| tu.get(1) == &Value::Int(f))
                    .map(|(r, _)| r);
                let new_f = (kind == 19 && row.is_some()).then(|| Value::Int(next(6)));
                edb.commit(&[&views[0], &views[1]], move |db| {
                    let mut txn = Transaction::begin(db);
                    match (kind, row, new_f) {
                        (17, _, _) => drop(txn.insert("r", tuple![1000 + step, f])?),
                        (18, Some(row), _) => drop(txn.delete("r", row)?),
                        (19, Some(row), Some(new_f)) => {
                            let a = txn.get("r", row)?.get(0).clone();
                            drop(txn.update("r", row, Tuple::new(vec![a, new_f]))?);
                        }
                        _ => {}
                    }
                    Ok(((), txn.commit()))
                })
                .unwrap();
            }
            for v in &views {
                assert_views_current(v, &format!("step {step}"));
            }
        }
        for v in &views {
            let stats = v.stats();
            assert!(
                stats.complete_serves > 0 && stats.upqueries > 0,
                "{stats:?}"
            );
            assert!(stats.maint_inserts_ignored > 0, "{stats:?}");
            assert!(v.evictions() > 0);
            assert_eq!(v.revalidate(&edb.read()).unwrap(), 0);
        }
    }

    /// Publication is O(|Δ|) by structure, no clock needed: a one-bcp
    /// cold fill into a full shard copies the filled bcp's chunk and at
    /// most one victim's; every other chunk `Arc` is the previous
    /// view's. An insert-only batch shares the whole spine.
    #[test]
    fn cold_fill_republishes_only_dirty_chunks() {
        let mut db = Database::new();
        db.create_relation(Schema::new(
            "r",
            vec![
                Column::new("a", ColumnType::Int),
                Column::new("f", ColumnType::Int),
            ],
        ))
        .unwrap();
        for i in 0..2_000i64 {
            db.insert("r", tuple![i, i % 1_000]).unwrap();
        }
        db.create_index(IndexDef::btree("r", vec![1])).unwrap();
        let t = TemplateBuilder::new("t")
            .relation(db.schema("r").unwrap())
            .select("r", "a")
            .unwrap()
            .cond_eq("r", "f")
            .unwrap()
            .build()
            .unwrap();
        let def = PartialViewDef::all_equality("big", t.clone()).unwrap();
        let shared = SharedPmv::with_shards(def, PmvConfig::new(2, 640, PolicyKind::Clock), 1);
        let edb = EpochDb::new(db);
        let run = |f: i64| {
            let q = t
                .bind(vec![Condition::Equality(vec![Value::Int(f)])])
                .unwrap();
            edb.query(&shared, &q).unwrap();
        };
        for f in 0..640 {
            run(f);
        }
        assert_eq!(shared.entry_count(), 640);
        // Asked once, 999 ties every resident and is declined; asked
        // again below, it out-counts its victim.
        run(999);
        assert_eq!(shared.stats().admissions_declined, 1);
        let before = shared.inner.views[0].load();
        let chunks = before.table.chunks().len();
        assert_eq!(chunks, 640 / crate::store::CHUNK_ENTRIES);
        run(999); // cold: admits, evicts one victim, fills
        assert_eq!((shared.entry_count(), shared.evictions()), (640, 1));
        let after = shared.inner.views[0].load();
        let shared_chunks = (0..chunks)
            .filter(|&c| Arc::ptr_eq(&before.table.chunks()[c], &after.table.chunks()[c]))
            .count();
        assert!(
            (chunks - 2..chunks).contains(&shared_chunks),
            "{shared_chunks} of {chunks} chunks shared"
        );
        assert_views_current(&shared, "after the cold fill");

        edb.commit(&[&shared], |db| {
            let mut txn = Transaction::begin(db);
            txn.insert("r", tuple![5_000i64, 0i64])?;
            Ok(((), txn.commit()))
        })
        .unwrap();
        let bumped = shared.inner.views[0].load();
        assert!(after.table.ptr_eq(&bumped.table), "spine shared");
        assert_eq!(bumped.inserts_seen, after.inserts_seen + 1);
    }

    /// A query every probed bcp serves changes only policy state and hit
    /// counts, which the store writes in place: its table stays the
    /// published one and no shard publishes, however often it runs.
    #[test]
    fn an_all_hit_query_publishes_nothing() {
        let (edb, shared) = setup(4);
        let t = shared.def().template().clone();
        let q = t
            .bind(vec![Condition::Equality(vec![
                Value::Int(3),
                Value::Int(6),
            ])])
            .unwrap();
        edb.query(&shared, &q).unwrap();
        let bcps = [3, 6].map(|f| BcpKey::new(vec![crate::bcp::BcpDim::Eq(Value::Int(f))]));
        let hits = bcps.clone().map(|b| shared.hit_count(&b));
        let versions = |v: &SharedPmv| -> Vec<usize> {
            v.inner.views.iter().map(LeftRight::version_hint).collect()
        };
        let published = versions(&shared);
        for _ in 0..100 {
            let out = edb.query(&shared, &q).unwrap();
            assert_eq!(out.partial.len(), 6, "F = 3 per bcp, all served");
        }
        assert_eq!(versions(&shared), published);
        for (bcp, before) in bcps.iter().zip(hits) {
            assert_eq!(shared.hit_count(bcp), before + 100, "{bcp:?}");
        }
        shared.debug_validate();
    }

    #[test]
    fn per_shard_capacity_splits_l() {
        let (_edb, shared) = setup(4);
        // L = 16 over 4 shards → 4 per shard.
        for shard in &shared.inner.shards {
            assert_eq!(shard.read().l(), 4);
        }
        let (_edb, one) = setup(1);
        assert_eq!(one.inner.shards[0].read().l(), 16);
    }

    #[test]
    fn maintenance_locks_only_affected_shards() {
        let (edb, shared) = setup(4);
        let t = shared.def().template().clone();
        // Warm all ten bcps.
        for f in 0..10i64 {
            let q = t
                .bind(vec![Condition::Equality(vec![Value::Int(f)])])
                .unwrap();
            edb.query(&shared, &q).unwrap();
        }
        // Hold a read lock on a shard that f=3's bcp does NOT hash to;
        // maintenance for a row with f=3 must not block on it.
        let bcp3 = BcpKey::new(vec![crate::bcp::BcpDim::Eq(Value::Int(3))]);
        let affected = shared.inner.shard_of_bcp(&bcp3);
        let other = (affected + 1) % shared.shard_count();
        let _outside_guard = shared.inner.shards[other].read();

        let row = edb
            .read()
            .relation("r")
            .unwrap()
            .iter()
            .find(|(_, tu)| tu.get(1) == &Value::Int(3))
            .map(|(r, _)| r)
            .unwrap();
        edb.commit(&[&shared], move |db| {
            let mut txn = Transaction::begin(db);
            txn.delete("r", row)?;
            Ok(((), txn.commit()))
        })
        .unwrap();
        assert_eq!(shared.stats().maint_deletes_joined, 1);
        drop(_outside_guard);
        shared.debug_validate();
    }

    #[test]
    fn concurrent_queries_and_maintenance_stay_consistent() {
        let (edb, shared) = setup(4);
        let edb = Arc::new(edb);
        let t = shared.def().template().clone();

        let mut handles = Vec::new();
        for thread in 0..4 {
            let shared = shared.clone();
            let edb = Arc::clone(&edb);
            let t = t.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..50i64 {
                    if thread == 0 && i % 5 == 0 {
                        // Maintainer thread: the commit maintains the view
                        // before the new database state publishes.
                        edb.commit(&[&shared], move |db| {
                            let mut txn = Transaction::begin(db);
                            txn.insert("r", tuple![1000 + i, i % 10])?;
                            Ok(((), txn.commit()))
                        })
                        .unwrap();
                    } else {
                        let q = t
                            .bind(vec![Condition::Equality(vec![Value::Int(i % 10)])])
                            .unwrap();
                        let out = edb.query(&shared, &q).unwrap();
                        assert_eq!(out.ds_leftover, 0, "stale partial result");
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let removed = shared.revalidate(&edb.read()).unwrap();
        assert_eq!(removed, 0, "no stale tuples after concurrent run");
        assert!(shared.stats().queries > 100);
        shared.debug_validate();
    }

    #[test]
    fn queries_record_phases_and_traces() {
        let (edb, shared) = setup(4);
        let t = shared.def().template().clone();
        let q = t
            .bind(vec![Condition::Equality(vec![Value::Int(3)])])
            .unwrap();
        edb.query(&shared, &q).unwrap();
        let out = edb.query(&shared, &q).unwrap();
        assert!(out.bcp_hit);
        for phase in [
            Phase::ttfr,
            Phase::full,
            Phase::o1_decompose,
            Phase::o3_exec,
        ] {
            let snap = shared.obs().snapshot(phase);
            assert_eq!(snap.count(), 2, "{} must record per query", phase.as_str());
        }
        // TTFR (through O2 only) is never slower than the full query.
        let ttfr = shared.obs().snapshot(Phase::ttfr);
        let full = shared.obs().snapshot(Phase::full);
        assert!(ttfr.sum_ns() <= full.sum_ns());
        // Per-shard probes: at least one per query, each traced.
        assert!(shared.obs().snapshot(Phase::o2_probe).count() >= 2);
        let traces = shared.obs().trace().tail(10);
        assert_eq!(traces.len(), 2);
        let hit = &traces[1];
        assert_eq!(&*hit.template, "shared");
        let names: Vec<_> = hit.events.iter().map(|e| e.kind.name()).collect();
        for expected in [
            "decompose",
            "breaker",
            "shard_probe",
            "first_results",
            "exec",
        ] {
            assert!(names.contains(&expected), "missing {expected} in {names:?}");
        }
        assert!(
            hit.events.iter().any(|e| matches!(
                e.kind,
                EventKind::FirstResults { tuples, bcp_hit, .. } if tuples > 0 && bcp_hit
            )),
            "{hit}"
        );
    }

    #[test]
    fn revalidate_keeps_latency_history_but_resets_degraded() {
        let (edb, shared) = setup(2);
        let t = shared.def().template().clone();
        let q = t
            .bind(vec![Condition::Equality(vec![Value::Int(3)])])
            .unwrap();
        edb.query(&shared, &q).unwrap();
        // A zero-budget view degrades every query, filling the
        // [transient] degraded histogram.
        let def = PartialViewDef::all_equality("tight", t.clone()).unwrap();
        let tight = SharedPmv::with_shards(
            def,
            PmvConfig::new(3, 16, PolicyKind::Clock).with_row_budget(0),
            2,
        );
        edb.query(&tight, &q).unwrap();
        assert_eq!(tight.obs().snapshot(Phase::degraded).count(), 1);
        assert_eq!(tight.obs().snapshot(Phase::ttfr).count(), 1);

        tight.revalidate(&edb.read()).unwrap();
        assert_eq!(
            tight.obs().snapshot(Phase::degraded).count(),
            0,
            "[transient] histogram resets with the failure episode"
        );
        assert_eq!(
            tight.obs().snapshot(Phase::ttfr).count(),
            1,
            "[keep] latency history survives revalidation"
        );
        // Degraded queries land in `degraded`, not `full` (a degraded
        // latency would poison the healthy full-query series).
        assert_eq!(tight.obs().snapshot(Phase::full).count(), 0);

        // The sweep itself is timed and traced.
        assert_eq!(shared.obs().snapshot(Phase::revalidate).count(), 0);
        shared.revalidate(&edb.read()).unwrap();
        assert_eq!(shared.obs().snapshot(Phase::revalidate).count(), 1);
        let traces = shared.obs().trace().tail(10);
        let sweep = traces.last().unwrap();
        assert_eq!(sweep.kind, TraceKind::Revalidate);
        assert!(sweep.events.iter().any(|e| e.kind.name() == "revalidated"));
    }

    #[test]
    fn disabling_obs_stops_recording() {
        let (edb, shared) = setup(2);
        shared.set_obs_enabled(false);
        let t = shared.def().template().clone();
        let q = t
            .bind(vec![Condition::Equality(vec![Value::Int(3)])])
            .unwrap();
        edb.query(&shared, &q).unwrap();
        assert_eq!(shared.obs().snapshot(Phase::ttfr).count(), 0);
        assert!(shared.obs().trace().is_empty());
        // Re-enabling picks recording back up on the shared registry.
        shared.set_obs_enabled(true);
        edb.query(&shared, &q).unwrap();
        assert_eq!(shared.obs().snapshot(Phase::ttfr).count(), 1);
        assert_eq!(shared.obs().trace().len(), 1);
    }
}
