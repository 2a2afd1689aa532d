//! Sharded, thread-safe PMV embedding.
//!
//! [`crate::pipeline::PmvPipeline::run`] takes `&mut Pmv`, which forces
//! single-writer access. [`SharedPmv`] shards the store by bcp-key hash
//! instead:
//!
//! * The view's `L` entry budget is split over `N` shards (default: the
//!   machine's available parallelism), each with its own [`PmvStore`] —
//!   its slice of the bcp entries, its own replacement-policy instance of
//!   capacity `⌈L/N⌉`, and its own maintenance-filter slice — behind its
//!   own [`parking_lot::RwLock`].
//! * Each shard also publishes an immutable **shard view** (its bcp
//!   entries as `Arc`-shared tuples, plus the valid completeness claims)
//!   through a [`pmv_sync::LeftRight`] cell; mutators republish, under
//!   the shard's write guard, after changing what the shard serves.
//! * Maintenance X-locks (write-locks) only the shards its ΔR join rows
//!   hash to, in ascending index order; queries over other shards are
//!   never affected.
//! * Statistics accumulate locally per call and publish via one relaxed
//!   [`AtomicPmvStats::add`] — no lock is taken for bookkeeping.
//!
//! # Serving
//!
//! Queries run the one O1 → O2 → O3 implementation in [`crate::serve`]
//! through this module's *sharded* store-access instance: O2
//! [`pmv_sync::LeftRight::load`]s the published shard views wait-free and
//! never touches a shard `RwLock`; policy touches and fills are deferred
//! to a best-effort write-back that takes `try_write` and is skipped
//! under contention, so between pinning and the answer no lock is ever
//! waited on (both analyzers enforce this on every `run_pinned*` body).
//! The two epoch gates that stand in for the paper's S lock — serve only
//! `fill_epoch ≤ pin_epoch`, write back only when `pin_epoch ≥
//! maint_epoch` — are described there and in DESIGN.md "Serving path".
//!
//! [`SharedPmv::run_pinned`] serves against any pinned
//! [`pmv_query::DataView`] (an epoch snapshot published by
//! [`crate::epoch::EpochDb`]); [`SharedPmv::run`] is the same call with
//! the live `&Database` as the view — the *locked* case, where the
//! caller's borrow (e.g. the read half of an `RwLock<Database>`) is what
//! pins the base data, because any writer needs `&mut Database`.
//!
//! # Maintenance contract (the Section 3.6 X side)
//!
//! [`SharedPmv::maintain`] **must be called before the delta's new
//! database state becomes visible to queries** — i.e. while the caller
//! still holds its exclusive database access, reborrowed as `&Database`:
//!
//! ```text
//! let mut g = db.write();              // exclusive: no query running
//! let batches = txn.commit();          // Δ applied to the base data
//! shared.maintain(&g, &batches[0])?;   // shards repaired *before*…
//! drop(g);                             // …readers can see the new DB
//! ```
//!
//! Under that contract every query observes (database state, shard
//! contents) pairs where the cached tuples are a subset of the true bcp
//! answers, so O3 re-derives every served tuple and the end-of-O3
//! invariant `ds_leftover == 0` holds. (This rule is exactly what the
//! seed's global-mutex embedding got wrong: it committed, *downgraded*
//! the database lock, and only then locked the PMV — a reader could slip
//! into the gap, see the new database with stale shards, and trip the
//! `DS must be empty` assertion.)
//!
//! Lock ordering is uniform — database access is always acquired before
//! any shard lock, queries never wait on a shard lock at all, and
//! maintenance acquires its affected shards in ascending index order — so
//! the embedding is deadlock-free.

use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use parking_lot::{Mutex, RwLock};
use pmv_faultinject::Site;
use pmv_obs::{
    EventKind, FlightRecorder, ObsRegistry, Phase, SpaceSaving, TemplateAccount, TraceKind,
    TriggerReason, DEFAULT_SKETCH_CAPACITY,
};
use pmv_query::{
    exec::{join_fixed, join_from},
    DataView, Database, QueryInstance, QueryTemplate,
};
use pmv_storage::{Delta, DeltaBatch, Tuple};
use pmv_sync::LeftRight;

use crate::bcp::BcpKey;
use crate::fasthash::FxHashMap;
use crate::health::{CircuitBreaker, ShardReport, ValidationReport, VerifiedClock, ViewHealth};
use crate::maintenance::{cross_delta_combos, relevant_columns, MaintenanceOutcome};
use crate::o1::ConditionPart;
use crate::pipeline::{bcp_truths, remove_stale, QueryOutcome};
use crate::serve::{self, flush_faults, ServeEnv, StoreAccess, WriteBack};
use crate::stats::{AtomicPmvStats, PmvStats};
use crate::store::{CachedTuple, PmvStore};
use crate::view::{MaintStrategy, PartialViewDef, PmvConfig};
use crate::Result;

/// Immutable snapshot of one shard's cached entries, published through a
/// [`LeftRight`] cell so epoch-mode O2 probes read it wait-free. Tuples
/// are `Arc`-shared with the store — capture copies pointers, not data.
pub(crate) struct ShardView {
    entries: HashMap<BcpKey, Vec<(Arc<Tuple>, u64)>>,
    /// Bcps whose entries held their full truth at capture time (valid
    /// completeness claims). A pinned reader may serve one of these as
    /// the bcp's *entire* answer — skipping O3 for that slice — under the
    /// epoch gates checked in [`crate::serve`].
    complete: HashSet<BcpKey>,
    quarantined: bool,
}

impl ShardView {
    fn empty() -> ShardView {
        ShardView {
            entries: HashMap::new(),
            complete: HashSet::new(),
            quarantined: false,
        }
    }

    fn capture(store: &PmvStore) -> ShardView {
        ShardView {
            entries: store
                .iter()
                .map(|(k, ts)| (k.clone(), ts.to_vec()))
                .collect(),
            complete: store.complete_bcps().into_iter().collect(),
            quarantined: store.is_quarantined(),
        }
    }
}

/// Trace-ring tail length captured in a flight-recorder dump: enough
/// recent query lifecycles to reconstruct the anomaly's neighbourhood
/// without spooling the whole ring.
const FLIGHT_TRACE_TAIL: usize = 16;

struct Inner {
    def: PartialViewDef,
    config: PmvConfig,
    shards: Vec<RwLock<PmvStore>>,
    /// Published read views, one per shard, for the wait-free O2 probe.
    /// Republished (under the shard's write guard) after every mutation
    /// that changes what the shard serves.
    views: Vec<LeftRight<ShardView>>,
    /// Epoch (database version) of the last completed maintenance.
    /// Epoch-mode fills are gated on `pin_epoch >= maint_epoch`: a query
    /// pinned before the latest maintenance must not write back results
    /// that maintenance may already have evicted.
    maint_epoch: AtomicU64,
    stats: AtomicPmvStats,
    /// Per-view health state machine; Quarantined disables all serving.
    breaker: CircuitBreaker,
    /// When the view last completed maintenance or revalidation
    /// (staleness reference point).
    verified: VerifiedClock,
    /// Per-phase latency histograms + lifecycle trace ring. Enabled by
    /// default; when disabled, every record is one relaxed load.
    obs: ObsRegistry,
    /// View name as a shared `Arc<str>`: trace spans clone this instead
    /// of copying the name string on every query.
    trace_name: Arc<str>,
    /// Per-template workload account, attached by the embedding layer
    /// (CLI/bench); the serving path records into it only while `obs` is
    /// enabled, so the disabled cost stays one relaxed load.
    account: OnceLock<Arc<TemplateAccount>>,
    /// Anomaly-triggered flight recorder. A dump locks the trace ring
    /// and performs sink IO, so triggers fire only from locked-mode
    /// [`SharedPmv::run`] and from `EpochDb::query` *after* the pin is
    /// released — never inside a pin region.
    flight: OnceLock<Arc<FlightRecorder>>,
    /// Breaker trip count already seen by [`SharedPmv::flight_check`],
    /// so each trip produces one `breaker_trip` dump, not one per query.
    flight_trips_seen: AtomicU64,
    /// Fallback heavy-hitter sketch over delta keys for the heavy-light
    /// maintenance split, used when no [`TemplateAccount`] is attached
    /// (the account's sketch is preferred so `pmv-profile` sees the same
    /// hot keys maintenance acts on). Only the maintenance path locks
    /// it — never the serving path, pinned or locked.
    delta_sketch: Mutex<SpaceSaving>,
}

impl Inner {
    fn shard_of(&self, bcp: &BcpKey) -> usize {
        let mut h = DefaultHasher::new();
        bcp.hash(&mut h);
        (h.finish() % self.shards.len() as u64) as usize
    }

    /// Republish shard `si`'s read view from `store`. Must be called
    /// while the caller still holds the shard's write guard, so the
    /// published view always reflects a consistent store state.
    fn publish_shard(&self, si: usize, store: &PmvStore) {
        let t0 = Instant::now();
        self.views[si].publish(Arc::new(ShardView::capture(store)));
        self.obs.record(Phase::snapshot_swap, t0.elapsed());
    }
}

/// The sharded [`StoreAccess`] instance: probes read the published
/// shard views, write-back is `try_write` (declined under contention),
/// and a shard is republished only when what it serves changed.
impl StoreAccess for &Inner {
    fn shard_of(&self, bcp: &BcpKey) -> usize {
        Inner::shard_of(self, bcp)
    }

    fn maint_epoch(&self) -> u64 {
        // Acquire pairs with the Release in `maintain`.
        self.maint_epoch.load(Ordering::Acquire)
    }

    fn run_pinned_probe(
        &self,
        si: usize,
        parts: &[&ConditionPart],
        claims: bool,
        mut each: impl FnMut(&ConditionPart, Option<&[CachedTuple]>, bool),
    ) -> bool {
        // `load` is wait-free (bounded retry over the two left-right
        // slots); a concurrent publish can at worst hand us the previous
        // consistent view.
        let sv = self.views[si].load();
        if sv.quarantined {
            return false;
        }
        for part in parts {
            let entries = sv.entries.get(&part.bcp).map(Vec::as_slice);
            let claimed = claims && entries.is_some() && sv.complete.contains(&part.bcp);
            each(part, entries, claimed);
        }
        true
    }

    fn run_pinned_write_shard(
        &mut self,
        si: usize,
        apply: impl FnOnce(&mut PmvStore, u64) -> Option<WriteBack>,
    ) -> Option<WriteBack> {
        let mut store = self.shards[si].try_write()?;
        let done = apply(&mut store, StoreAccess::maint_epoch(self))?;
        if done.changed_view() {
            // pmv::allow(pin_reaches_blocking_lock): LeftRight::publish
            // takes the writer-side mutex, which only fills contend on —
            // never the wait-free reader path. A cold-shard fill is
            // already the slow path (DESIGN.md "Serving path").
            self.publish_shard(si, &store);
        }
        Some(done)
    }

    fn add_stats(&mut self, local: &PmvStats) {
        self.stats.add(local);
    }
}

/// A clonable, thread-safe handle to one bcp-hash-sharded PMV.
#[derive(Clone)]
pub struct SharedPmv {
    inner: Arc<Inner>,
}

impl SharedPmv {
    /// Sharded PMV with one shard per available hardware thread.
    pub fn new(def: PartialViewDef, config: PmvConfig) -> Self {
        let n = std::thread::available_parallelism().map_or(4, usize::from);
        SharedPmv::with_shards(def, config, n)
    }

    /// Sharded PMV with an explicit shard count (≥ 1). Each shard's store
    /// gets capacity `⌈L/N⌉`, so total capacity stays within one shard's
    /// rounding of the configured `L`.
    pub fn with_shards(def: PartialViewDef, config: PmvConfig, shards: usize) -> Self {
        let n = shards.max(1);
        let per_shard = config.l.div_ceil(n).max(1);
        let shards = (0..n)
            .map(|_| {
                let mut store = PmvStore::with_capacity(&config, per_shard);
                if config.maint_filter {
                    store.enable_index(crate::delta_index::DeltaKeyIndex::new(def.template()));
                }
                RwLock::new(store)
            })
            .collect();
        let views = (0..n)
            .map(|_| LeftRight::new(Arc::new(ShardView::empty())))
            .collect();
        let breaker = CircuitBreaker::new(config.breaker);
        let trace_name: Arc<str> = Arc::from(def.name());
        SharedPmv {
            inner: Arc::new(Inner {
                def,
                config,
                shards,
                views,
                maint_epoch: AtomicU64::new(0),
                stats: AtomicPmvStats::new(),
                breaker,
                verified: VerifiedClock::new(),
                obs: ObsRegistry::new(),
                trace_name,
                account: OnceLock::new(),
                flight: OnceLock::new(),
                flight_trips_seen: AtomicU64::new(0),
                delta_sketch: Mutex::new(SpaceSaving::new(DEFAULT_SKETCH_CAPACITY)),
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

    /// Run one query through O1/O2/O3 against the live database — the
    /// *locked* case of [`Self::run_pinned`]: `&Database` is the pinned
    /// view (its epoch is the current version), and the caller's borrow
    /// keeps the base data still for the duration.
    pub fn run(&self, db: &Database, q: &QueryInstance) -> Result<QueryOutcome> {
        // No pin and no shard guard is held out here, so the anomaly
        // check (which may lock the trace ring and write a spool dump) is
        // safe on every exit path, degraded ones included.
        let t_flight = self.flight_attached().then(Instant::now);
        let out = self.run_pinned(db, q);
        if let (Some(t0), Ok(outcome)) = (&t_flight, &out) {
            self.flight_check(outcome, t0.elapsed());
        }
        out
    }

    /// Run one query through O1/O2/O3 ([`crate::serve`]) against a pinned
    /// `view`: O2 reads the published shard views wait-free, O3 executes
    /// against the snapshot, and every cache write-back (fills *and*
    /// policy touches) is best-effort — `try_write`, skipped under
    /// contention — so between pinning and the answer no lock is ever
    /// waited on.
    pub fn run_pinned<V: DataView>(&self, view: &V, q: &QueryInstance) -> Result<QueryOutcome> {
        let inner = &*self.inner;
        let env = ServeEnv {
            def: &inner.def,
            config: &inner.config,
            breaker: &inner.breaker,
            obs: &inner.obs,
            trace_name: &inner.trace_name,
            account: inner.account.get(),
            verified: &inner.verified,
        };
        serve::run_pinned(&env, inner, view, q)
    }

    /// Apply one relation's delta batch, write-locking only the shards
    /// the ΔR join rows hash to.
    ///
    /// **Contract:** call this while the delta's new database state is
    /// not yet visible to concurrent queries — in the
    /// `RwLock<Database>` idiom, while still holding the write guard
    /// (reborrowed as `&Database`), *before* downgrading or dropping it.
    /// Violating this reintroduces the stale-partial-result race the
    /// module docs describe.
    pub fn maintain(&self, db: &Database, batch: &DeltaBatch) -> Result<MaintenanceOutcome> {
        let inner = &*self.inner;
        let mut out = MaintenanceOutcome::default();
        let mut local = PmvStats::default();
        let template = inner.def.template().clone();
        let Some(rel_idx) = template
            .relations()
            .iter()
            .position(|r| r == batch.relation())
        else {
            out.unrelated_relation = true;
            return Ok(out);
        };
        let t_start = Instant::now();
        let mut trace = inner
            .obs
            .begin_trace_shared(TraceKind::Maintenance, &inner.trace_name);
        let mut fault_cap = inner.obs.enabled().then(pmv_faultinject::capture);
        let relevant = relevant_columns(&template, rel_idx);
        let strategy = inner.config.effective_strategy();

        // Epoch fence for pinned fills — stored BEFORE this maintenance
        // touches any shard lock. A query pinned before this Δ may hold
        // results the Δ evicts; its fill gate re-checks `maint_epoch`
        // under the shard write lock, so either (a) it sees this store
        // (the lock handoff orders it after one of our shard accesses)
        // and skips the fill, or (b) it filled before we looked at the
        // shard, in which case the `would_affect` scan and phase-2
        // eviction below see the fill and remove it. Release pairs with
        // the Acquire in `run_pinned`.
        inner.maint_epoch.store(db.version(), Ordering::Release);

        // Phase 1: route each delta. Heavy/indexed keys resolve their
        // affected view tuples straight from the per-shard delta-key
        // indexes (read locks only, O(fanout) per shard); cold keys
        // coalesce into one ΔR join per distinct tuple; `DeltaJoin` keeps
        // the classic per-delta join. The removal's provenance flag
        // distinguishes index hits for the `index_removals` counters.
        let mut removals: Vec<(usize, BcpKey, Tuple, bool)> = Vec::new();
        let mut light_order: Vec<&Tuple> = Vec::new();
        let mut light_counts: FxHashMap<&Tuple, usize> = FxHashMap::default();
        let mut any_insert = false;
        let mut t_index = Duration::ZERO;
        for delta in batch.deltas() {
            let tuple = match delta {
                Delta::Insert { .. } => {
                    out.inserts_ignored += 1;
                    local.maint_inserts_ignored += 1;
                    any_insert = true;
                    continue;
                }
                Delta::Delete { tuple, .. } => {
                    out.deletes_joined += 1;
                    local.maint_deletes_joined += 1;
                    tuple
                }
                Delta::Update { old, .. } => {
                    let changed = delta.changed_columns();
                    if changed.iter().any(|c| relevant.contains(c)) {
                        out.updates_joined += 1;
                        local.maint_updates_joined += 1;
                        // delete(old) + insert(new): the new image may
                        // grow some bcp's truth, so completeness claims
                        // must lapse like for any insert.
                        any_insert = true;
                        old
                    } else {
                        out.updates_ignored += 1;
                        local.maint_updates_ignored += 1;
                        continue;
                    }
                }
            };
            let mut indexed = match strategy {
                MaintStrategy::DeltaJoin => false,
                MaintStrategy::Indexed => true,
                MaintStrategy::HeavyLight => {
                    // Every shard shares the template, so shard 0's index
                    // yields the delta-key hash for the whole view. The
                    // account's sketch is preferred so the profiler
                    // reports the same hot keys maintenance acts on; a
                    // sketch overestimate only routes extra deltas to
                    // the (equally sound) indexed path.
                    match inner.shards[0].read().delta_key_hash(rel_idx, tuple) {
                        None => {
                            // Unindexable relation (or index disabled):
                            // coalesce into the light joins below.
                            let n = light_counts.entry(tuple).or_insert(0);
                            if *n == 0 {
                                light_order.push(tuple);
                            }
                            *n += 1;
                            out.light_deltas += 1;
                            local.maint_light_deltas += 1;
                            continue;
                        }
                        Some(h) => {
                            let count = match inner.account.get() {
                                Some(acct) => acct.note_delta_key(h),
                                None => inner.delta_sketch.lock().note(h),
                            };
                            if count >= inner.config.heavy_threshold {
                                true
                            } else {
                                let n = light_counts.entry(tuple).or_insert(0);
                                if *n == 0 {
                                    light_order.push(tuple);
                                }
                                *n += 1;
                                out.light_deltas += 1;
                                local.maint_light_deltas += 1;
                                continue;
                            }
                        }
                    }
                }
            };
            if indexed {
                let t0 = Instant::now();
                let before = removals.len();
                for (si, s) in inner.shards.iter().enumerate() {
                    match s.read().supported(rel_idx, tuple) {
                        Some(sup) => {
                            for (bcp, t) in sup {
                                removals.push((si, bcp, (*t).clone(), true));
                            }
                        }
                        None => {
                            // No usable index for this relation: undo and
                            // fall back to the classic per-delta join.
                            removals.truncate(before);
                            indexed = false;
                            break;
                        }
                    }
                }
                t_index += t0.elapsed();
                if indexed {
                    out.heavy_deltas += 1;
                    local.maint_heavy_deltas += 1;
                    if removals.len() == before {
                        out.joins_avoided += 1;
                    }
                    continue;
                }
            }
            // Section 3.4 / [25]: if no shard's index can match the
            // deleted tuple, nothing cached is affected and the join is
            // skipped entirely.
            let affected = inner
                .shards
                .iter()
                .any(|s| s.read().would_affect(rel_idx, tuple));
            if !affected {
                out.joins_avoided += 1;
                continue;
            }
            match self.join_with_retry(db, &template, rel_idx, tuple, &mut out, &mut local) {
                Ok(Some(rows)) => {
                    out.join_rows += rows.len();
                    local.maint_join_rows += rows.len() as u64;
                    for row in rows {
                        let bcp = inner.def.bcp_of_tuple(&row);
                        removals.push((inner.shard_of(&bcp), bcp, row, false));
                    }
                }
                Ok(None) => self.drain_affected(rel_idx, tuple, &mut out, &mut local),
                Err(e) => {
                    inner.stats.add(&local);
                    inner.obs.record(Phase::maint_join, t_start.elapsed());
                    flush_faults(&mut trace, fault_cap.take());
                    return Err(e);
                }
            }
        }
        if t_index > Duration::ZERO {
            inner.obs.record(Phase::maint_index, t_index);
        }

        // Light path: one coalesced ΔR join per distinct cold tuple.
        // Every join runs against the same post-delta base state, so a
        // tuple deleted `n` times yields `n` identical row sets — the
        // rows are pushed once per occurrence instead of re-joining.
        for tuple in light_order {
            let occurrences = light_counts[tuple];
            let affected = inner
                .shards
                .iter()
                .any(|s| s.read().would_affect(rel_idx, tuple));
            if !affected {
                out.joins_avoided += 1;
                continue;
            }
            match self.join_with_retry(db, &template, rel_idx, tuple, &mut out, &mut local) {
                Ok(Some(rows)) => {
                    out.coalesced_joins += 1;
                    local.maint_coalesced_joins += 1;
                    out.join_rows += rows.len() * occurrences;
                    local.maint_join_rows += (rows.len() * occurrences) as u64;
                    for row in rows {
                        let bcp = inner.def.bcp_of_tuple(&row);
                        let si = inner.shard_of(&bcp);
                        for _ in 0..occurrences {
                            removals.push((si, bcp.clone(), row.clone(), false));
                        }
                    }
                }
                Ok(None) => self.drain_affected(rel_idx, tuple, &mut out, &mut local),
                Err(e) => {
                    inner.stats.add(&local);
                    inner.obs.record(Phase::maint_join, t_start.elapsed());
                    flush_faults(&mut trace, fault_cap.take());
                    return Err(e);
                }
            }
        }

        // Phase 2: X-lock only the affected shards, in ascending index
        // order, and evict the joined/indexed view tuples.
        let mut affected_shards: Vec<usize> = removals.iter().map(|(s, _, _, _)| *s).collect();
        affected_shards.sort_unstable();
        affected_shards.dedup();
        for si in affected_shards {
            let t_lock = Instant::now();
            let mut store = inner.shards[si].write();
            inner.obs.record(Phase::lock_shard_maint, t_lock.elapsed());
            if store.is_quarantined() {
                continue; // already drained: nothing cached to evict
            }
            let evict = catch_unwind(AssertUnwindSafe(|| {
                pmv_faultinject::fire_soft(Site::ShardMaint);
                for (s, bcp, row, via_index) in &removals {
                    if *s == si && store.remove_tuple(bcp, row) {
                        out.view_tuples_removed += 1;
                        local.maint_tuples_removed += 1;
                        if *via_index {
                            out.index_removals += 1;
                            local.maint_index_removals += 1;
                        }
                    }
                }
            }));
            let poisoned = evict.is_err();
            if poisoned {
                // Mid-eviction panic: some of this shard's removals may
                // not have been applied, so its cache can no longer be
                // trusted. Drain it.
                store.quarantine();
                local.quarantine_events += 1;
                inner.breaker.record_error();
            }
            inner.publish_shard(si, &store);
            drop(store);
            if poisoned {
                trace.event(EventKind::Quarantine { shard: si });
            }
        }

        // Insert watermark: bump every shard so stale completeness
        // claims lapse (the bcp's truth may have grown). Republish only
        // shards that actually held claims — insert-heavy batches on a
        // claim-free view stay O(shards) watermark bumps.
        if any_insert {
            for (si, s) in inner.shards.iter().enumerate() {
                let mut store = s.write();
                let had_claims = store.any_complete();
                store.note_insert();
                if had_claims {
                    inner.publish_shard(si, &store);
                }
            }
        }
        inner.verified.mark();
        inner.stats.add(&local);
        inner.obs.record(Phase::maint_join, t_start.elapsed());
        if inner.obs.enabled() {
            if let Some(acct) = inner.account.get() {
                acct.record_maintenance(t_start.elapsed(), out.join_rows as u64);
            }
        }
        trace.event(EventKind::MaintBatch {
            relation: batch.relation().to_string(),
            joined: out.deletes_joined + out.updates_joined,
            join_rows: out.join_rows,
            removed: out.view_tuples_removed,
            retries: out.retries,
            fallbacks: out.fallback_invalidations,
        });
        flush_faults(&mut trace, fault_cap.take());
        Ok(out)
    }

    /// One ΔR join with the transient-retry/backoff loop. `Ok(None)`
    /// means retries were exhausted (the caller drains the affected
    /// shards); permanent errors propagate.
    fn join_with_retry(
        &self,
        db: &Database,
        template: &QueryTemplate,
        rel_idx: usize,
        tuple: &Tuple,
        out: &mut MaintenanceOutcome,
        local: &mut PmvStats,
    ) -> Result<Option<Vec<Tuple>>> {
        let inner = &*self.inner;
        let mut attempt: u32 = 0;
        loop {
            match catch_unwind(AssertUnwindSafe(|| join_from(db, template, rel_idx, tuple))) {
                Ok(Ok(r)) => return Ok(Some(r)),
                Ok(Err(e)) if e.is_transient() => {}
                Ok(Err(e)) => return Err(e.into()),
                Err(_panic) => {}
            }
            if attempt >= inner.config.maint_retries {
                return Ok(None);
            }
            attempt += 1;
            out.retries += 1;
            local.maint_retries += 1;
            std::thread::sleep(inner.config.maint_backoff * (1u32 << (attempt - 1).min(10)));
        }
    }

    /// Retry-exhausted fallback: drain (quarantine) every shard the
    /// tuple may affect — removal-only, so the view under-serves until
    /// revalidated but never serves a tuple the delete should have
    /// evicted.
    fn drain_affected(
        &self,
        rel_idx: usize,
        tuple: &Tuple,
        out: &mut MaintenanceOutcome,
        local: &mut PmvStats,
    ) {
        let inner = &*self.inner;
        out.fallback_invalidations += 1;
        local.maint_fallbacks += 1;
        inner.breaker.record_error();
        for (si, s) in inner.shards.iter().enumerate() {
            let mut store = s.write();
            if !store.is_quarantined() && store.would_affect(rel_idx, tuple) {
                store.quarantine();
                local.quarantine_events += 1;
                inner.publish_shard(si, &store);
            }
        }
    }

    /// Apply several batches (e.g. a whole transaction's) in order, under
    /// the same visibility contract as [`Self::maintain`], then run the
    /// cross-relation union pass: a transaction deleting matching tuples
    /// from several base relations leaves derivations that no
    /// single-relation ΔR join rederives (each join sees the *other*
    /// relation's tuple already gone). Every multi-bound combination of
    /// the batches' before-images is joined with [`join_fixed`] and its
    /// rows removed too.
    pub fn maintain_all(
        &self,
        db: &Database,
        batches: &[DeltaBatch],
    ) -> Result<MaintenanceOutcome> {
        let inner = &*self.inner;
        let mut total = MaintenanceOutcome::default();
        for b in batches {
            let o = self.maintain(db, b)?;
            total.absorb(&o);
        }
        let template = inner.def.template().clone();
        let combos = cross_delta_combos(&template, batches);
        if !combos.is_empty() {
            let t0 = Instant::now();
            let mut local = PmvStats::default();
            // No shard lock is held during the joins (lint rule: never
            // an executor call under a shard guard).
            let mut removals: Vec<(usize, BcpKey, Tuple)> = Vec::new();
            for combo in &combos {
                let rows = join_fixed(db, &template, combo)?;
                total.join_rows += rows.len();
                local.maint_join_rows += rows.len() as u64;
                for row in rows {
                    let bcp = inner.def.bcp_of_tuple(&row);
                    removals.push((inner.shard_of(&bcp), bcp, row));
                }
            }
            let mut shards_touched: Vec<usize> = removals.iter().map(|(s, _, _)| *s).collect();
            shards_touched.sort_unstable();
            shards_touched.dedup();
            for si in shards_touched {
                let mut store = inner.shards[si].write();
                if store.is_quarantined() {
                    continue;
                }
                for (s, bcp, row) in &removals {
                    if *s == si && store.remove_tuple(bcp, row) {
                        total.view_tuples_removed += 1;
                        local.maint_tuples_removed += 1;
                    }
                }
                inner.publish_shard(si, &store);
            }
            inner.stats.add(&local);
            inner.obs.record(Phase::maint_join, t0.elapsed());
            inner.verified.mark();
        }
        // Per-batch relevance is reported on the individual outcomes;
        // the transaction-level total keeps the historical `false`.
        total.unrelated_relation = false;
        Ok(total)
    }

    /// Re-execute each resident bcp's query shard by shard and drop any
    /// cached tuple not in the current answer (see
    /// [`crate::pipeline::Pmv::revalidate`]). Returns tuples removed.
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
            // and violated the repo lock rule the `pmv-lint`
            // `write_guard_across_exec` pass enforces.
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

    /// Attach a per-template workload account (first attach wins; later
    /// calls are ignored). The serving path records into it only while
    /// observability is enabled, so the disabled fast path stays one
    /// relaxed load.
    pub fn attach_account(&self, acct: Arc<TemplateAccount>) {
        let _ = self.inner.account.set(acct);
    }

    /// The attached workload account, if any.
    pub fn account(&self) -> Option<&Arc<TemplateAccount>> {
        self.inner.account.get()
    }

    /// Attach an anomaly-triggered flight recorder (first attach wins).
    /// Dumps fire from locked-mode [`SharedPmv::run`] and from
    /// `EpochDb::query` after the pin drops — never inside a pin region,
    /// because a dump locks the trace ring and performs sink IO.
    pub fn attach_flight(&self, recorder: Arc<FlightRecorder>) {
        let _ = self.inner.flight.set(recorder);
    }

    /// The attached flight recorder, if any.
    pub fn flight(&self) -> Option<&Arc<FlightRecorder>> {
        self.inner.flight.get()
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
    /// its dump budget): the trace-ring tail plus a full counter and
    /// phase-histogram snapshot, spooled through the recorder's sink.
    pub fn flight_dump(&self, reason: TriggerReason, total: Duration) -> Option<PathBuf> {
        let inner = &*self.inner;
        let fr = inner.flight.get()?;
        let traces = inner.obs.trace().tail(FLIGHT_TRACE_TAIL);
        let metrics = pmv_obs::spool::metrics_json_from(
            &inner.stats.snapshot().as_pairs(),
            &inner.obs.snapshots(),
        );
        fr.trigger(
            reason,
            &inner.trace_name,
            total.as_micros() as u64,
            &traces,
            &metrics,
        )
    }

    /// True when `self` and `other` are handles to the same underlying
    /// view (the group-commit combiner dedups views by this before
    /// running maintenance once over a merged batch).
    pub fn same_view(&self, other: &SharedPmv) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
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

    /// Approximate bytes cached across all shards.
    pub fn byte_size(&self) -> usize {
        self.inner.shards.iter().map(|s| s.read().byte_size()).sum()
    }

    /// Total entries evicted by the shard policies so far.
    pub fn evictions(&self) -> u64 {
        self.inner.shards.iter().map(|s| s.read().evictions()).sum()
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

#[cfg(test)]
mod tests {
    use super::*;
    use pmv_cache::PolicyKind;
    use pmv_index::IndexDef;
    use pmv_query::{Condition, TemplateBuilder, Transaction};
    use pmv_storage::{tuple, Column, ColumnType, Schema, Value};

    fn setup(shards: usize) -> (Database, SharedPmv) {
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
        (db, shared)
    }

    #[test]
    fn clones_share_state() {
        let (db, shared) = setup(4);
        let clone = shared.clone();
        let t = shared.def().template().clone();
        let q = t
            .bind(vec![Condition::Equality(vec![Value::Int(3)])])
            .unwrap();
        shared.run(&db, &q).unwrap();
        // The clone sees the warm cache.
        let out = clone.run(&db, &q).unwrap();
        assert!(out.bcp_hit);
        assert_eq!(clone.stats().queries, 2);
        shared.debug_validate();
    }

    #[test]
    fn sharded_matches_plain_execution() {
        let (db, shared) = setup(4);
        let t = shared.def().template().clone();
        let pipeline = crate::pipeline::PmvPipeline::new();
        for round in 0..3 {
            for f in 0..10i64 {
                let q = t
                    .bind(vec![Condition::Equality(vec![Value::Int(f)])])
                    .unwrap();
                let (mut plain, _, _) = pipeline.run_plain(&db, &q).unwrap();
                let out = shared.run(&db, &q).unwrap();
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
        let (db, shared) = setup(1);
        assert_eq!(shared.shard_count(), 1);
        let t = shared.def().template().clone();
        let q = t
            .bind(vec![Condition::Equality(vec![Value::Int(3)])])
            .unwrap();
        shared.run(&db, &q).unwrap();
        let out = shared.run(&db, &q).unwrap();
        assert!(out.bcp_hit);
        assert_eq!(out.partial.len(), 3); // F = 3 cached tuples served
        shared.debug_validate();
    }

    /// A store's full observable state: bcp → (tuple multiset, valid
    /// completeness claim), in key order.
    fn contents(store: &PmvStore) -> Vec<(BcpKey, Vec<Tuple>, bool)> {
        let mut out: Vec<_> = store
            .iter()
            .map(|(bcp, ts)| {
                let mut tuples: Vec<Tuple> = ts.iter().map(|(t, _)| (**t).clone()).collect();
                tuples.sort();
                (bcp.clone(), tuples, store.entry_complete(bcp))
            })
            .collect();
        out.sort();
        out
    }

    /// The direct and the sharded store-access instance run the same
    /// algorithm: a `Pmv` and a 1-shard `SharedPmv` driven by one script
    /// (one- and two-part queries, inserts, deletes, updates; 6 bcps
    /// over L = 4, so evictions too) hold identical entries and
    /// completeness claims after every step.
    #[test]
    fn single_owner_and_one_shard_stores_stay_identical() {
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
        assert!(t.emits_unique_rows(&db));
        let config = PmvConfig::new(8, 4, PolicyKind::Clock);
        let def = |name: &str| PartialViewDef::all_equality(name, t.clone()).unwrap();
        let mut single = crate::pipeline::Pmv::new(def("single"), config.clone());
        let shared = SharedPmv::with_shards(def("one_shard"), config, 1);
        let pipeline = crate::pipeline::PmvPipeline::new();

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
            if kind < 17 {
                let mut values = vec![Value::Int(f)];
                if kind < 6 {
                    values.push(Value::Int((f + 1 + next(5)) % 6));
                }
                let q = t.bind(vec![Condition::Equality(values)]).unwrap();
                let a = pipeline.run(&db, &mut single, &q).unwrap();
                let b = shared.run(&db, &q).unwrap();
                assert_eq!(a.partial.len(), b.partial.len(), "step {step}");
                assert_eq!((a.ds_leftover, b.ds_leftover), (0, 0), "step {step}");
            } else {
                let row = db
                    .relation("r")
                    .unwrap()
                    .read()
                    .iter()
                    .find(|(_, tu)| tu.get(1) == &Value::Int(f))
                    .map(|(r, _)| r);
                let mut txn = Transaction::begin(&mut db);
                match (kind, row) {
                    (17, _) => drop(txn.insert("r", tuple![1000 + step, f]).unwrap()),
                    (18, Some(row)) => drop(txn.delete("r", row).unwrap()),
                    (19, Some(row)) => {
                        let a = txn.get("r", row).unwrap().get(0).clone();
                        let moved = Tuple::new(vec![a, Value::Int(next(6))]);
                        drop(txn.update("r", row, moved).unwrap());
                    }
                    _ => {}
                }
                let batches = txn.commit();
                pipeline.maintain_all(&db, &mut single, &batches).unwrap();
                shared.maintain_all(&db, &batches).unwrap();
            }
            assert_eq!(
                contents(single.store()),
                contents(&shared.inner.shards[0].read()),
                "stores diverged at step {step}"
            );
        }
        let stats = single.stats();
        assert!(
            stats.complete_serves > 0 && stats.upqueries > 0,
            "{stats:?}"
        );
        assert_eq!(
            single.stats().complete_serves,
            shared.stats().complete_serves
        );
        assert!(single.store().evictions() > 0);
    }

    #[test]
    fn per_shard_capacity_splits_l() {
        let (_db, shared) = setup(4);
        // L = 16 over 4 shards → 4 per shard.
        for shard in &shared.inner.shards {
            assert_eq!(shard.read().l(), 4);
        }
        let (_db, one) = setup(1);
        assert_eq!(one.inner.shards[0].read().l(), 16);
    }

    #[test]
    fn maintenance_locks_only_affected_shards() {
        let (mut db, shared) = setup(4);
        let t = shared.def().template().clone();
        // Warm all ten bcps.
        for f in 0..10i64 {
            let q = t
                .bind(vec![Condition::Equality(vec![Value::Int(f)])])
                .unwrap();
            shared.run(&db, &q).unwrap();
        }
        // Hold a read lock on a shard that f=3's bcp does NOT hash to;
        // maintenance for a row with f=3 must not block on it.
        let bcp3 = BcpKey::new(vec![crate::bcp::BcpDim::Eq(Value::Int(3))]);
        let affected = shared.inner.shard_of(&bcp3);
        let other = (affected + 1) % shared.shard_count();
        let _outside_guard = shared.inner.shards[other].read();

        let row = db
            .relation("r")
            .unwrap()
            .read()
            .iter()
            .find(|(_, tu)| tu.get(1) == &Value::Int(3))
            .map(|(r, _)| r)
            .unwrap();
        let mut txn = Transaction::begin(&mut db);
        txn.delete("r", row).unwrap();
        let batches = txn.commit();
        let out = shared.maintain_all(&db, &batches).unwrap();
        assert_eq!(out.deletes_joined, 1);
        drop(_outside_guard);
        shared.debug_validate();
    }

    #[test]
    fn concurrent_queries_and_maintenance_stay_consistent() {
        let (db, shared) = setup(4);
        let db = Arc::new(parking_lot::RwLock::new(db));
        let t = shared.def().template().clone();

        let mut handles = Vec::new();
        for thread in 0..4 {
            let shared = shared.clone();
            let db = Arc::clone(&db);
            let t = t.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..50i64 {
                    if thread == 0 && i % 5 == 0 {
                        // Maintainer thread: insert + maintain while the
                        // new database state is still invisible.
                        let mut guard = db.write();
                        let mut txn = Transaction::begin(&mut guard);
                        txn.insert(
                            "r",
                            pmv_storage::Tuple::new(vec![Value::Int(1000 + i), Value::Int(i % 10)]),
                        )
                        .unwrap();
                        let batches = txn.commit();
                        for b in &batches {
                            shared.maintain(&guard, b).unwrap();
                        }
                    } else {
                        let q = t
                            .bind(vec![Condition::Equality(vec![Value::Int(i % 10)])])
                            .unwrap();
                        let guard = db.read();
                        let out = shared.run(&guard, &q).unwrap();
                        assert_eq!(out.ds_leftover, 0, "stale partial result");
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let guard = db.read();
        let removed = shared.revalidate(&guard).unwrap();
        assert_eq!(removed, 0, "no stale tuples after concurrent run");
        assert!(shared.stats().queries > 100);
        shared.debug_validate();
    }

    #[test]
    fn queries_record_phases_and_traces() {
        let (db, shared) = setup(4);
        let t = shared.def().template().clone();
        let q = t
            .bind(vec![Condition::Equality(vec![Value::Int(3)])])
            .unwrap();
        shared.run(&db, &q).unwrap();
        let out = shared.run(&db, &q).unwrap();
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
        let (db, shared) = setup(2);
        let t = shared.def().template().clone();
        let q = t
            .bind(vec![Condition::Equality(vec![Value::Int(3)])])
            .unwrap();
        shared.run(&db, &q).unwrap();
        // A zero-budget view degrades every query, filling the
        // [transient] degraded histogram.
        let def = PartialViewDef::all_equality("tight", t.clone()).unwrap();
        let tight = SharedPmv::with_shards(
            def,
            PmvConfig::new(3, 16, PolicyKind::Clock).with_row_budget(0),
            2,
        );
        tight.run(&db, &q).unwrap();
        assert_eq!(tight.obs().snapshot(Phase::degraded).count(), 1);
        assert_eq!(tight.obs().snapshot(Phase::ttfr).count(), 1);

        tight.revalidate(&db).unwrap();
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
        shared.revalidate(&db).unwrap();
        assert_eq!(shared.obs().snapshot(Phase::revalidate).count(), 1);
        let traces = shared.obs().trace().tail(10);
        let sweep = traces.last().unwrap();
        assert_eq!(sweep.kind, TraceKind::Revalidate);
        assert!(sweep.events.iter().any(|e| e.kind.name() == "revalidated"));
    }

    #[test]
    fn disabling_obs_stops_recording() {
        let (db, shared) = setup(2);
        shared.set_obs_enabled(false);
        let t = shared.def().template().clone();
        let q = t
            .bind(vec![Condition::Equality(vec![Value::Int(3)])])
            .unwrap();
        shared.run(&db, &q).unwrap();
        assert_eq!(shared.obs().snapshot(Phase::ttfr).count(), 0);
        assert!(shared.obs().trace().is_empty());
        // Re-enabling picks recording back up on the shared registry.
        shared.set_obs_enabled(true);
        shared.run(&db, &q).unwrap();
        assert_eq!(shared.obs().snapshot(Phase::ttfr).count(), 1);
        assert_eq!(shared.obs().trace().len(), 1);
    }
}
