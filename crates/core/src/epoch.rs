//! Epoch-published database snapshots — the write side of the lock-free
//! serving path.
//!
//! [`EpochDb`] pairs the mutable [`Database`] (behind a
//! `parking_lot::RwLock`) with a published immutable [`DbSnapshot`] in a
//! [`LeftRight`] cell. Readers *pin* the current snapshot with one
//! wait-free [`LeftRight::load`] — no database lock, no reference
//! counting beyond the `Arc` clone — and run entire queries against it;
//! relations and indexes inside the snapshot are copy-on-write `Arc`s, so
//! pinning is O(1) regardless of data size.
//!
//! # The host owns its views
//!
//! A view joins the host the first time it is registered
//! ([`EpochDb::register`]), served ([`EpochDb::query`],
//! [`EpochDb::query_at`]) or named in a commit, and stays for the host's
//! lifetime; a view belongs to one host only. Every commit maintains
//! every view the host owns — as the paper maintains every PMV over
//! `R_i` on every `ΔR_i` (§3.4) — so no caller can forget one. Joining
//! stamps the view's `maint_epoch` with the current database version
//! under the master lock: a pin taken before the view joined may hold
//! rows deleted by commits that did not maintain it, and the existing
//! fill gate (`pin_epoch ≥ maint_epoch`) keeps those results out of the
//! store.
//!
//! # The commit protocol (group commit)
//!
//! [`EpochDb::commit`] is the only place new database states become
//! visible. Commits are **coalesced, flat-combining style** (DESIGN.md
//! §15): each committer enqueues a request, then races for the master
//! write lock. Whichever committer holds the lock — the *combiner* —
//! drains the whole queue and runs the three steps the correctness
//! argument (DESIGN.md §10) needs, once for the entire batch:
//!
//! 1. **Mutate**: apply every drained transaction's closure under the
//!    write lock (each bumping the database version — the epoch).
//! 2. **Maintain** every view the host owns against the new state over
//!    the *merged* `DeltaBatch`es, still under the write lock.
//!    This evicts cached tuples any Δ invalidated and advances each
//!    view's `maint_epoch` past the whole batch.
//! 3. **Publish** one new snapshot (incrementally — untouched
//!    relations are reused, [`Database::publish_snapshot`]), mark every
//!    drained request complete, then release the lock.
//!
//! Committers whose request was drained by another combiner find their
//! result slot filled and never do the work themselves; under
//! contention, N transactions cost one maintenance scan and one
//! snapshot publish instead of N of each.
//!
//! Because maintenance over the merged batch completes *before* the
//! coalesced snapshot publishes, any reader pinned at epoch `e` sees
//! shard views whose surviving tuples with `fill_epoch ≤ e` are true
//! results at `e` — exactly the §10 argument, unchanged: intermediate
//! epochs inside a combine round are simply never published, and
//! maintenance is removal-only, so later commits can only make a
//! pinned reader under-serve, never lie. That is the paper's
//! Section 3.6 S-lock guarantee, recovered without the lock.
//!
//! # The read path
//!
//! Readers *pin* snapshots. [`EpochDb::pin`] hands out the published
//! `Arc<DbSnapshot>`; [`EpochDb::with_pin`] goes one step further and
//! serves from a **per-thread snapshot cache** revalidated by one
//! atomic load of the publish counter ([`LeftRight::version_hint`]),
//! so the steady-state read path performs *no* shared-memory write at
//! all — not even the `Arc` refcount bump, which at 8+ threads is a
//! single cache line every reader bounces through.
//!
//! In-flight readers keep their pinned snapshot alive through its
//! `Arc`; memory is reclaimed when the last pinned query (and any
//! thread-local cache entry) drops it.

use std::any::Any;
use std::cell::Cell;
use std::sync::atomic::{
    AtomicBool, AtomicU64,
    Ordering::{Acquire, Release, SeqCst},
};
use std::sync::Arc;
use std::time::Instant;

use std::path::{Path, PathBuf};

use parking_lot::{Mutex, RwLock, RwLockReadGuard};
use pmv_obs::{HistSnapshot, LatencyHistogram, ObsRegistry, Phase, ViewMetrics};
use pmv_query::{Database, DbSnapshot, QueryInstance, QueryTemplate};
use pmv_storage::DeltaBatch;
use pmv_sync::LeftRight;
use pmv_wal::{CheckpointMeta, Durability, ViewSpec};

use crate::concurrent::SharedPmv;
use crate::pipeline::QueryOutcome;
use crate::verify::{self, VerifyOptions};
use crate::view::{PartialViewDef, PmvConfig};
use crate::{CoreError, Result};

use std::sync::atomic::Ordering::Relaxed;

/// Type-erased result a commit closure hands back through its slot.
type ErasedResult = Result<Box<dyn Any + Send>>;

/// One enqueued transaction awaiting a combiner.
struct CommitReq {
    /// The transaction body, type-erased: mutate the database, return
    /// the caller's output plus the delta batches produced.
    #[allow(clippy::type_complexity)]
    apply: Box<dyn FnOnce(&mut Database) -> Result<(Box<dyn Any + Send>, Vec<DeltaBatch>)> + Send>,
    /// Where the combiner deposits the outcome.
    slot: Arc<CommitSlot>,
}

/// Completion slot for one commit request. `done` flips (`Release`)
/// only after `result` is filled, so a committer that observes
/// `done` (`Acquire`) can take the result without further ceremony.
#[derive(Default)]
struct CommitSlot {
    done: AtomicBool,
    result: Mutex<Option<ErasedResult>>,
}

impl CommitSlot {
    fn fill(&self, res: ErasedResult) {
        *self.result.lock() = Some(res);
        self.done.store(true, Release);
    }

    fn take<T: 'static>(&self) -> Result<T> {
        let res = self
            .result
            .lock()
            .take()
            .expect("commit slot marked done without a result");
        res.map(|out| {
            *out.downcast::<T>()
                .expect("group-commit result type mismatch")
        })
    }
}

/// Per-thread pinned-snapshot cache entry (see [`EpochDb::with_pin`]).
struct PinEntry {
    db: u64,
    version: usize,
    snap: Arc<DbSnapshot>,
    /// Cache hits accumulated thread-locally since the last publish to
    /// the shared counters. Flushed on the next miss (the rare path),
    /// so a steady-state hit still writes no shared cache line; hits in
    /// the tail after the final miss go unreported — acceptable for a
    /// rate statistic.
    hits: u64,
}

thread_local! {
    /// Cached pins, one per `EpochDb` this thread has queried. Held in
    /// a `Cell` (taken for the duration of each query) rather than a
    /// `RefCell` so a re-entrant query degrades to an uncached pin
    /// instead of a borrow panic.
    static PIN_CACHE: Cell<Vec<PinEntry>> = const { Cell::new(Vec::new()) };
}

/// Distinguishes `EpochDb` instances in the per-thread pin cache and in
/// their views' host tags, where 0 means "no host yet".
static NEXT_DB_ID: AtomicU64 = AtomicU64::new(1);

/// Host tag of a view some host is attaching right now.
const ATTACHING: u64 = u64::MAX;

/// A database with an epoch-published snapshot for lock-free serving.
pub struct EpochDb {
    id: u64,
    db: RwLock<Database>,
    published: LeftRight<DbSnapshot>,
    /// Commit requests awaiting a combiner (module docs).
    queue: Mutex<Vec<CommitReq>>,
    /// Transactions committed / combine rounds run — the ratio is the
    /// achieved group-commit batch size.
    commits: AtomicU64,
    combines: AtomicU64,
    /// The views this host owns, in attach order; every combine round
    /// maintains all of them. Lock order: `db`, then this.
    views: Mutex<Vec<SharedPmv>>,
    /// Optional durability engine. When present, the combiner appends
    /// one fsynced WAL record per round *before* maintenance and
    /// publish — durable strictly precedes visible — and a WAL failure
    /// rolls the round's deltas back and publishes nothing.
    durability: Option<Arc<Durability>>,
    /// Durable mark: the last published snapshot paired with the
    /// highest LSN it reflects. Checkpoints serialize from this pair so
    /// the image and its "replay after me" LSN agree exactly; updated
    /// by the combiner (and `with_write`) after each publish.
    durable: Mutex<Option<(Arc<DbSnapshot>, u64)>>,
    /// Commit-pipeline observability: master-lock wait, combine drain,
    /// snapshot publish — and, in durable mode, the WAL/checkpoint/
    /// recovery phases too (the registry is shared with [`Durability`],
    /// so `wal_append`/`wal_fsync`/`ckpt_write`/`recovery_replay`
    /// surface through [`EpochDb::obs`] instead of staying orphaned in
    /// the engine).
    obs: Arc<ObsRegistry>,
    /// Requests drained per combine round (recorded as raw counts, not
    /// nanoseconds).
    batch_sizes: LatencyHistogram,
    /// TLS pin-cache efficacy. Relaxed orderings throughout:
    /// "statistics, not synchronization" — flushed hit counts and miss
    /// tallies carry no happens-before obligation.
    pin_hits: AtomicU64,
    pin_misses: AtomicU64,
}

impl EpochDb {
    /// Wrap `db` and publish its current state as the first snapshot.
    /// Pure in-memory mode: no WAL, no checkpoints, zero durability
    /// overhead on the commit path.
    pub fn new(mut db: Database) -> Self {
        let snap = Arc::new(db.publish_snapshot());
        EpochDb {
            id: NEXT_DB_ID.fetch_add(1, SeqCst),
            db: RwLock::new(db),
            published: LeftRight::new(snap),
            queue: Mutex::new(Vec::new()),
            commits: AtomicU64::new(0),
            combines: AtomicU64::new(0),
            views: Mutex::new(Vec::new()),
            durability: None,
            durable: Mutex::new(None),
            obs: Arc::new(ObsRegistry::new()),
            batch_sizes: LatencyHistogram::new(),
            pin_hits: AtomicU64::new(0),
            pin_misses: AtomicU64::new(0),
        }
    }

    /// Wrap a (typically just-recovered) `db` with a durability engine:
    /// every subsequent commit is WAL-logged and fsynced before it
    /// becomes visible. The durable mark starts at the engine's current
    /// durable LSN paired with the initial snapshot.
    pub fn with_durability(mut db: Database, durability: Arc<Durability>) -> Self {
        let snap = Arc::new(db.publish_snapshot());
        let lsn = durability.durable_lsn();
        // Adopt the engine's registry: the WAL/checkpoint/recovery
        // phases it records and the commit-pipeline phases recorded
        // here land in one place (satisfying the "metrics reports the
        // durable path" contract).
        let obs = Arc::clone(durability.obs());
        EpochDb {
            id: NEXT_DB_ID.fetch_add(1, SeqCst),
            db: RwLock::new(db),
            published: LeftRight::new(Arc::clone(&snap)),
            queue: Mutex::new(Vec::new()),
            commits: AtomicU64::new(0),
            combines: AtomicU64::new(0),
            views: Mutex::new(Vec::new()),
            durability: Some(durability),
            durable: Mutex::new(Some((snap, lsn))),
            obs,
            batch_sizes: LatencyHistogram::new(),
            pin_hits: AtomicU64::new(0),
            pin_misses: AtomicU64::new(0),
        }
    }

    /// Open (or create) a durable database at `dir`: recover the newest
    /// valid checkpoint plus the WAL tail (see `pmv-wal`), and return
    /// the serving-ready [`EpochDb`] together with the recovered
    /// checkpoint metadata — the host re-registers views from
    /// `meta.views` (cold; their stores refill from queries, and
    /// revalidation can confirm consistency). Recovery progress is
    /// recorded into `obs` (`recovery_replay` phase; WAL/checkpoint
    /// phases accumulate there from then on).
    pub fn open_durable(dir: &Path, obs: Arc<ObsRegistry>) -> Result<(Self, CheckpointMeta)> {
        let recovered = Durability::open_with_obs(dir, obs)?;
        Ok((
            EpochDb::with_durability(recovered.db, Arc::new(recovered.durability)),
            recovered.meta,
        ))
    }

    /// Pin the current published snapshot: one wait-free load plus an
    /// `Arc` clone. The returned snapshot stays valid (and its memory
    /// alive) for as long as the caller holds it, no matter how many
    /// commits happen meanwhile.
    pub fn pin(&self) -> Arc<DbSnapshot> {
        self.published.load()
    }

    /// Run `f` against the current snapshot via the per-thread pin
    /// cache: one `Acquire` load of the publish counter revalidates the
    /// cached `Arc<DbSnapshot>`, and only an actual publish since the
    /// thread's last query forces a shared [`LeftRight::load`]. The
    /// steady-state read path therefore writes no shared cache line —
    /// the `Arc` refcount ping-pong that serializes [`EpochDb::pin`]
    /// across cores never happens.
    ///
    /// A thread's cache entry keeps its snapshot alive until that
    /// thread queries again (or exits); on a read-mostly serving tier
    /// that is exactly the pin lifetime readers already have.
    pub fn with_pin<R>(&self, f: impl FnOnce(&DbSnapshot) -> R) -> R {
        // One relaxed load; when off, the pin path is exactly as before.
        let track = self.obs.enabled();
        PIN_CACHE.with(|tls| {
            let mut cache = tls.take();
            // Hint is read BEFORE the load below: if a publish lands in
            // between, the cached entry is newer than its tag and just
            // revalidates once more than strictly needed — never the
            // other way around (a tag newer than the snapshot would
            // serve extra-stale reads without revalidating).
            let hint = self.published.version_hint();
            let idx = match cache.iter().position(|e| e.db == self.id) {
                Some(i) => {
                    if cache[i].version != hint {
                        cache[i].snap = self.published.load();
                        cache[i].version = hint;
                        if track {
                            // The miss is the rare path: publish the
                            // hits banked since the last one, so hits
                            // never write a shared cache line.
                            self.pin_misses.fetch_add(1, Relaxed);
                            self.pin_hits.fetch_add(cache[i].hits, Relaxed);
                            cache[i].hits = 0;
                        }
                    } else if track {
                        cache[i].hits += 1;
                    }
                    i
                }
                None => {
                    if track {
                        self.pin_misses.fetch_add(1, Relaxed);
                    }
                    cache.push(PinEntry {
                        db: self.id,
                        version: hint,
                        snap: self.published.load(),
                        hits: 0,
                    });
                    cache.len() - 1
                }
            };
            let out = f(&cache[idx].snap);
            tls.set(cache);
            out
        })
    }

    /// Shared read access to the live database, for inspection (row
    /// lookups, oracles, [`SharedPmv::revalidate`]) — never for serving.
    /// Blocks commits while held.
    pub fn read(&self) -> RwLockReadGuard<'_, Database> {
        self.db.read()
    }

    /// Commit one transaction through the group-commit queue: `f`
    /// mutates the database and returns the delta batches it produced
    /// (e.g. from `pmv_query::Transaction::commit`); every view the host
    /// owns is maintained and a new snapshot published before the result
    /// returns — the maintain-before-publish protocol the epoch serving
    /// path's correctness rests on (module docs). `views` are attached
    /// first, like a view served through [`EpochDb::query`]; the commit
    /// maintains the host's views whether or not they are listed.
    ///
    /// Under concurrency the enqueue→combine protocol coalesces work:
    /// whichever committer wins the master write lock drains *all*
    /// queued transactions, maintains each view once over the merged
    /// batches, and publishes a single snapshot for the group.
    /// An error from `f` fails only that transaction, and it publishes
    /// nothing of it: a `pmv_query::Transaction` dropped without `commit`
    /// undoes its own writes, so a closure that returns early with `?`
    /// leaves the database as it found it. (Writes made on `db` directly,
    /// outside a transaction, are the closure's own to undo.)
    pub fn commit<T: Send + 'static>(
        &self,
        views: &[&SharedPmv],
        f: impl FnOnce(&mut Database) -> Result<(T, Vec<DeltaBatch>)> + Send + 'static,
    ) -> Result<T> {
        for view in views {
            self.attach(view)?;
        }
        let slot = Arc::new(CommitSlot::default());
        let track = self.obs.enabled();
        self.queue.lock().push(CommitReq {
            apply: Box::new(move |db| {
                let (out, batches) = f(db)?;
                Ok((Box::new(out) as Box<dyn Any + Send>, batches))
            }),
            slot: Arc::clone(&slot),
        });
        loop {
            // A combiner may have drained our request while we raced
            // for the lock; slots are filled before the lock releases,
            // so `done` observed here (or right after acquiring) means
            // the result is ready and the lock is untouched by us.
            if slot.done.load(Acquire) {
                return slot.take();
            }
            let t_wait = track.then(Instant::now);
            let mut guard = self.db.write();
            if let Some(t0) = t_wait {
                self.obs.record(Phase::lock_master_commit, t0.elapsed());
            }
            if slot.done.load(Acquire) {
                drop(guard);
                return slot.take();
            }
            // We are the combiner. Our own request is still queued
            // (fills happen under the lock we now hold), and combine
            // drains the entire queue — so this iteration completes it.
            self.combine(&mut guard);
            debug_assert!(
                slot.done.load(Acquire),
                "combiner drained the queue without completing its own request"
            );
        }
    }

    /// Drain and apply every queued commit request under the held write
    /// lock: apply each transaction, maintain every view the host owns
    /// once over the merged delta batches, publish one snapshot, fill
    /// every slot. No-op on an empty queue.
    fn combine(&self, db: &mut Database) {
        let reqs: Vec<CommitReq> = std::mem::take(&mut *self.queue.lock());
        if reqs.is_empty() {
            return;
        }
        let track = self.obs.enabled();
        let t_drain = track.then(Instant::now);
        let batch = reqs.len() as u64;
        self.commits.fetch_add(batch, SeqCst);
        self.combines.fetch_add(1, SeqCst);
        if track {
            self.batch_sizes.record_ns(batch);
        }
        let mut applied: Vec<(Arc<CommitSlot>, Box<dyn Any + Send>)> =
            Vec::with_capacity(reqs.len());
        let mut batches: Vec<DeltaBatch> = Vec::new();
        for req in reqs {
            match (req.apply)(db) {
                Ok((out, mut b)) => {
                    batches.append(&mut b);
                    applied.push((req.slot, out));
                }
                // A failed transaction fails alone (its dropped
                // `Transaction` undid its writes); the rest of the round
                // proceeds.
                Err(e) => req.slot.fill(Err(e)),
            }
        }
        // Durable-before-visible: one WAL record for the whole round,
        // fsynced before any maintenance or publish. On failure the
        // round's deltas are rolled back (exact inverses, in reverse
        // order), every transaction reports the error, and nothing
        // publishes — readers keep the last durable snapshot.
        if let Some(dur) = &self.durability {
            if !batches.iter().all(|b| b.is_empty()) {
                if let Err(e) = dur.append_commit(&batches) {
                    for batch in batches.iter().rev() {
                        for delta in batch.deltas().iter().rev() {
                            db.undo_delta_exact(batch.relation(), delta).expect(
                                "undo of a just-applied delta cannot fail: \
                                 inverses target the exact rows the round wrote",
                            );
                        }
                    }
                    for (slot, _) in applied {
                        slot.fill(Err(CoreError::Durability(format!(
                            "WAL append failed; round rolled back, not published: {e}"
                        ))));
                    }
                    if let Some(t0) = t_drain {
                        self.obs.record(Phase::commit_drain, t0.elapsed());
                    }
                    return;
                }
            }
        }
        // Maintenance cannot fail: a join it cannot compute drains the
        // shards it may affect instead, so the round always publishes.
        for view in self.views.lock().iter() {
            view.maintain_all(db, &batches);
        }
        let t_pub = track.then(Instant::now);
        let snap = Arc::new(db.publish_snapshot());
        self.published.publish(Arc::clone(&snap));
        if let Some(t0) = t_pub {
            self.obs.record(Phase::snapshot_publish, t0.elapsed());
        }
        if let Some(dur) = &self.durability {
            // Safe to read here: all appends happen under the write lock
            // this combiner holds, so durable_lsn is exactly this round's
            // last record.
            *self.durable.lock() = Some((snap, dur.durable_lsn()));
        }
        for (slot, out) in applied {
            slot.fill(Ok(out));
        }
        if let Some(t0) = t_drain {
            self.obs.record(Phase::commit_drain, t0.elapsed());
        }
    }

    /// Transactions committed and combine rounds run so far. The ratio
    /// `commits / combines` is the achieved group-commit batch size.
    pub fn commit_counts(&self) -> (u64, u64) {
        (self.commits.load(SeqCst), self.combines.load(SeqCst))
    }

    /// This database's observability registry: commit-pipeline phases
    /// (`lock_master_commit`, `commit_drain`, `snapshot_publish`), and
    /// in durable mode the WAL/checkpoint/recovery phases the
    /// [`Durability`] engine records into the same registry.
    pub fn obs(&self) -> &Arc<ObsRegistry> {
        &self.obs
    }

    /// Requests-per-combine-round distribution (raw counts recorded on
    /// the nanosecond scale: `count()` is rounds, `mean()`'s nanosecond
    /// reading is the mean batch size).
    pub fn batch_size_hist(&self) -> HistSnapshot {
        self.batch_sizes.snapshot()
    }

    /// TLS pin-cache `(hits, misses)` published so far. Hits are banked
    /// thread-locally and flushed on each miss, so the hit count trails
    /// reality by at most one thread's current streak.
    pub fn pin_cache_counts(&self) -> (u64, u64) {
        (self.pin_hits.load(Relaxed), self.pin_misses.load(Relaxed))
    }

    /// Incremental snapshot-publish accounting from the underlying
    /// database: publishes, relation entries re-captured (dirty) versus
    /// reused (pointer-shared) — the SnapCache reuse ratio.
    pub fn snap_stats(&self) -> pmv_query::SnapStats {
        self.db.read().snap_stats()
    }

    /// The host's telemetry as a `__db` row beside the views': the
    /// snapshot-publish counters and reuse ratio, and this registry's
    /// commit-pipeline phases (plus, on a durable database, the
    /// WAL/checkpoint/recovery phases).
    pub fn metrics(&self) -> ViewMetrics {
        let ss = self.snap_stats();
        let counters = [
            ("snap_publishes", ss.publishes),
            ("snap_entries_reused", ss.reused),
            ("snap_entries_recaptured", ss.recaptured),
        ];
        ViewMetrics {
            name: "__db".to_string(),
            health: "healthy".to_string(),
            counters: counters
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
            gauges: [("snap_reuse_ratio".to_string(), ss.reuse_ratio())].into(),
            phases: self.obs.snapshots(),
            ..ViewMetrics::default()
        }
    }

    /// Pin-cache hit rate in `[0, 1]` (0 before any pin is published).
    pub fn pin_cache_hit_rate(&self) -> f64 {
        let (hits, misses) = self.pin_cache_counts();
        match hits + misses {
            0 => 0.0,
            n => hits as f64 / n as f64,
        }
    }

    /// Zero the pipeline series (bench warm-up resets): the batch-size
    /// histogram and the pin-cache tallies.
    /// `commits`/`combines` and the durable mark are untouched.
    pub fn reset_pipeline_obs(&self) {
        self.batch_sizes.reset();
        self.pin_hits.store(0, Relaxed);
        self.pin_misses.store(0, Relaxed);
    }

    /// Exclusive setup access (schema, bulk loads, index builds) with a
    /// snapshot republish on exit. Unlike [`EpochDb::commit`] this runs
    /// no maintenance, so it is only sound before the host owns a view:
    /// republishing after would pair a new database state with stale
    /// PMV shards, silently breaking the maintain-before-publish
    /// invariant.
    ///
    /// # Panics
    ///
    /// When the host owns a view. Once a view has joined the host, route
    /// every change through [`EpochDb::commit`].
    pub fn with_write<T>(&self, f: impl FnOnce(&mut Database) -> T) -> T {
        let mut guard = self.db.write();
        assert!(
            self.views.lock().is_empty(),
            "EpochDb::with_write on a host that owns a view: republishing \
             without maintenance pairs a new DB with stale PMV shards — \
             route the change through EpochDb::commit instead"
        );
        let out = f(&mut guard);
        let snap = Arc::new(guard.publish_snapshot());
        // pmv::allow(durable_before_visible): setup path — DDL and bulk
        // loads are checkpoint-durable, not WAL-logged (§16), and the
        // assertion above proves the host owns no view to serve yet.
        self.published.publish(Arc::clone(&snap));
        if let Some(dur) = &self.durability {
            // Setup-path changes (DDL, bulk loads) are not WAL-logged —
            // the log carries DML deltas only — so they become durable
            // at the next checkpoint. Refresh the mark so that
            // checkpoint captures them; hosts checkpoint right after
            // setup (the CLI does) to close the window.
            *self.durable.lock() = Some((snap, dur.durable_lsn()));
        }
        out
    }

    /// Write a checkpoint from the current durable mark: the last
    /// published snapshot serialized together with the exact LSN it
    /// reflects, plus the caller's registered view specs. Runs off the
    /// write path — commits keep flowing while the image is written —
    /// then rotates the WAL and deletes segments behind the checkpoint.
    /// Returns the checkpoint file path, or an error when the database
    /// is in-memory (no durability engine attached).
    pub fn checkpoint(&self, views: Vec<ViewSpec>) -> Result<PathBuf> {
        let dur = self.durability.as_ref().ok_or_else(|| {
            CoreError::Durability("no data directory attached (in-memory mode)".to_string())
        })?;
        let (snap, lsn) = self
            .durable
            .lock()
            .clone()
            .expect("durable mark is initialized whenever durability is attached");
        use pmv_query::DataView;
        let meta = CheckpointMeta {
            lsn,
            epoch: snap.view_epoch(),
            analyzed: snap.stats_view().is_some(),
            views,
        };
        let path = dur.checkpoint(&snap, &meta)?;
        Ok(path)
    }

    /// The durability engine, when this database has one.
    pub fn durability(&self) -> Option<&Arc<Durability>> {
        self.durability.as_ref()
    }

    /// Highest LSN reflected in the published snapshot (`None` in
    /// in-memory mode).
    pub fn durable_lsn(&self) -> Option<u64> {
        self.durable.lock().as_ref().map(|(_, lsn)| *lsn)
    }

    /// Serve one query on the epoch path: attach `pmv` (module docs),
    /// revalidate this thread's cached pin (recorded as
    /// [`Phase::epoch_pin`] when observability is enabled) and run the
    /// one O1/O2/O3 implementation against it. Once the view is attached
    /// this takes no lock — and in steady state writes no shared cache
    /// line — anywhere on the read path.
    pub fn query(&self, pmv: &SharedPmv, q: &QueryInstance) -> Result<QueryOutcome> {
        self.attach(pmv)?;
        // One atomic load when no flight recorder is attached; otherwise
        // time the whole call so the anomaly check below sees end-to-end
        // latency including the pin revalidation.
        let t_flight = pmv.flight_attached().then(Instant::now);
        let out = if pmv.obs().enabled() {
            let t0 = Instant::now();
            self.with_pin(|snap| {
                pmv.obs().record(Phase::epoch_pin, t0.elapsed());
                pmv.run_pinned(snap, q)
            })
        } else {
            self.with_pin(|snap| pmv.run_pinned(snap, q))
        };
        // Anomaly check OUTSIDE the pin region: a flight dump locks the
        // trace ring and writes to the spool sink, neither of which may
        // happen while a snapshot is pinned (`pin_reaches_blocking_lock`).
        if let (Some(t0), Ok(outcome)) = (&t_flight, &out) {
            pmv.flight_check(outcome, t0.elapsed());
        }
        out
    }

    /// Serve one query from a pin the caller holds — typically one taken
    /// with [`EpochDb::pin`] before later commits. The answer is the
    /// pinned state's; its results are written back to the view only
    /// when no maintenance has run since the pin (the fill gate), so an
    /// old pin never refills what a commit evicted. `snap` must be one
    /// of this host's snapshots.
    pub fn query_at(
        &self,
        snap: &DbSnapshot,
        pmv: &SharedPmv,
        q: &QueryInstance,
    ) -> Result<QueryOutcome> {
        self.attach(pmv)?;
        pmv.run_pinned(snap, q)
    }

    /// Make `pmv` one of this host's views (module docs). Once attached
    /// this is one `Acquire` load, paired with the tag's `Release` store
    /// in [`Self::adopt`].
    fn attach(&self, pmv: &SharedPmv) -> Result<()> {
        if pmv.inner.host.load(Acquire) == self.id {
            return Ok(());
        }
        let db = self.db.read();
        let mut views = self.views.lock();
        self.adopt(&db, &mut views, pmv)
    }

    /// Attach `pmv` under the held master (read) and list locks: claim
    /// its host tag, fence fills from older pins, join the list, then
    /// publish the tag — so a thread that sees the tag also sees the
    /// fence.
    fn adopt(&self, db: &Database, views: &mut Vec<SharedPmv>, pmv: &SharedPmv) -> Result<()> {
        let host = &pmv.inner.host;
        match host.compare_exchange(0, ATTACHING, Acquire, Acquire) {
            Ok(_) => {}
            Err(id) if id == self.id => return Ok(()),
            Err(_) => {
                return Err(CoreError::Definition(format!(
                    "view '{}' belongs to another host",
                    pmv.def().name()
                )))
            }
        }
        // The same Release store maintenance makes (`maintenance.rs`).
        pmv.inner.maint_epoch.store(db.version(), Release);
        views.push(pmv.clone());
        host.store(self.id, Release);
        Ok(())
    }

    /// Create and attach a view for `def`'s template, with an explicit
    /// shard count (a checkpointed [`ViewSpec`] restores its own) or the
    /// default of [`SharedPmv::new`].
    ///
    /// The definition first passes through the static verifier
    /// ([`crate::verify::verify_def`]); any `PMV001..PMV006` diagnostic
    /// at deny severity rejects it with [`CoreError::Analysis`] before a
    /// store is allocated (deny-by-default, [`VerifyOptions::default`]).
    /// A template the host already has a view for is a
    /// [`CoreError::Definition`].
    pub fn register(
        &self,
        def: PartialViewDef,
        config: PmvConfig,
        shards: Option<usize>,
    ) -> Result<SharedPmv> {
        let report = verify::verify_def(&def, &config, &VerifyOptions::default());
        if report.denied() {
            return Err(CoreError::Analysis(report));
        }
        let db = self.db.read();
        let mut views = self.views.lock();
        if views
            .iter()
            .any(|v| Arc::ptr_eq(v.def().template(), def.template()))
        {
            return Err(CoreError::Definition(format!(
                "template '{}' already has a PMV",
                def.template().name()
            )));
        }
        let pmv = match shards {
            Some(n) => SharedPmv::with_shards(def, config, n),
            None => SharedPmv::new(def, config),
        };
        self.adopt(&db, &mut views, &pmv)?;
        Ok(pmv)
    }

    /// The first view the host owns for `template`, if any.
    pub fn view_for(&self, template: &Arc<QueryTemplate>) -> Option<SharedPmv> {
        self.views
            .lock()
            .iter()
            .find(|v| Arc::ptr_eq(v.def().template(), template))
            .cloned()
    }

    /// Every view the host owns, in attach order.
    pub fn views(&self) -> Vec<SharedPmv> {
        self.views.lock().clone()
    }

    /// Epoch (database version) of the currently published snapshot.
    pub fn epoch(&self) -> u64 {
        use pmv_query::DataView;
        self.pin().view_epoch()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::run_plain;
    use crate::view::{PartialViewDef, PmvConfig};
    use pmv_cache::PolicyKind;
    use pmv_index::IndexDef;
    use pmv_query::{Condition, DataView, TemplateBuilder, Transaction};
    use pmv_storage::{tuple, Column, ColumnType, RowId, Schema, Tuple, Value};

    /// `r(a, f)`: 200 rows, 20 per `f` in `0..10`, indexed on `f`.
    fn load(db: &mut Database) {
        db.create_relation(Schema::new(
            "r",
            vec![
                Column::new("a", ColumnType::Int),
                Column::new("f", ColumnType::Int),
            ],
        ))
        .unwrap();
        for i in 0..200i64 {
            db.insert("r", tuple![i, i % 10]).unwrap();
        }
        db.create_index(IndexDef::btree("r", vec![1])).unwrap();
    }

    /// `SELECT a FROM r WHERE f = ?` with F = 4, L = 16.
    fn view(db: &Database, shards: usize) -> SharedPmv {
        let t = TemplateBuilder::new("t")
            .relation(db.schema("r").unwrap())
            .select("r", "a")
            .unwrap()
            .cond_eq("r", "f")
            .unwrap()
            .build()
            .unwrap();
        let def = PartialViewDef::all_equality("epoch", t).unwrap();
        SharedPmv::with_shards(def, PmvConfig::new(4, 16, PolicyKind::Clock), shards)
    }

    fn setup(shards: usize) -> (EpochDb, SharedPmv) {
        let mut db = Database::new();
        load(&mut db);
        let pmv = view(&db, shards);
        (EpochDb::new(db), pmv)
    }

    fn query_f(pmv: &SharedPmv, f: i64) -> QueryInstance {
        let t = pmv.def().template();
        t.bind(vec![Condition::Equality(vec![Value::Int(f)])])
            .unwrap()
    }

    /// The first live row with `f = 3`. Found before any pin is taken:
    /// `pin_reaches_blocking_lock` bans blocking acquisitions in the
    /// scope of a `.pin()` binding, even in tests.
    fn row_with_f3(edb: &EpochDb) -> RowId {
        let guard = edb.read();
        let handle = guard.relation("r").unwrap();
        let rel = handle.read();
        let row = rel
            .iter()
            .find(|(_, tu)| tu.get(1) == &Value::Int(3))
            .map(|(r, _)| r)
            .unwrap();
        row
    }

    #[test]
    fn pinned_queries_match_plain_execution() {
        let (edb, pmv) = setup(4);
        for round in 0..3 {
            for f in 0..10i64 {
                let q = query_f(&pmv, f);
                let pinned = edb.query(&pmv, &q).unwrap();
                assert_eq!(pinned.ds_leftover, 0);
                let mut a = pinned.all_results();
                let (mut b, _, _) = run_plain(&edb.read(), &q).unwrap();
                a.sort();
                b.sort();
                assert_eq!(a, b, "round {round} f={f}");
            }
        }
        pmv.debug_validate();
        assert!(pmv.stats().bcp_hit_queries > 0, "epoch fills must serve");
        assert!(pmv.obs().snapshot(Phase::epoch_pin).count() >= 30);
        assert!(pmv.obs().snapshot(Phase::snapshot_swap).count() >= 1);
    }

    #[test]
    fn pinned_reader_survives_commits() {
        let (edb, pmv) = setup(4);
        let q = query_f(&pmv, 3);
        // Warm the cache, then pin BEFORE a delete commits.
        let row = row_with_f3(&edb);
        edb.query(&pmv, &q).unwrap();
        let pinned = edb.pin();
        let before = edb.query(&pmv, &q).unwrap().all_results().len();
        edb.commit(&[&pmv], move |db| {
            let mut txn = Transaction::begin(db);
            txn.delete("r", row).unwrap();
            Ok(((), txn.commit()))
        })
        .unwrap();
        // The old pin still answers from the pre-delete state.
        let stale = edb.query_at(&pinned, &pmv, &q).unwrap();
        assert_eq!(stale.all_results().len(), before);
        assert_eq!(stale.ds_leftover, 0);
        // A fresh pin sees the delete.
        let fresh = edb.query(&pmv, &q).unwrap();
        assert_eq!(fresh.all_results().len(), before - 1);
        assert_eq!(fresh.ds_leftover, 0);
        pmv.debug_validate();
    }

    #[test]
    fn epoch_advances_on_commit() {
        let (edb, pmv) = setup(4);
        let e0 = edb.epoch();
        edb.commit(&[&pmv], move |db| {
            let mut txn = Transaction::begin(db);
            txn.insert("r", tuple![900i64, 3i64]).unwrap();
            Ok(((), txn.commit()))
        })
        .unwrap();
        assert!(edb.epoch() > e0);
    }

    /// Delete the first `f = 3` row, then insert into a relation that
    /// does not exist: the closure fails after one applied write.
    fn delete_then_fail(edb: &EpochDb, pmv: &SharedPmv) -> Result<()> {
        let row = row_with_f3(edb);
        edb.commit(&[pmv], move |db| {
            let mut txn = Transaction::begin(db);
            txn.delete("r", row)?;
            txn.insert("no_such_relation", tuple![0i64])?;
            Ok(((), txn.commit()))
        })
    }

    /// A commit closure that fails midway publishes none of its writes:
    /// its `Transaction` undoes the delete when it drops, so the warm
    /// view and the published snapshot still agree. (Were the delete
    /// published, unmaintained, the next query would serve its cached
    /// tuple and trip "DS must be empty after O3".)
    #[test]
    fn failed_commit_closure_publishes_nothing() {
        let (edb, pmv) = setup(1);
        let q = query_f(&pmv, 3);
        edb.query(&pmv, &q).unwrap();
        let warm = edb.query(&pmv, &q).unwrap();
        assert_eq!((warm.partial.len(), warm.all_results().len()), (4, 20));

        let err = delete_then_fail(&edb, &pmv).unwrap_err();
        assert!(matches!(err, CoreError::Query(_)), "got {err}");
        let after = edb.query(&pmv, &q).unwrap();
        assert_eq!(after.all_results().len(), 20);
        assert_eq!(after.ds_leftover, 0);
        assert_eq!(edb.pin().len("r").unwrap(), 200);
        assert_eq!(pmv.revalidate(&edb.read()).unwrap(), 0);
    }

    /// Every live tuple of `r` in `snap`, sorted.
    fn contents(snap: &DbSnapshot) -> Vec<Tuple> {
        let rel = snap.relation_version("r").unwrap();
        let mut tuples: Vec<Tuple> = rel.iter().map(|(_, t)| t.clone()).collect();
        tuples.sort();
        tuples
    }

    /// The durable variant: the failed closure logs nothing (the durable
    /// LSN stays put), and a reopen recovers exactly the published state.
    #[test]
    fn failed_durable_commit_closure_logs_and_publishes_nothing() {
        let dir = tmp_dir("failed_closure");
        let (edb, _) = EpochDb::open_durable(&dir, Arc::new(ObsRegistry::new())).unwrap();
        edb.with_write(load);
        edb.checkpoint(Vec::new()).unwrap();
        let pmv = view(&edb.read(), 1);
        edb.commit(&[&pmv], |db| {
            let mut txn = Transaction::begin(db);
            txn.insert("r", tuple![500i64, 3i64])?;
            Ok(((), txn.commit()))
        })
        .unwrap();
        let q = query_f(&pmv, 3);
        edb.query(&pmv, &q).unwrap();
        let lsn = edb.durable_lsn();
        assert_eq!(lsn, Some(1));

        assert!(delete_then_fail(&edb, &pmv).is_err());
        assert_eq!(edb.durable_lsn(), lsn);
        assert_eq!(edb.durability().unwrap().durable_lsn(), 1);
        let after = edb.query(&pmv, &q).unwrap();
        assert_eq!((after.all_results().len(), after.ds_leftover), (21, 0));
        let published = contents(&edb.pin());
        assert_eq!(published.len(), 201);
        drop(edb);

        let (reopened, _) = EpochDb::open_durable(&dir, Arc::new(ObsRegistry::new())).unwrap();
        assert_eq!(contents(&reopened.pin()), published);
        std::fs::remove_dir_all(&dir).ok();
    }

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("pmv_epoch_durable").join(name);
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn durable_commit_survives_reopen() {
        let dir = tmp_dir("reopen");
        let obs = Arc::new(ObsRegistry::new());
        let (edb, meta) = EpochDb::open_durable(&dir, obs).unwrap();
        assert!(meta.views.is_empty());
        edb.with_write(|db| {
            db.create_relation(Schema::new(
                "r",
                vec![
                    Column::new("a", ColumnType::Int),
                    Column::new("f", ColumnType::Int),
                ],
            ))
            .unwrap();
            db.insert("r", tuple![1i64, 1i64]).unwrap();
        });
        // Setup-path changes become durable via checkpoint.
        edb.checkpoint(Vec::new()).unwrap();
        // A WAL-logged commit rides the tail past the checkpoint.
        edb.commit(&[], |db| {
            let mut txn = Transaction::begin(db);
            txn.insert("r", tuple![2i64, 2i64]).unwrap();
            Ok(((), txn.commit()))
        })
        .unwrap();
        assert_eq!(edb.durable_lsn(), Some(1));
        drop(edb);

        let obs = Arc::new(ObsRegistry::new());
        let (edb2, _) = EpochDb::open_durable(&dir, Arc::clone(&obs)).unwrap();
        let info = edb2.durability().unwrap().recovery_info().clone();
        assert!(info.checkpoint_found);
        assert_eq!(info.replayed_records, 1);
        assert_eq!(info.durable_lsn, 1);
        assert_eq!(edb2.read().relation("r").unwrap().read().len(), 2);
        assert!(obs.snapshot(Phase::recovery_replay).count() >= 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn wal_failure_rolls_back_and_publishes_nothing() {
        use pmv_faultinject::{install, FaultKind, FaultPlan, Site};
        let dir = tmp_dir("wal_fail");
        let obs = Arc::new(ObsRegistry::new());
        let (edb, _) = EpochDb::open_durable(&dir, obs).unwrap();
        edb.with_write(|db| {
            db.create_relation(Schema::new("r", vec![Column::new("a", ColumnType::Int)]))
                .unwrap();
        });
        edb.checkpoint(Vec::new()).unwrap();
        let epoch_before = edb.epoch();

        let plan = Arc::new(FaultPlan::new(7).with_rule_at(Site::WalFsync, FaultKind::Io, 0));
        let guard = install(plan);
        let err = edb
            .commit(&[], |db| {
                let mut txn = Transaction::begin(db);
                txn.insert("r", tuple![10i64]).unwrap();
                Ok(((), txn.commit()))
            })
            .unwrap_err();
        drop(guard);
        assert!(matches!(err, CoreError::Durability(_)), "got {err}");
        // Rolled back: nothing published, nothing in the heap, and the
        // LSN was not consumed.
        assert_eq!(edb.epoch(), epoch_before);
        assert_eq!(edb.read().relation("r").unwrap().read().len(), 0);
        assert_eq!(edb.durability().unwrap().durable_lsn(), 0);

        // The engine keeps working after the fault clears.
        edb.commit(&[], |db| {
            let mut txn = Transaction::begin(db);
            txn.insert("r", tuple![11i64]).unwrap();
            Ok(((), txn.commit()))
        })
        .unwrap();
        assert_eq!(edb.durable_lsn(), Some(1));
        assert_eq!(edb.read().relation("r").unwrap().read().len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stale_pin_never_writes_back_past_maintenance() {
        let (edb, pmv) = setup(4);
        let q = query_f(&pmv, 3);
        let row = row_with_f3(&edb);
        let pinned = edb.pin();
        // Maintenance completes at a later epoch…
        edb.commit(&[&pmv], move |db| {
            let mut txn = Transaction::begin(db);
            txn.delete("r", row).unwrap();
            Ok(((), txn.commit()))
        })
        .unwrap();
        // …so the stale pin's results (which still contain the deleted
        // row) must not be cached.
        let stale = edb.query_at(&pinned, &pmv, &q).unwrap();
        assert_eq!(stale.ds_leftover, 0);
        assert_eq!(pmv.tuple_count(), 0, "stale fill must be gated off");
        // And the fresh pin's results may be.
        edb.query(&pmv, &q).unwrap();
        assert!(pmv.tuple_count() > 0);
        pmv.debug_validate();
    }

    /// A pin taken before the view joined the host may hold rows that
    /// commits deleted while no one maintained the view: its answer is
    /// the pin's, but it fills nothing, and the next query is exact.
    #[test]
    fn pin_older_than_the_attach_cannot_fill() {
        let (edb, pmv) = setup(1);
        let q = query_f(&pmv, 3);
        let row = row_with_f3(&edb);
        {
            let pinned = edb.pin();
            edb.commit(&[], move |db| {
                let mut txn = Transaction::begin(db);
                txn.delete("r", row)?;
                Ok(((), txn.commit()))
            })
            .unwrap();
            let old = edb.query_at(&pinned, &pmv, &q).unwrap();
            assert_eq!((old.all_results().len(), old.ds_leftover), (20, 0));
            assert_eq!(pmv.tuple_count(), 0, "a pre-attach pin must not fill");
        }
        let fresh = edb.query(&pmv, &q).unwrap();
        assert_eq!((fresh.all_results().len(), fresh.ds_leftover), (19, 0));
        assert_eq!(pmv.tuple_count(), 4);
        assert_eq!(pmv.revalidate(&edb.read()).unwrap(), 0);
    }

    #[test]
    fn a_view_belongs_to_one_host() {
        let (edb, pmv) = setup(1);
        let q = query_f(&pmv, 3);
        edb.query(&pmv, &q).unwrap();
        let mut db = Database::new();
        load(&mut db);
        let other = EpochDb::new(db);
        let err = other.query(&pmv, &q).unwrap_err();
        assert!(matches!(err, CoreError::Definition(_)), "got {err}");
        assert!(other.commit(&[&pmv], |_| Ok(((), Vec::new()))).is_err());
        assert!(other.views().is_empty());
        assert_eq!(edb.views().len(), 1);
    }

    #[test]
    #[should_panic(expected = "with_write on a host that owns a view")]
    fn with_write_refuses_once_the_host_owns_a_view() {
        let (edb, pmv) = setup(1);
        edb.query(&pmv, &query_f(&pmv, 3)).unwrap();
        edb.with_write(|db| db.insert("r", tuple![900i64, 3i64]).unwrap());
    }

    /// `r` as above, with two templates over it: `by_f` (`SELECT a WHERE
    /// f = ?`) and `by_a` (`SELECT f WHERE a = ?`).
    fn two_templates() -> (EpochDb, Arc<QueryTemplate>, Arc<QueryTemplate>) {
        let mut db = Database::new();
        load(&mut db);
        let build = |name: &str, select: &str, cond: &str| {
            TemplateBuilder::new(name)
                .relation(db.schema("r").unwrap())
                .select("r", select)
                .unwrap()
                .cond_eq("r", cond)
                .unwrap()
                .build()
                .unwrap()
        };
        let (ta, tb) = (build("by_f", "a", "f"), build("by_a", "f", "a"));
        (EpochDb::new(db), ta, tb)
    }

    fn register(edb: &EpochDb, name: &str, t: &Arc<QueryTemplate>, config: PmvConfig) {
        let def = PartialViewDef::all_equality(name, t.clone()).unwrap();
        edb.register(def, config, None).unwrap();
    }

    /// Registers `pmv_a` over `by_f` and `pmv_b` over `by_a`.
    fn register_both(edb: &EpochDb, ta: &Arc<QueryTemplate>, tb: &Arc<QueryTemplate>) {
        register(edb, "pmv_a", ta, PmvConfig::new(2, 16, PolicyKind::Clock));
        register(edb, "pmv_b", tb, PmvConfig::new(2, 16, PolicyKind::Clock));
    }

    fn bind(t: &Arc<QueryTemplate>, v: i64) -> QueryInstance {
        t.bind(vec![Condition::Equality(vec![Value::Int(v)])])
            .unwrap()
    }

    /// Serve `q` from its template's view, the way a host routes it.
    fn routed(edb: &EpochDb, q: &QueryInstance) -> QueryOutcome {
        edb.query(&edb.view_for(q.template()).unwrap(), q).unwrap()
    }

    /// Revalidate every view, as the CLI's `revalidate` does; returns
    /// the tuples removed.
    fn revalidate_all(edb: &EpochDb) -> usize {
        let db = edb.read();
        edb.views().iter().map(|v| v.revalidate(&db).unwrap()).sum()
    }

    #[test]
    fn routes_queries_by_template() {
        let (edb, ta, tb) = two_templates();
        register_both(&edb, &ta, &tb);
        routed(&edb, &bind(&ta, 3));
        routed(&edb, &bind(&tb, 7));
        assert_eq!(edb.view_for(&ta).unwrap().stats().queries, 1);
        assert_eq!(edb.view_for(&tb).unwrap().stats().queries, 1);
    }

    #[test]
    fn register_keeps_the_shard_count_and_one_view_per_template() {
        let (edb, ta, tb) = two_templates();
        let def = PartialViewDef::all_equality("three", ta.clone()).unwrap();
        let view = edb.register(def, PmvConfig::default(), Some(3)).unwrap();
        assert_eq!(view.shard_count(), 3);
        assert_eq!(edb.view_for(&ta).unwrap().shard_count(), 3);
        assert!(edb.view_for(&tb).is_none());
        let again = PartialViewDef::all_equality("again", ta.clone()).unwrap();
        let err = edb.register(again, PmvConfig::default(), Some(2));
        assert!(matches!(err, Err(CoreError::Definition(_))));
        assert_eq!(edb.views().len(), 1);
    }

    #[test]
    fn register_runs_static_verifier_deny_by_default() {
        use crate::bcp::Discretizer;
        use crate::verify::DiagCode;
        let (edb, ..) = two_templates();
        let t = TemplateBuilder::new("iv")
            .relation(edb.read().schema("r").unwrap())
            .select("r", "a")
            .unwrap()
            .cond_interval("r", "f")
            .unwrap()
            .build()
            .unwrap();
        // Raw, unnormalized dividers: PMV002 must deny the registration.
        let bad = Discretizer::from_raw(vec![Value::Int(20), Value::Int(10)]);
        let def = PartialViewDef::new("bad_grid", t, vec![Some(bad)]).unwrap();
        match edb.register(def, PmvConfig::default(), None) {
            Err(CoreError::Analysis(report)) => {
                assert!(report.has(DiagCode::OverlappingBasicIntervals), "{report}")
            }
            Err(other) => panic!("expected analysis denial, got {other}"),
            Ok(_) => panic!("a denied definition registered"),
        }
        assert!(
            edb.views().is_empty(),
            "no store allocated for a denied view"
        );
    }

    /// A commit that names no view maintains every view over the
    /// relation it changes.
    #[test]
    fn commit_maintains_every_view_it_owns() {
        let (edb, ta, tb) = two_templates();
        register_both(&edb, &ta, &tb);
        let (qa, qb) = (bind(&ta, 3), bind(&tb, 13));
        routed(&edb, &qa);
        routed(&edb, &qb);
        // Delete the tuple (13, 3): both views cached a tuple it derives.
        let row = {
            let guard = edb.read();
            let handle = guard.relation("r").unwrap();
            let rel = handle.read();
            let row = rel.iter().find(|(_, t)| t.get(0) == &Value::Int(13));
            row.map(|(r, _)| r).unwrap()
        };
        edb.commit(&[], move |db| {
            let mut txn = Transaction::begin(db);
            txn.delete("r", row)?;
            Ok(((), txn.commit()))
        })
        .unwrap();
        for v in edb.views() {
            let stats = v.stats();
            let name = v.def().name();
            assert_eq!(stats.maint_deletes_joined, 1, "{name} not maintained");
        }
        let removed: u64 = edb
            .views()
            .iter()
            .map(|v| v.stats().maint_tuples_removed)
            .sum();
        assert!(removed >= 1, "the cached (13) tuple must be evicted");
        assert_eq!(routed(&edb, &qa).ds_leftover, 0);
        assert_eq!(routed(&edb, &qb).all_results().len(), 0);
        assert_eq!(revalidate_all(&edb), 0);
    }

    #[test]
    fn revalidate_sweeps_every_view() {
        use crate::bcp::{BcpDim, BcpKey};
        use crate::concurrent::tests::seed_stale;
        let (edb, ta, tb) = two_templates();
        register_both(&edb, &ta, &tb);
        let qa = bind(&ta, 3);
        routed(&edb, &qa);
        routed(&edb, &bind(&tb, 13));
        assert_eq!(revalidate_all(&edb), 0, "nothing stale yet");
        // `by_a` keeps room under F = 2 in bcp a = 13 (one row), and no
        // base row has (a, f) = (13, 9).
        let bcp = BcpKey::new(vec![BcpDim::Eq(Value::Int(13))]);
        seed_stale(&edb.view_for(&tb).unwrap(), &bcp, tuple![9i64, 13i64]);
        assert_eq!(revalidate_all(&edb), 1);
        assert_eq!(revalidate_all(&edb), 0);
        assert_eq!(routed(&edb, &qa).ds_leftover, 0);
    }

    #[test]
    fn revalidate_resets_transient_counters() {
        let (edb, ta, tb) = two_templates();
        // A zero row budget degrades every query: transient counters rise.
        let tight = PmvConfig::new(2, 16, PolicyKind::Clock).with_row_budget(0);
        register(&edb, "tight", &ta, tight);
        register(&edb, "other", &tb, PmvConfig::new(2, 16, PolicyKind::Clock));
        routed(&edb, &bind(&ta, 3));
        let view = edb.view_for(&ta).unwrap();
        let before = view.stats();
        assert!(before.budget_exceeded > 0, "row budget must have tripped");
        assert!(before.degraded_queries > 0);
        revalidate_all(&edb);
        let after = view.stats();
        assert_eq!(after.budget_exceeded, 0, "transient counters reset");
        assert_eq!(after.degraded_queries, 0);
        assert_eq!(after.queries, before.queries, "workload history kept");
        assert_eq!(after.revalidations, 1);
    }

    #[test]
    fn metrics_export_covers_every_view_and_phase() {
        let (edb, ta, tb) = two_templates();
        register_both(&edb, &ta, &tb);
        // Repeats make the second query of each pair a bcp hit.
        for f in [0i64, 0, 1, 1, 2] {
            routed(&edb, &bind(&ta, f));
        }
        let metrics: Vec<ViewMetrics> = edb.views().iter().map(SharedPmv::metrics).collect();
        assert_eq!(metrics.len(), 2);
        let v = metrics.iter().find(|v| v.name == "pmv_a").unwrap();
        assert_eq!(v.health, "healthy");
        assert_eq!(v.template.as_deref(), Some("by_f"));
        assert_eq!(v.counter("queries"), 5, "{:?}", v.counters);
        assert!(v.gauge("hit_probability") > 0.0);
        // Every declared phase appears; ttfr/full actually recorded.
        assert_eq!(v.phases.len(), Phase::ALL.len());
        assert_eq!(v.phase("ttfr").count(), 5);

        let text = pmv_obs::to_prometheus(&metrics);
        assert!(
            text.contains("pmv_queries_total{view=\"pmv_a\"} 5"),
            "{text}"
        );
        assert!(
            text.contains("pmv_phase_latency_seconds_count{view=\"pmv_a\",phase=\"full\"} 5"),
            "{text}"
        );
        // Traces were captured and the tail is bounded per view.
        let traces: Vec<_> = edb
            .views()
            .iter()
            .flat_map(|v| v.obs().trace().tail(3))
            .collect();
        assert_eq!(traces.len(), 3, "only pmv_a ran queries");
        assert!(traces.iter().all(|t| &*t.template == "pmv_a"));
        assert!(traces
            .iter()
            .all(|t| t.events.iter().any(|e| e.kind.name() == "first_results")));
    }

    #[test]
    fn metrics_carry_last_verified_age() {
        let (edb, ta, tb) = two_templates();
        register_both(&edb, &ta, &tb);
        routed(&edb, &bind(&ta, 3));
        std::thread::sleep(std::time::Duration::from_millis(5));
        let ages = || -> Vec<u64> {
            let views = edb.views();
            views
                .iter()
                .map(|v| v.metrics().last_verified_age_ms)
                .collect()
        };
        assert!(ages().iter().all(|&a| a >= 5));
        // A revalidation sweep resets the age.
        revalidate_all(&edb);
        assert!(ages().iter().all(|&a| a < 5), "{:?}", ages());
    }
}
