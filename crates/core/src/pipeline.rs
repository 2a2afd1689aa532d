//! The single-owner PMV and its pipeline front end.
//!
//! [`Pmv`] is one view's definition, bounded store and statistics, owned
//! by one caller (`&mut Pmv`). [`PmvPipeline::run`] serves a query from it
//! under the paper's Section 3.6 protocol: it takes an **S lock** on the
//! view, held from O2 through the end of O3, so no maintainer (which
//! takes the X lock, see [`crate::maintenance`]) can make the served
//! partial results inconsistent with the full execution. The O1 → O2 → O3
//! algorithm itself lives in [`crate::serve`]; this module supplies its
//! *direct* store-access instance — O2 reads the live store, write-back
//! is always granted, nothing is published — with the live `Database` as
//! the [`pmv_query::DataView`].

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use pmv_obs::{
    EventKind, ObsRegistry, Phase, SpaceSaving, TemplateAccount, TraceKind, DEFAULT_SKETCH_CAPACITY,
};
use pmv_query::{execute, Database, ExecStats, LockManager, QueryInstance};
use pmv_storage::Tuple;

use crate::bcp::BcpKey;
use crate::health::{CircuitBreaker, Degradation, VerifiedClock, ViewHealth};
use crate::o1::ConditionPart;
use crate::serve::{self, ServeEnv, StoreAccess, WriteBack};
use crate::stats::PmvStats;
use crate::store::{CachedTuple, PmvStore};
use crate::view::{PartialViewDef, PmvConfig};
use crate::Result;

/// A live partial materialized view: definition + bounded store + stats.
pub struct Pmv {
    pub(crate) def: PartialViewDef,
    pub(crate) config: PmvConfig,
    pub(crate) store: PmvStore,
    pub(crate) stats: PmvStats,
    pub(crate) breaker: CircuitBreaker,
    /// When the view last completed maintenance or revalidation — the
    /// reference point for the staleness bound in degraded outcomes.
    pub(crate) verified: VerifiedClock,
    /// Per-phase latency histograms + lifecycle trace ring.
    pub(crate) obs: ObsRegistry,
    /// View name as a shared `Arc<str>` for query trace spans.
    trace_name: Arc<str>,
    /// Per-template workload account, attached by the embedding layer.
    account: Option<Arc<TemplateAccount>>,
    /// Space-saving sketch over delta-key hashes — the heavy/light
    /// router for [`crate::view::MaintStrategy::HeavyLight`].
    pub(crate) delta_sketch: SpaceSaving,
}

impl Pmv {
    /// Create an (initially empty) PMV.
    pub fn new(def: PartialViewDef, config: PmvConfig) -> Self {
        let mut store = PmvStore::new(&config);
        if config.maint_filter {
            store.enable_index(crate::delta_index::DeltaKeyIndex::new(def.template()));
        }
        let breaker = CircuitBreaker::new(config.breaker);
        let trace_name: Arc<str> = Arc::from(def.name());
        Pmv {
            def,
            config,
            store,
            stats: PmvStats::default(),
            breaker,
            verified: VerifiedClock::new(),
            obs: ObsRegistry::new(),
            trace_name,
            account: None,
            delta_sketch: SpaceSaving::new(DEFAULT_SKETCH_CAPACITY),
        }
    }

    /// Per-phase latency histograms and the lifecycle trace ring
    /// (`obs().set_enabled(false)` reduces recording to a relaxed load
    /// per call site).
    pub fn obs(&self) -> &ObsRegistry {
        &self.obs
    }

    /// Time since the view last completed maintenance or revalidation —
    /// the breaker-state *age* surfaced by health reports.
    pub fn last_verified_age(&self) -> Duration {
        self.verified.staleness()
    }

    /// Attach a per-template workload account; queries record into it
    /// while observability is enabled, exactly as on a sharded view.
    pub fn attach_account(&mut self, acct: Arc<TemplateAccount>) {
        self.account = Some(acct);
    }

    /// The view definition.
    pub fn def(&self) -> &PartialViewDef {
        &self.def
    }

    /// The tuning knobs.
    pub fn config(&self) -> &PmvConfig {
        &self.config
    }

    /// The bounded store (read access).
    pub fn store(&self) -> &PmvStore {
        &self.store
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> &PmvStats {
        &self.stats
    }

    /// Zero the statistics (e.g. after a warm-up phase).
    pub fn reset_stats(&mut self) {
        self.stats = PmvStats::default();
    }

    /// Build the query instance selecting exactly the tuples of `bcp`
    /// (each dimension pinned to the equality value / basic interval).
    pub fn bcp_query(&self, bcp: &BcpKey) -> Result<QueryInstance> {
        self.def.bcp_query(bcp)
    }

    /// Current health of this view's circuit breaker.
    pub fn health(&self) -> ViewHealth {
        self.breaker.state()
    }

    /// The circuit breaker guarding this view's serving path.
    pub fn breaker(&self) -> &CircuitBreaker {
        &self.breaker
    }

    /// Repair utility: re-execute each resident bcp's query and drop any
    /// cached tuple not in the current answer. Useful after direct base
    /// mutations that bypassed maintenance, or to recover a quarantined
    /// view; also the oracle the property tests use. (Cross-relation
    /// same-transaction deletes no longer need it —
    /// [`PmvPipeline::maintain_all`] runs the union pass.) Lifts any
    /// quarantine and resets the circuit breaker — the cache is
    /// known-consistent afterwards.
    pub fn revalidate(&mut self, db: &Database) -> Result<usize> {
        let t_start = Instant::now();
        let mut trace = self.obs.begin_trace(TraceKind::Revalidate, self.def.name());
        let removed = revalidate_store(db, &self.def, &mut self.store)?;
        self.store.lift_quarantine();
        self.breaker.reset();
        self.obs.record(Phase::revalidate, t_start.elapsed());
        trace.event(EventKind::Revalidated { removed });
        drop(trace);
        // The sweep closes the failure episode: clear the transient
        // panic/degradation/quarantine tallies along with the breaker so
        // health reports reflect the verified state, then record the
        // sweep itself.
        self.stats.reset_transient();
        self.obs.reset_transient();
        self.stats.revalidations += 1;
        self.verified.mark();
        Ok(removed)
    }
}

/// Drop every cached tuple of `store` that is not in the current answer of
/// its bcp's query. Shared by [`Pmv::revalidate`] and the sharded
/// [`crate::concurrent::SharedPmv`] (which revalidates shard by shard).
pub(crate) fn revalidate_store(
    db: &Database,
    def: &PartialViewDef,
    store: &mut PmvStore,
) -> Result<usize> {
    let bcps: Vec<BcpKey> = store.iter().map(|(k, _)| k.clone()).collect();
    let truths = bcp_truths(db, def, &bcps)?;
    let mut removed = 0;
    for (bcp, mut budget) in truths {
        removed += remove_stale(store, &bcp, &mut budget);
    }
    Ok(removed)
}

/// Revalidation phase 1: for each cached bcp, re-derive the multiset of
/// tuples its query produces from current base truth. Pure executor
/// reads — no store access — so the sharded embedding runs this with no
/// shard lock held (repo lock rule: never hold a shard guard across a
/// call into `query::exec`).
pub(crate) fn bcp_truths(
    db: &Database,
    def: &PartialViewDef,
    bcps: &[BcpKey],
) -> Result<Vec<(BcpKey, HashMap<Tuple, usize>)>> {
    let mut out = Vec::with_capacity(bcps.len());
    for bcp in bcps {
        let q = def.bcp_query(bcp)?;
        let (truth, _) = execute(db, &q)?;
        let mut budget: HashMap<Tuple, usize> = HashMap::new();
        for t in truth {
            *budget.entry(t).or_insert(0) += 1;
        }
        out.push((bcp.clone(), budget));
    }
    Ok(out)
}

/// Revalidation phase 2: drop the cached tuples of `bcp` that exceed the
/// truth multiset. Runs under the store's exclusive guard; removal-only,
/// hence always sound.
pub(crate) fn remove_stale(
    store: &mut PmvStore,
    bcp: &BcpKey,
    budget: &mut HashMap<Tuple, usize>,
) -> usize {
    // Pointer-copies only: the entries hold `Arc<Tuple>`s.
    let cached: Vec<(Arc<Tuple>, u64)> = store.lookup(bcp).map(|s| s.to_vec()).unwrap_or_default();
    let mut removed = 0;
    for (t, _) in cached {
        match budget.get_mut(&*t) {
            Some(n) if *n > 0 => *n -= 1,
            _ => {
                store.remove_tuple(bcp, &t);
                removed += 1;
            }
        }
    }
    removed
}

/// Wall-clock breakdown of one pipeline run.
#[derive(Clone, Copy, Debug, Default)]
pub struct QueryTimings {
    /// Operation O1 (decomposition).
    pub o1: Duration,
    /// Operation O2 (PMV probe + partial-result return).
    pub o2: Duration,
    /// Full query execution inside O3.
    pub exec: Duration,
    /// O3 bookkeeping beyond execution (DS checks, bcp recovery, PMV
    /// fill/update).
    pub o3_overhead: Duration,
}

impl QueryTimings {
    /// Total overhead of "our techniques" as the paper measures it:
    /// everything except the query execution itself.
    pub fn overhead(&self) -> Duration {
        self.o1 + self.o2 + self.o3_overhead
    }
}

/// Everything a pipeline run produced.
#[derive(Clone, Debug)]
pub struct QueryOutcome {
    /// Partial results served from the PMV in O2 (user layout `Ls`).
    pub partial: Vec<Tuple>,
    /// Remaining results served in O3 (user layout `Ls`).
    pub remaining: Vec<Tuple>,
    /// Partial results in `Ls'` layout (extensions need the cond attrs).
    /// Shared with the PMV store — serving copies pointers, not tuples.
    pub partial_expanded: Vec<Arc<Tuple>>,
    /// Remaining results in `Ls'` layout, shared with the executor output
    /// and (for cached tuples) the PMV store.
    pub remaining_expanded: Vec<Arc<Tuple>>,
    /// Whether any probed bcp was resident (the paper's "hit").
    pub bcp_hit: bool,
    /// Number of condition parts the query decomposed into.
    pub parts: usize,
    /// Timing breakdown.
    pub timings: QueryTimings,
    /// Executor counters.
    pub exec_stats: ExecStats,
    /// Occurrences left in DS after O3 — must be 0; anything else means a
    /// stale tuple was served (surfaced for tests/diagnostics).
    pub ds_leftover: usize,
    /// `Some` when O3 did not complete (deadline, row budget, caught
    /// panic, or transient error): `partial`/`partial_expanded` hold the
    /// sound-but-possibly-incomplete cached results and `remaining` is
    /// empty. `None` means the full answer was produced.
    pub degraded: Option<Degradation>,
}

impl QueryOutcome {
    /// Full result multiset in user layout (partial then remaining).
    pub fn all_results(&self) -> Vec<Tuple> {
        let mut v = Vec::with_capacity(self.partial.len() + self.remaining.len());
        v.extend_from_slice(&self.partial);
        v.extend_from_slice(&self.remaining);
        v
    }

    /// Whether the outcome carries the complete answer (not degraded).
    pub fn is_complete(&self) -> bool {
        self.degraded.is_none()
    }
}

/// The query pipeline; owns the lock manager shared between queries (S
/// locks) and maintenance (X locks).
#[derive(Clone, Default)]
pub struct PmvPipeline {
    locks: LockManager,
}

impl PmvPipeline {
    /// Pipeline with a fresh lock manager.
    pub fn new() -> Self {
        PmvPipeline::default()
    }

    /// Pipeline sharing an existing lock manager.
    pub fn with_locks(locks: LockManager) -> Self {
        PmvPipeline { locks }
    }

    /// The shared lock manager.
    pub fn locks(&self) -> &LockManager {
        &self.locks
    }

    /// Run one query through O1/O2/O3 ([`crate::serve`]) under the S
    /// lock, against the live database.
    pub fn run(&self, db: &Database, pmv: &mut Pmv, q: &QueryInstance) -> Result<QueryOutcome> {
        // Held to the end of O3: maintenance needs the X lock, so every
        // served partial is re-derived by this query's own execution.
        let _s_lock = self.locks.lock_shared(pmv.def.name());
        let env = ServeEnv {
            def: &pmv.def,
            config: &pmv.config,
            breaker: &pmv.breaker,
            obs: &pmv.obs,
            trace_name: &pmv.trace_name,
            account: pmv.account.as_ref(),
            verified: &pmv.verified,
        };
        let direct = Direct {
            store: &mut pmv.store,
            stats: &mut pmv.stats,
        };
        serve::run_pinned(&env, direct, db, q)
    }

    /// Baseline: execute the query without any PMV involvement, returning
    /// user-layout results and the execution time.
    pub fn run_plain(
        &self,
        db: &Database,
        q: &QueryInstance,
    ) -> Result<(Vec<Tuple>, ExecStats, Duration)> {
        let t0 = Instant::now();
        let (results, stats) = execute(db, q)?;
        let template = q.template();
        let user: Vec<Tuple> = results.iter().map(|t| template.user_tuple(t)).collect();
        Ok((user, stats, t0.elapsed()))
    }
}

/// The direct [`StoreAccess`] instance: exclusive access to a
/// single-owner [`Pmv`]'s store. One shard, no lock, no published view —
/// O2 reads the live entries and write-back is always granted.
struct Direct<'a> {
    store: &'a mut PmvStore,
    stats: &'a mut PmvStats,
}

impl StoreAccess for Direct<'_> {
    fn shard_of(&self, _bcp: &BcpKey) -> usize {
        0
    }

    fn maint_epoch(&self) -> u64 {
        0
    }

    fn run_pinned_probe(
        &self,
        _si: usize,
        parts: &[&ConditionPart],
        claims: bool,
        mut each: impl FnMut(&ConditionPart, Option<&[CachedTuple]>, bool),
    ) -> bool {
        if self.store.is_quarantined() {
            return false;
        }
        for part in parts {
            let claimed = claims && self.store.entry_complete(&part.bcp);
            each(part, self.store.lookup(&part.bcp), claimed);
        }
        true
    }

    fn run_pinned_write_shard(
        &mut self,
        _si: usize,
        apply: impl FnOnce(&mut PmvStore, u64) -> Option<WriteBack>,
    ) -> Option<WriteBack> {
        apply(self.store, 0)
    }

    fn add_stats(&mut self, local: &PmvStats) {
        self.stats.merge(local);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bcp::{BcpDim, BcpKey, Discretizer};
    use crate::view::PartialViewDef;
    use pmv_cache::PolicyKind;
    use pmv_index::IndexDef;
    use pmv_query::{Condition, Interval, TemplateBuilder};
    use pmv_storage::{tuple, Column, ColumnType, Schema, Value};

    /// R(a, c, f) ⋈ S(d, e, g) on c = d, conditions on f (eq) and g (eq),
    /// the paper's Eqt with the Figure 3 data plus extras.
    fn setup() -> (Database, Pmv, PmvPipeline) {
        let mut db = Database::new();
        db.create_relation(Schema::new(
            "r",
            vec![
                Column::new("a", ColumnType::Int),
                Column::new("c", ColumnType::Int),
                Column::new("f", ColumnType::Int),
            ],
        ))
        .unwrap();
        db.create_relation(Schema::new(
            "s",
            vec![
                Column::new("d", ColumnType::Int),
                Column::new("e", ColumnType::Int),
                Column::new("g", ColumnType::Int),
            ],
        ))
        .unwrap();
        db.load(
            "r",
            vec![
                tuple![1i64, 4i64, 1i64],
                tuple![1i64, 5i64, 1i64],
                tuple![7i64, 6i64, 3i64],
                tuple![9i64, 6i64, 5i64],
            ],
        )
        .unwrap();
        db.load(
            "s",
            vec![
                tuple![4i64, 2i64, 7i64],
                tuple![5i64, 2i64, 7i64],
                tuple![6i64, 8i64, 9i64],
            ],
        )
        .unwrap();
        db.create_index(IndexDef::btree("r", vec![2])).unwrap();
        db.create_index(IndexDef::btree("r", vec![1])).unwrap();
        db.create_index(IndexDef::btree("s", vec![0])).unwrap();
        db.create_index(IndexDef::btree("s", vec![2])).unwrap();
        let t = TemplateBuilder::new("Eqt")
            .relation(db.schema("r").unwrap())
            .relation(db.schema("s").unwrap())
            .join("r", "c", "s", "d")
            .unwrap()
            .select("r", "a")
            .unwrap()
            .select("s", "e")
            .unwrap()
            .cond_eq("r", "f")
            .unwrap()
            .cond_eq("s", "g")
            .unwrap()
            .build()
            .unwrap();
        let def = PartialViewDef::all_equality("pmv_eqt", t).unwrap();
        let pmv = Pmv::new(def, PmvConfig::new(2, 8, PolicyKind::Clock));
        (db, pmv, PmvPipeline::new())
    }

    fn q_eq(pmv: &Pmv, fs: &[i64], gs: &[i64]) -> QueryInstance {
        pmv.def()
            .template()
            .bind(vec![
                Condition::Equality(fs.iter().map(|&v| Value::Int(v)).collect()),
                Condition::Equality(gs.iter().map(|&v| Value::Int(v)).collect()),
            ])
            .unwrap()
    }

    #[test]
    fn cold_query_serves_nothing_but_fills_pmv() {
        let (db, mut pmv, pipe) = setup();
        let q = q_eq(&pmv, &[1], &[7]);
        let out = pipe.run(&db, &mut pmv, &q).unwrap();
        assert!(!out.bcp_hit);
        assert!(out.partial.is_empty());
        assert_eq!(out.remaining.len(), 2);
        assert_eq!(out.ds_leftover, 0);
        // F = 2: both result tuples cached under bcp (1, 7).
        let bcp = BcpKey::new(vec![BcpDim::Eq(Value::Int(1)), BcpDim::Eq(Value::Int(7))]);
        assert_eq!(pmv.store().lookup(&bcp).unwrap().len(), 2);
        pmv.store().validate();
    }

    #[test]
    fn warm_query_serves_partial_results_first() {
        let (db, mut pmv, pipe) = setup();
        let q = q_eq(&pmv, &[1], &[7]);
        pipe.run(&db, &mut pmv, &q).unwrap();
        let out = pipe.run(&db, &mut pmv, &q).unwrap();
        assert!(out.bcp_hit);
        assert_eq!(out.partial.len(), 2);
        assert!(out.remaining.is_empty());
        assert_eq!(out.ds_leftover, 0);
        assert_eq!(pmv.stats().bcp_hit_queries, 1);
        assert_eq!(pmv.stats().queries, 2);
    }

    #[test]
    fn each_result_returned_exactly_once() {
        let (db, mut pmv, pipe) = setup();
        // Query with a hot and a cold pair, as in Section 2.3's example.
        let hot = q_eq(&pmv, &[1], &[7]);
        pipe.run(&db, &mut pmv, &hot).unwrap();
        let q = q_eq(&pmv, &[1, 3], &[7, 9]);
        let out = pipe.run(&db, &mut pmv, &q).unwrap();
        // Full result multiset: (1,2) x2 for (f=1,g=7), (7,8) for (3,9).
        let mut all = out.all_results();
        all.sort();
        assert_eq!(
            all,
            vec![tuple![1i64, 2i64], tuple![1i64, 2i64], tuple![7i64, 8i64]]
        );
        // The two (1,2) tuples came early.
        assert_eq!(out.partial.len(), 2);
        assert_eq!(out.remaining.len(), 1);
        assert_eq!(out.ds_leftover, 0);
    }

    #[test]
    fn f_caps_cached_tuples_per_bcp() {
        let (db, pmv, pipe) = setup();
        // (f=1, g=7) has 2 result tuples; with F = 1 only one is cached.
        let mut pmv1 = Pmv::new(pmv.def().clone(), PmvConfig::new(1, 8, PolicyKind::Clock));
        let q = q_eq(&pmv, &[1], &[7]);
        pipe.run(&db, &mut pmv1, &q).unwrap();
        let bcp = BcpKey::new(vec![BcpDim::Eq(Value::Int(1)), BcpDim::Eq(Value::Int(7))]);
        assert_eq!(pmv1.store().lookup(&bcp).unwrap().len(), 1);
        // Second run: one tuple early, one late, none lost.
        let out = pipe.run(&db, &mut pmv1, &q).unwrap();
        assert_eq!(out.partial.len(), 1);
        assert_eq!(out.remaining.len(), 1);
        assert_eq!(out.ds_leftover, 0);
        pmv1.store().validate();
        let _ = pmv;
    }

    #[test]
    fn pipeline_results_match_plain_execution() {
        let (db, mut pmv, pipe) = setup();
        let queries = [
            q_eq(&pmv, &[1], &[7]),
            q_eq(&pmv, &[1, 3], &[7, 9]),
            q_eq(&pmv, &[3, 5], &[9]),
            q_eq(&pmv, &[1, 3, 5], &[7, 9]),
        ];
        for _ in 0..3 {
            for q in &queries {
                let (mut plain, _, _) = pipe.run_plain(&db, q).unwrap();
                let out = pipe.run(&db, &mut pmv, q).unwrap();
                let mut got = out.all_results();
                got.sort();
                plain.sort();
                assert_eq!(got, plain);
                assert_eq!(out.ds_leftover, 0);
                pmv.store().validate();
            }
        }
    }

    #[test]
    fn interval_template_pipeline() {
        let (db, _, pipe) = setup();
        let t = TemplateBuilder::new("iv")
            .relation(db.schema("r").unwrap())
            .relation(db.schema("s").unwrap())
            .join("r", "c", "s", "d")
            .unwrap()
            .select("r", "a")
            .unwrap()
            .select("s", "e")
            .unwrap()
            .cond_interval("r", "f")
            .unwrap()
            .cond_eq("s", "g")
            .unwrap()
            .build()
            .unwrap();
        let def = PartialViewDef::new(
            "pmv_iv",
            t,
            vec![Some(Discretizer::int_grid(0, 2, 4)), None], // dividers 0,2,4,6
        )
        .unwrap();
        let mut pmv = Pmv::new(def, PmvConfig::default());
        let q = pmv
            .def()
            .template()
            .bind(vec![
                Condition::Intervals(vec![Interval::half_open(0i64, 4i64)]),
                Condition::Equality(vec![Value::Int(7)]),
            ])
            .unwrap();
        let out1 = pipe.run(&db, &mut pmv, &q).unwrap();
        assert_eq!(out1.remaining.len(), 2); // both f=1 rows
        let out2 = pipe.run(&db, &mut pmv, &q).unwrap();
        assert_eq!(out2.partial.len(), 2);
        assert!(out2.remaining.is_empty());
        assert_eq!(out2.ds_leftover, 0);

        // A narrower query contained in the same bcp still gets served
        // (the "contained in a basic condition part" case).
        let narrow = pmv
            .def()
            .template()
            .bind(vec![
                Condition::Intervals(vec![Interval::half_open(0i64, 2i64)]),
                Condition::Equality(vec![Value::Int(7)]),
            ])
            .unwrap();
        let out3 = pipe.run(&db, &mut pmv, &narrow).unwrap();
        assert_eq!(out3.partial.len(), 2); // f=1 falls in [0,2)
        assert_eq!(out3.ds_leftover, 0);
    }

    #[test]
    fn bcp_query_selects_exactly_the_cell() {
        let (db, mut pmv, pipe) = setup();
        let q = q_eq(&pmv, &[1], &[7]);
        pipe.run(&db, &mut pmv, &q).unwrap();
        let bcp = BcpKey::new(vec![BcpDim::Eq(Value::Int(1)), BcpDim::Eq(Value::Int(7))]);
        let cell_q = pmv.bcp_query(&bcp).unwrap();
        let (rows, _) = pmv_query::execute(&db, &cell_q).unwrap();
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn revalidate_removes_stale_tuples() {
        let (mut db, mut pmv, pipe) = setup();
        let q = q_eq(&pmv, &[1], &[7]);
        pipe.run(&db, &mut pmv, &q).unwrap();
        // Bypass maintenance: delete a base row directly, leaving the PMV
        // stale, then let revalidate repair it.
        let handle = db.relation("r").unwrap();
        let row = handle
            .read()
            .iter()
            .find(|(_, t)| t.get(1) == &Value::Int(4))
            .map(|(r, _)| r)
            .unwrap();
        db.delete("r", row).unwrap();
        let removed = pmv.revalidate(&db).unwrap();
        assert_eq!(removed, 1);
        let out = pipe.run(&db, &mut pmv, &q).unwrap();
        assert_eq!(out.ds_leftover, 0);
        assert_eq!(out.all_results().len(), 1);
    }

    #[test]
    fn two_q_policy_requires_second_query_to_cache() {
        let (db, pmv, pipe) = setup();
        let mut pmv2 = Pmv::new(pmv.def().clone(), PmvConfig::new(2, 8, PolicyKind::TwoQ));
        let q = q_eq(&pmv, &[1], &[7]);
        pipe.run(&db, &mut pmv2, &q).unwrap();
        // First query: bcp went to A1, nothing cached.
        assert_eq!(pmv2.store().entry_count(), 0);
        assert!(pmv2.stats().probations > 0);
        pipe.run(&db, &mut pmv2, &q).unwrap();
        // Second query: promoted to Am and filled.
        assert_eq!(pmv2.store().entry_count(), 1);
        let out = pipe.run(&db, &mut pmv2, &q).unwrap();
        assert_eq!(out.partial.len(), 2);
        let _ = pmv;
    }

    #[test]
    fn eviction_under_small_l() {
        let (db, pmv, pipe) = setup();
        let mut small = Pmv::new(pmv.def().clone(), PmvConfig::new(2, 1, PolicyKind::Clock));
        pipe.run(&db, &mut small, &q_eq(&pmv, &[1], &[7])).unwrap();
        pipe.run(&db, &mut small, &q_eq(&pmv, &[3], &[9])).unwrap();
        assert_eq!(small.store().entry_count(), 1);
        assert!(small.store().evictions() > 0);
        small.store().validate();
        let _ = pmv;
    }

    #[test]
    fn stats_accumulate() {
        let (db, mut pmv, pipe) = setup();
        let q = q_eq(&pmv, &[1], &[7]);
        pipe.run(&db, &mut pmv, &q).unwrap();
        pipe.run(&db, &mut pmv, &q).unwrap();
        let s = pmv.stats();
        assert_eq!(s.queries, 2);
        assert_eq!(s.bcp_hit_queries, 1);
        assert_eq!(s.partial_tuples_served, 2);
        assert_eq!(s.tuples_admitted, 2);
        assert!((s.hit_probability() - 0.5).abs() < 1e-12);
        pmv.reset_stats();
        assert_eq!(pmv.stats().queries, 0);
    }
}
