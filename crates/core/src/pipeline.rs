//! What one run of the O1 → O2 → O3 serving path (`crate::serve`)
//! hands back — [`QueryOutcome`] and its [`QueryTimings`] — and the
//! no-PMV baseline [`run_plain`] the paper's overhead figures compare
//! against.

use std::sync::Arc;
use std::time::{Duration, Instant};

use pmv_query::{execute, Database, ExecStats, QueryInstance};
use pmv_storage::Tuple;

use crate::health::Degradation;
use crate::Result;

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
    /// When the template selects all of `Ls'` these are the
    /// `partial_expanded` rows themselves, not copies.
    pub partial: Vec<Arc<Tuple>>,
    /// Remaining results served in O3 (user layout `Ls`), shared with
    /// `remaining_expanded` in the same way.
    pub remaining: Vec<Arc<Tuple>>,
    /// Partial results in `Ls'` layout (extensions need the cond attrs),
    /// each rebuilt once from its stored form — or, when the view stores
    /// full rows, shared with the PMV store (a pointer copy).
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
        self.partial
            .iter()
            .chain(&self.remaining)
            .map(|t| Tuple::clone(t))
            .collect()
    }

    /// Whether the outcome carries the complete answer (not degraded).
    pub fn is_complete(&self) -> bool {
        self.degraded.is_none()
    }
}

/// Baseline: execute the query without any PMV involvement, returning
/// user-layout results and the execution time.
pub fn run_plain(db: &Database, q: &QueryInstance) -> Result<(Vec<Tuple>, ExecStats, Duration)> {
    let t0 = Instant::now();
    let (results, stats) = execute(db, q)?;
    let template = q.template();
    let user: Vec<Tuple> = results.iter().map(|t| template.user_tuple(t)).collect();
    Ok((user, stats, t0.elapsed()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bcp::{BcpDim, BcpKey, Discretizer};
    use crate::concurrent::tests::seed_stale;
    use crate::concurrent::SharedPmv;
    use crate::epoch::EpochDb;
    use crate::view::{PartialViewDef, PmvConfig};
    use pmv_cache::PolicyKind;
    use pmv_index::IndexDef;
    use pmv_query::{Condition, Interval, TemplateBuilder};
    use pmv_storage::{tuple, Column, ColumnType, Schema, Value};

    /// R(a, c, f) ⋈ S(d, e, g) on c = d, conditions on f (eq) and g (eq),
    /// the paper's Eqt with the Figure 3 data plus extras. The tests
    /// below count exact entries and evictions against L.
    fn setup() -> (EpochDb, SharedPmv) {
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
        let pmv = SharedPmv::new(def, PmvConfig::new(2, 8, PolicyKind::Clock));
        (EpochDb::new(db), pmv)
    }

    fn q_eq(pmv: &SharedPmv, fs: &[i64], gs: &[i64]) -> QueryInstance {
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
        let (edb, pmv) = setup();
        let q = q_eq(&pmv, &[1], &[7]);
        let out = edb.query(&pmv, &q).unwrap();
        assert!(!out.bcp_hit);
        assert!(out.partial.is_empty());
        assert_eq!(out.remaining.len(), 2);
        assert_eq!(out.ds_leftover, 0);
        // F = 2: both result tuples cached under bcp (1, 7).
        let bcp = BcpKey::new(vec![BcpDim::Eq(Value::Int(1)), BcpDim::Eq(Value::Int(7))]);
        assert_eq!(pmv.lookup(&bcp).unwrap().len(), 2);
        pmv.debug_validate();
    }

    #[test]
    fn warm_query_serves_partial_results_first() {
        let (edb, pmv) = setup();
        let q = q_eq(&pmv, &[1], &[7]);
        edb.query(&pmv, &q).unwrap();
        let out = edb.query(&pmv, &q).unwrap();
        assert!(out.bcp_hit);
        assert_eq!(out.partial.len(), 2);
        assert!(out.remaining.is_empty());
        assert_eq!(out.ds_leftover, 0);
        assert_eq!(pmv.stats().bcp_hit_queries, 1);
        assert_eq!(pmv.stats().queries, 2);
    }

    #[test]
    fn each_result_returned_exactly_once() {
        let (edb, pmv) = setup();
        // Query with a hot and a cold pair, as in Section 2.3's example.
        let hot = q_eq(&pmv, &[1], &[7]);
        edb.query(&pmv, &hot).unwrap();
        let q = q_eq(&pmv, &[1, 3], &[7, 9]);
        let out = edb.query(&pmv, &q).unwrap();
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
        let (edb, pmv) = setup();
        // (f=1, g=7) has 2 result tuples; with F = 1 only one is cached.
        let pmv1 = SharedPmv::new(pmv.def().clone(), PmvConfig::new(1, 8, PolicyKind::Clock));
        let q = q_eq(&pmv, &[1], &[7]);
        edb.query(&pmv1, &q).unwrap();
        let bcp = BcpKey::new(vec![BcpDim::Eq(Value::Int(1)), BcpDim::Eq(Value::Int(7))]);
        assert_eq!(pmv1.lookup(&bcp).unwrap().len(), 1);
        // Second run: one tuple early, one late, none lost.
        let out = edb.query(&pmv1, &q).unwrap();
        assert_eq!(out.partial.len(), 1);
        assert_eq!(out.remaining.len(), 1);
        assert_eq!(out.ds_leftover, 0);
        pmv1.debug_validate();
        let _ = pmv;
    }

    #[test]
    fn pipeline_results_match_plain_execution() {
        let (edb, pmv) = setup();
        let queries = [
            q_eq(&pmv, &[1], &[7]),
            q_eq(&pmv, &[1, 3], &[7, 9]),
            q_eq(&pmv, &[3, 5], &[9]),
            q_eq(&pmv, &[1, 3, 5], &[7, 9]),
        ];
        for _ in 0..3 {
            for q in &queries {
                let (mut plain, _, _) = run_plain(&edb.read(), q).unwrap();
                let out = edb.query(&pmv, q).unwrap();
                let mut got = out.all_results();
                got.sort();
                plain.sort();
                assert_eq!(got, plain);
                assert_eq!(out.ds_leftover, 0);
                pmv.debug_validate();
            }
        }
    }

    #[test]
    fn interval_template_pipeline() {
        let (edb, _) = setup();
        let db = edb.read();
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
        drop(db);
        let def = PartialViewDef::new(
            "pmv_iv",
            t,
            vec![Some(Discretizer::int_grid(0, 2, 4)), None], // dividers 0,2,4,6
        )
        .unwrap();
        let pmv = SharedPmv::new(def, PmvConfig::default());
        let q = pmv
            .def()
            .template()
            .bind(vec![
                Condition::Intervals(vec![Interval::half_open(0i64, 4i64)]),
                Condition::Equality(vec![Value::Int(7)]),
            ])
            .unwrap();
        let out1 = edb.query(&pmv, &q).unwrap();
        assert_eq!(out1.remaining.len(), 2); // both f=1 rows
        let out2 = edb.query(&pmv, &q).unwrap();
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
        let out3 = edb.query(&pmv, &narrow).unwrap();
        assert_eq!(out3.partial.len(), 2); // f=1 falls in [0,2)
        assert_eq!(out3.ds_leftover, 0);
    }

    #[test]
    fn bcp_query_selects_exactly_the_cell() {
        let (edb, pmv) = setup();
        let q = q_eq(&pmv, &[1], &[7]);
        edb.query(&pmv, &q).unwrap();
        let bcp = BcpKey::new(vec![BcpDim::Eq(Value::Int(1)), BcpDim::Eq(Value::Int(7))]);
        let cell_q = pmv.def().bcp_query(&bcp).unwrap();
        let (rows, _) = pmv_query::execute(&*edb.read(), &cell_q).unwrap();
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn revalidate_removes_stale_tuples() {
        let (edb, pmv) = setup();
        let q = q_eq(&pmv, &[3], &[9]);
        edb.query(&pmv, &q).unwrap();
        // (3, 9) caches its one result with room for a second under F = 2:
        // plant a tuple no base row derives there, then let revalidate
        // repair the view.
        let bcp = BcpKey::new(vec![BcpDim::Eq(Value::Int(3)), BcpDim::Eq(Value::Int(9))]);
        seed_stale(&pmv, &bcp, tuple![99i64, 98i64, 3i64, 9i64]);
        assert_eq!(pmv.tuple_count(), 2);
        let removed = pmv.revalidate(&edb.read()).unwrap();
        assert_eq!(removed, 1);
        assert_eq!(pmv.tuple_count(), 1);
        let out = edb.query(&pmv, &q).unwrap();
        assert_eq!(out.ds_leftover, 0);
        assert_eq!(out.all_results(), vec![tuple![7i64, 8i64]]);
    }

    #[test]
    fn two_q_policy_requires_second_query_to_cache() {
        let (edb, pmv) = setup();
        let pmv2 = SharedPmv::new(pmv.def().clone(), PmvConfig::new(2, 8, PolicyKind::TwoQ));
        let q = q_eq(&pmv, &[1], &[7]);
        edb.query(&pmv2, &q).unwrap();
        // First query: bcp went to A1, nothing cached.
        assert_eq!(pmv2.entry_count(), 0);
        assert!(pmv2.stats().probations > 0);
        edb.query(&pmv2, &q).unwrap();
        // Second query: promoted to Am and filled.
        assert_eq!(pmv2.entry_count(), 1);
        let out = edb.query(&pmv2, &q).unwrap();
        assert_eq!(out.partial.len(), 2);
        let _ = pmv;
    }

    #[test]
    fn eviction_under_small_l() {
        let (edb, pmv) = setup();
        let small = SharedPmv::new(pmv.def().clone(), PmvConfig::new(2, 1, PolicyKind::Clock));
        edb.query(&small, &q_eq(&pmv, &[1], &[7])).unwrap();
        // Asked twice, (3, 9) out-counts the once-asked (1, 7) it evicts.
        edb.query(&small, &q_eq(&pmv, &[3], &[9])).unwrap();
        edb.query(&small, &q_eq(&pmv, &[3], &[9])).unwrap();
        assert_eq!(small.entry_count(), 1);
        assert!(small.evictions() > 0);
        small.debug_validate();
        let _ = pmv;
    }

    #[test]
    fn stats_accumulate() {
        let (edb, pmv) = setup();
        let q = q_eq(&pmv, &[1], &[7]);
        edb.query(&pmv, &q).unwrap();
        edb.query(&pmv, &q).unwrap();
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
