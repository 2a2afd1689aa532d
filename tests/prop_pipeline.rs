//! The big correctness property of the whole system: for arbitrary data,
//! arbitrary queries, arbitrary interleaved maintenance, the PMV pipeline
//! returns exactly the plain executor's result multiset — each tuple
//! exactly once — and never serves a stale tuple (DS ends empty).

mod common;

use common::{commit, eqt_fixture, eqt_query, live_rows, oracle};
use pmv::cache::PolicyKind;
use pmv::prelude::*;
use proptest::prelude::*;

#[derive(Clone, Debug)]
enum Step {
    Query { fs: Vec<i64>, gs: Vec<i64> },
    Insert { a: i64, c: i64, f: i64 },
    DeleteNth(usize),
    UpdateNth { nth: usize, new_f: i64 },
}

fn values(range: std::ops::Range<i64>) -> impl Strategy<Value = Vec<i64>> {
    proptest::collection::btree_set(range, 1..3).prop_map(|s| s.into_iter().collect())
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        4 => (values(0..7), values(0..5)).prop_map(|(fs, gs)| Step::Query { fs, gs }),
        1 => (0i64..1000, 0i64..30, 0i64..7).prop_map(|(a, c, f)| Step::Insert { a, c, f }),
        1 => (0usize..1000).prop_map(Step::DeleteNth),
        1 => (0usize..1000, 0i64..7).prop_map(|(nth, new_f)| Step::UpdateNth { nth, new_f }),
    ]
}

fn policies() -> impl Strategy<Value = PolicyKind> {
    prop_oneof![Just(PolicyKind::Clock), Just(PolicyKind::TwoQ)]
}

/// Apply one mutating step through `edb`, maintaining `pmv` (queries are
/// the caller's).
fn apply(edb: &EpochDb, pmv: &SharedPmv, step: Step) {
    let row = |nth: usize| {
        let live = live_rows(&edb.read(), "r");
        (!live.is_empty()).then(|| live[nth % live.len()])
    };
    match step {
        Step::Query { .. } => {}
        Step::Insert { a, c, f } => {
            commit(edb, &[pmv], move |txn| {
                txn.insert("r", tuple![a, c, f]).map(drop)
            });
        }
        Step::DeleteNth(nth) => {
            if let Some(row) = row(nth) {
                commit(edb, &[pmv], move |txn| txn.delete("r", row).map(drop));
            }
        }
        Step::UpdateNth { nth, new_f } => {
            if let Some(row) = row(nth) {
                commit(edb, &[pmv], move |txn| {
                    let mut vals: Vec<Value> = txn.get("r", row)?.values().to_vec();
                    vals[2] = Value::Int(new_f);
                    txn.update("r", row, Tuple::new(vals)).map(drop)
                });
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(60))]

    #[test]
    fn pipeline_exactly_once_under_maintenance(
        steps in proptest::collection::vec(step_strategy(), 1..40),
        f_cap in 1usize..4,
        l in 2usize..12,
        policy in policies(),
    ) {
        let fx = eqt_fixture(60);
        let (edb, template) = (EpochDb::new(fx.db), fx.template);
        let def = PartialViewDef::all_equality("prop_pmv", template.clone()).unwrap();
        let pmv = SharedPmv::with_shards(def, PmvConfig::new(f_cap, l, policy), 1);

        for step in steps {
            if let Step::Query { fs, gs } = &step {
                let q = eqt_query(&template, fs, gs);
                let expect = oracle(&edb.read(), &q);
                let out = edb.query(&pmv, &q).unwrap();
                let mut got = out.all_results();
                got.sort();
                prop_assert_eq!(got, expect, "pipeline diverged from oracle");
                prop_assert_eq!(out.ds_leftover, 0, "stale tuple served");
                pmv.debug_validate();
            }
            apply(&edb, &pmv, step);
        }
    }

    /// Cached tuples are always genuine current results of their bcp's
    /// query (no false positives survive maintenance).
    #[test]
    fn cached_tuples_are_always_true_results(
        steps in proptest::collection::vec(step_strategy(), 1..30),
    ) {
        let fx = eqt_fixture(40);
        let (edb, template) = (EpochDb::new(fx.db), fx.template);
        let def = PartialViewDef::all_equality("prop_pmv2", template.clone()).unwrap();
        let pmv = SharedPmv::with_shards(def, PmvConfig::new(3, 16, PolicyKind::Clock), 1);

        for step in steps {
            if let Step::Query { fs, gs } = &step {
                edb.query(&pmv, &eqt_query(&template, fs, gs)).unwrap();
            }
            apply(&edb, &pmv, step);
            // Revalidation must find nothing to remove: all cached tuples
            // are current truth.
            let removed = pmv.revalidate(&edb.read()).unwrap();
            prop_assert_eq!(removed, 0, "maintenance left a stale tuple behind");
        }
    }
}
