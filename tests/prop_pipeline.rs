//! The big correctness property of the whole system: for arbitrary data,
//! arbitrary queries, arbitrary interleaved maintenance, the PMV pipeline
//! returns exactly the plain executor's result multiset — each tuple
//! exactly once — and never serves a stale tuple (DS ends empty).

mod common;

use common::{eqt_fixture, eqt_query, oracle};
use pmv::cache::PolicyKind;
use pmv::prelude::*;
use pmv::query::Transaction;
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
    prop_oneof![
        Just(PolicyKind::Clock),
        Just(PolicyKind::TwoQ),
        Just(PolicyKind::Lru),
        Just(PolicyKind::LruK),
    ]
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
        let mut db = fx.db;
        let template = fx.template;
        let def = PartialViewDef::all_equality("prop_pmv", template.clone()).unwrap();
        let pmv = SharedPmv::with_shards(def, PmvConfig::new(f_cap, l, policy), 1);

        for step in steps {
            match step {
                Step::Query { fs, gs } => {
                    let q = eqt_query(&template, &fs, &gs);
                    let expect = oracle(&db, &q);
                    let out = pmv.run(&db, &q).unwrap();
                    let mut got = out.all_results();
                    got.sort();
                    prop_assert_eq!(got, expect, "pipeline diverged from oracle");
                    prop_assert_eq!(out.ds_leftover, 0, "stale tuple served");
                    pmv.debug_validate();
                }
                Step::Insert { a, c, f } => {
                    let mut txn = Transaction::begin(&mut db);
                    txn.insert("r", pmv::storage::Tuple::new(vec![
                        Value::Int(a), Value::Int(c), Value::Int(f),
                    ])).unwrap();
                    for b in txn.commit() {
                        pmv.maintain(&db, &b).unwrap();
                    }
                }
                Step::DeleteNth(nth) => {
                    let victim = nth_live_row(&db, nth);
                    if let Some(row) = victim {
                        let mut txn = Transaction::begin(&mut db);
                        txn.delete("r", row).unwrap();
                        for b in txn.commit() {
                            pmv.maintain(&db, &b).unwrap();
                        }
                    }
                }
                Step::UpdateNth { nth, new_f } => {
                    let victim = nth_live_row(&db, nth);
                    if let Some(row) = victim {
                        let old = db.get("r", row).unwrap();
                        let mut vals: Vec<Value> = old.values().to_vec();
                        vals[2] = Value::Int(new_f);
                        let mut txn = Transaction::begin(&mut db);
                        txn.update("r", row, pmv::storage::Tuple::new(vals)).unwrap();
                        for b in txn.commit() {
                            pmv.maintain(&db, &b).unwrap();
                        }
                    }
                }
            }
        }
    }

    /// Cached tuples are always genuine current results of their bcp's
    /// query (no false positives survive maintenance).
    #[test]
    fn cached_tuples_are_always_true_results(
        steps in proptest::collection::vec(step_strategy(), 1..30),
    ) {
        let fx = eqt_fixture(40);
        let mut db = fx.db;
        let template = fx.template;
        let def = PartialViewDef::all_equality("prop_pmv2", template.clone()).unwrap();
        let pmv = SharedPmv::with_shards(def, PmvConfig::new(3, 16, PolicyKind::Clock), 1);

        for step in steps {
            match step {
                Step::Query { fs, gs } => {
                    let q = eqt_query(&template, &fs, &gs);
                    pmv.run(&db, &q).unwrap();
                }
                Step::Insert { a, c, f } => {
                    let mut txn = Transaction::begin(&mut db);
                    txn.insert("r", pmv::storage::Tuple::new(vec![
                        Value::Int(a), Value::Int(c), Value::Int(f),
                    ])).unwrap();
                    for b in txn.commit() {
                        pmv.maintain(&db, &b).unwrap();
                    }
                }
                Step::DeleteNth(nth) => {
                    if let Some(row) = nth_live_row(&db, nth) {
                        let mut txn = Transaction::begin(&mut db);
                        txn.delete("r", row).unwrap();
                        for b in txn.commit() {
                            pmv.maintain(&db, &b).unwrap();
                        }
                    }
                }
                Step::UpdateNth { nth, new_f } => {
                    if let Some(row) = nth_live_row(&db, nth) {
                        let old = db.get("r", row).unwrap();
                        let mut vals: Vec<Value> = old.values().to_vec();
                        vals[2] = Value::Int(new_f);
                        let mut txn = Transaction::begin(&mut db);
                        txn.update("r", row, pmv::storage::Tuple::new(vals)).unwrap();
                        for b in txn.commit() {
                            pmv.maintain(&db, &b).unwrap();
                        }
                    }
                }
            }
            // Revalidation must find nothing to remove: all cached tuples
            // are current truth.
            let removed = pmv.revalidate(&db).unwrap();
            prop_assert_eq!(removed, 0, "maintenance left a stale tuple behind");
        }
    }
}

/// The `nth` live row of relation r (mod live count), or None when empty.
fn nth_live_row(db: &Database, nth: usize) -> Option<pmv::storage::RowId> {
    let handle = db.relation("r").unwrap();
    let guard = handle.read();
    let live: Vec<_> = guard.iter().map(|(r, _)| r).collect();
    if live.is_empty() {
        None
    } else {
        Some(live[nth % live.len()])
    }
}
