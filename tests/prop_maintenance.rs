//! Equivalence of the maintenance strategies (ISSUE 10, DESIGN.md §19):
//! for arbitrary interleavings of inserts, deletes, updates, and queries
//! — including transactions that delete *matching* tuples from both base
//! relations at once — the delta-key-index paths ([`MaintStrategy::Indexed`]
//! and [`MaintStrategy::HeavyLight`]) leave the PMV in exactly the same
//! state as the full `ΔR ⋈ R` join oracle ([`MaintStrategy::DeltaJoin`]),
//! and all three keep serving the plain executor's results.

mod common;

use common::{eqt_fixture, eqt_query, oracle};
use pmv::cache::PolicyKind;
use pmv::prelude::*;
use pmv::query::Transaction;
use pmv::storage::RowId;
use proptest::prelude::*;

#[derive(Clone, Debug)]
enum Step {
    Query {
        fs: Vec<i64>,
        gs: Vec<i64>,
    },
    InsertR {
        a: i64,
        c: i64,
        f: i64,
    },
    DeleteNthR(usize),
    DeleteNthS(usize),
    UpdateNthR {
        nth: usize,
        new_f: i64,
    },
    /// Delete an `r` row AND a joining `s` row in ONE transaction: the
    /// two-relation case whose joint derivations the per-relation ΔR
    /// joins cannot see (maintenance.rs cross-delta union pass).
    DeleteMatchingPair(usize),
}

fn values(range: std::ops::Range<i64>) -> impl Strategy<Value = Vec<i64>> {
    proptest::collection::btree_set(range, 1..3).prop_map(|s| s.into_iter().collect())
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        3 => (values(0..7), values(0..5)).prop_map(|(fs, gs)| Step::Query { fs, gs }),
        1 => (0i64..1000, 0i64..30, 0i64..7).prop_map(|(a, c, f)| Step::InsertR { a, c, f }),
        2 => (0usize..1000).prop_map(Step::DeleteNthR),
        1 => (0usize..1000).prop_map(Step::DeleteNthS),
        1 => (0usize..1000, 0i64..7).prop_map(|(nth, new_f)| Step::UpdateNthR { nth, new_f }),
        2 => (0usize..1000).prop_map(Step::DeleteMatchingPair),
    ]
}

fn nth_live_row(db: &Database, relation: &str, nth: usize) -> Option<RowId> {
    let handle = db.relation(relation).unwrap();
    let guard = handle.read();
    let live: Vec<_> = guard.iter().map(|(r, _)| r).collect();
    if live.is_empty() {
        None
    } else {
        Some(live[nth % live.len()])
    }
}

/// Find a joining (r, s) row pair: an `r` row and an `s` row with
/// `r.c = s.d`, scanning from the `nth` live `r` row.
fn joining_pair(db: &Database, nth: usize) -> Option<(RowId, RowId)> {
    let r_handle = db.relation("r").unwrap();
    let s_handle = db.relation("s").unwrap();
    let r_guard = r_handle.read();
    let s_guard = s_handle.read();
    let r_live: Vec<_> = r_guard.iter().collect();
    if r_live.is_empty() {
        return None;
    }
    for i in 0..r_live.len() {
        let (r_row, r_tuple) = &r_live[(nth + i) % r_live.len()];
        let c = r_tuple.get(1);
        if let Some((s_row, _)) = s_guard.iter().find(|(_, s)| s.get(0) == c) {
            return Some((*r_row, s_row));
        }
    }
    None
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Drive a DeltaJoin oracle, an Indexed view, and a HeavyLight view
    /// (low heavy threshold, so both routes fire) through the same step
    /// sequence; their stores must stay bit-identical and their query
    /// answers must match the plain executor at every point. One shard
    /// each: `l` entries exactly, so all three evict in lockstep.
    #[test]
    fn delta_index_equals_join_oracle(
        steps in proptest::collection::vec(step_strategy(), 1..40),
        f_cap in 1usize..4,
        l in 2usize..12,
    ) {
        let fx = eqt_fixture(40);
        let mut db = fx.db;
        let template = fx.template;

        let views: Vec<SharedPmv> = [
            MaintStrategy::DeltaJoin,
            MaintStrategy::Indexed,
            MaintStrategy::HeavyLight,
        ]
        .iter()
        .enumerate()
        .map(|(i, &strategy)| {
            let def =
                PartialViewDef::all_equality(format!("eq_pmv_{i}"), template.clone()).unwrap();
            let mut config = PmvConfig::new(f_cap, l, PolicyKind::Clock);
            config.maint_strategy = strategy;
            config.heavy_threshold = 2;
            SharedPmv::with_shards(def, config, 1)
        })
        .collect();

        let maintain_views = |db: &Database, views: &[SharedPmv], batches: &[pmv::storage::DeltaBatch]| {
            for v in views {
                v.maintain_all(db, batches).unwrap();
                v.debug_validate();
            }
        };

        for step in steps {
            match step {
                Step::Query { fs, gs } => {
                    let q = eqt_query(&template, &fs, &gs);
                    let expect = oracle(&db, &q);
                    for v in &views {
                        let out = v.run(&db, &q).unwrap();
                        let mut got = out.all_results();
                        got.sort();
                        prop_assert_eq!(&got, &expect, "pipeline diverged from executor");
                        prop_assert_eq!(out.ds_leftover, 0, "stale tuple served");
                    }
                }
                Step::InsertR { a, c, f } => {
                    let mut txn = Transaction::begin(&mut db);
                    txn.insert("r", Tuple::new(vec![
                        Value::Int(a), Value::Int(c), Value::Int(f),
                    ])).unwrap();
                    let batches = txn.commit();
                    maintain_views(&db, &views, &batches);
                }
                Step::DeleteNthR(nth) => {
                    if let Some(row) = nth_live_row(&db, "r", nth) {
                        let mut txn = Transaction::begin(&mut db);
                        txn.delete("r", row).unwrap();
                        let batches = txn.commit();
                        maintain_views(&db, &views, &batches);
                    }
                }
                Step::DeleteNthS(nth) => {
                    if let Some(row) = nth_live_row(&db, "s", nth) {
                        let mut txn = Transaction::begin(&mut db);
                        txn.delete("s", row).unwrap();
                        let batches = txn.commit();
                        maintain_views(&db, &views, &batches);
                    }
                }
                Step::UpdateNthR { nth, new_f } => {
                    if let Some(row) = nth_live_row(&db, "r", nth) {
                        let old = db.get("r", row).unwrap();
                        let mut vals: Vec<Value> = old.values().to_vec();
                        vals[2] = Value::Int(new_f);
                        let mut txn = Transaction::begin(&mut db);
                        txn.update("r", row, Tuple::new(vals)).unwrap();
                        let batches = txn.commit();
                        maintain_views(&db, &views, &batches);
                    }
                }
                Step::DeleteMatchingPair(nth) => {
                    if let Some((r_row, s_row)) = joining_pair(&db, nth) {
                        let mut txn = Transaction::begin(&mut db);
                        txn.delete("r", r_row).unwrap();
                        txn.delete("s", s_row).unwrap();
                        let batches = txn.commit();
                        maintain_views(&db, &views, &batches);
                    }
                }
            }
            // The invariant of this whole test: all three strategies
            // leave identical view state after every step.
            let reference = views[0].dump();
            prop_assert_eq!(&views[1].dump(), &reference, "Indexed diverged from DeltaJoin");
            prop_assert_eq!(&views[2].dump(), &reference, "HeavyLight diverged from DeltaJoin");
        }
    }
}
