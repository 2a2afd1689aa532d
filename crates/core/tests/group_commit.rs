//! Property test: N concurrent committers (DESIGN.md §15) are
//! observationally equivalent to the same commits applied serially.
//! Threads race [`EpochDb::commit`] with commuting mutations (inserts of
//! distinct rows, deletes of disjoint pre-seeded rows) while also issuing
//! pinned queries; whatever order the master lock admits them in, each
//! call returns its own closure's result, the final relation must equal
//! the serial oracle's, every post-storm pinned query must match the
//! plain executor, and the view's store may hold no stale tuple.

use pmv_cache::PolicyKind;
use pmv_core::{EpochDb, PartialViewDef, PmvConfig, SharedPmv};
use pmv_index::IndexDef;
use pmv_query::{execute, Condition, Database, TemplateBuilder, Transaction};
use pmv_storage::{tuple, Column, ColumnType, Schema, Value};
use proptest::prelude::*;

/// 40 seeded rows `(i, i % 8)`; thread `t` owns rows `[t*10, t*10+10)`
/// for deletion so concurrent deletes never collide.
fn seed_db() -> Database {
    let mut db = Database::new();
    db.create_relation(Schema::new(
        "r",
        vec![
            Column::new("a", ColumnType::Int),
            Column::new("f", ColumnType::Int),
        ],
    ))
    .unwrap();
    for i in 0..40i64 {
        db.insert("r", tuple![i, i % 8]).unwrap();
    }
    db.create_index(IndexDef::btree("r", vec![1])).unwrap();
    db
}

fn make_view(db: &Database, name: &str) -> SharedPmv {
    let t = TemplateBuilder::new("t")
        .relation(db.schema("r").unwrap())
        .select("r", "a")
        .unwrap()
        .cond_eq("r", "f")
        .unwrap()
        .build()
        .unwrap();
    let def = PartialViewDef::all_equality(name, t).unwrap();
    SharedPmv::new(def, PmvConfig::new(3, 8, PolicyKind::Clock))
}

/// Sorted debug renderings of every tuple in `r` — a multiset fingerprint
/// that is independent of row-id assignment order.
fn relation_fingerprint(db: &Database) -> Vec<String> {
    let rel = db.relation("r").unwrap();
    let mut rows: Vec<String> = rel.iter().map(|(_, tu)| format!("{tu:?}")).collect();
    rows.sort();
    rows
}

/// Per-thread op lists: `(kind, f)` where kind 0 inserts a fresh unique
/// row with selector `f` and kind 1 deletes one of the thread's own
/// seeded rows. 2–4 threads, 1–9 ops each (so delete targets `t*10 + k`
/// stay inside the thread's disjoint block of 10 seeded rows).
fn plans() -> impl Strategy<Value = Vec<Vec<(u8, i64)>>> {
    proptest::collection::vec(proptest::collection::vec((0u8..2, 0i64..8), 1..10), 2..5)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn concurrent_commits_equal_serialized(plans in plans()) {
        let db = seed_db();
        // Seeded row ids in insertion order; thread t deletes only from
        // its own block so every delete target is distinct.
        let seeded_rows: Vec<_> = {
            let rel = db.relation("r").unwrap();
            let mut rows: Vec<_> = rel.iter().map(|(row, _)| row).collect();
            rows.sort();
            rows
        };
        let view = make_view(&db, "gc");
        let edb = EpochDb::new(db);
        let t = view.def().template().clone();

        // Warm the cache so commits exercise maintenance over a populated
        // store, not just cold fills.
        for f in 0..8i64 {
            let q = t.bind(vec![Condition::Equality(vec![Value::Int(f)])]).unwrap();
            edb.query(&view, &q).unwrap();
        }

        std::thread::scope(|s| {
            for (tid, ops) in plans.iter().enumerate() {
                let edb = &edb;
                let view = &view;
                let t = &t;
                let seeded_rows = &seeded_rows;
                s.spawn(move || {
                    for (k, &(kind, f)) in ops.iter().enumerate() {
                        if kind == 0 {
                            let a = 1000 + (tid as i64) * 100 + k as i64;
                            let got = edb
                                .commit(&[view], move |db| {
                                    let mut txn = Transaction::begin(db);
                                    txn.insert("r", tuple![a, f]).unwrap();
                                    Ok((a, txn.commit()))
                                })
                                .unwrap();
                            assert_eq!(got, a, "commit returned another call's result");
                        } else {
                            let row = seeded_rows[tid * 10 + k];
                            edb.commit(&[view], move |db| {
                                let mut txn = Transaction::begin(db);
                                txn.delete("r", row).unwrap();
                                Ok(((), txn.commit()))
                            })
                            .unwrap();
                        }
                        // Reads race the commit storm; staleness is
                        // checked after the storm, liveness here.
                        let q = t.bind(vec![Condition::Equality(vec![Value::Int(f)])]).unwrap();
                        let out = edb.query(view, &q).unwrap();
                        assert_eq!(out.ds_leftover, 0, "stale partial served mid-storm");
                    }
                });
            }
        });

        // Serial oracle: same ops applied one transaction at a time in
        // thread order. All ops commute (distinct inserts, disjoint
        // deletes), so any interleaving must land on this state.
        let mut oracle = seed_db();
        let oracle_rows: Vec<_> = {
            let rel = oracle.relation("r").unwrap();
            let mut rows: Vec<_> = rel.iter().map(|(row, _)| row).collect();
            rows.sort();
            rows
        };
        for (tid, ops) in plans.iter().enumerate() {
            for (k, &(kind, f)) in ops.iter().enumerate() {
                let mut txn = Transaction::begin(&mut oracle);
                if kind == 0 {
                    txn.insert("r", tuple![1000 + (tid as i64) * 100 + k as i64, f]).unwrap();
                } else {
                    txn.delete("r", oracle_rows[tid * 10 + k]).unwrap();
                }
                txn.commit();
            }
        }

        {
            let guard = edb.read();
            prop_assert_eq!(
                relation_fingerprint(&guard),
                relation_fingerprint(&oracle),
                "concurrently committed state diverged from the serial oracle"
            );
        }

        // Post-storm: every pinned query agrees with the plain executor
        // on the final database.
        for f in 0..8i64 {
            let q = t.bind(vec![Condition::Equality(vec![Value::Int(f)])]).unwrap();
            let pinned = edb.query(&view, &q).unwrap();
            prop_assert_eq!(pinned.ds_leftover, 0);
            let guard = edb.read();
            let (oracle_out, _) = execute(&*guard, &q).unwrap();
            drop(guard);
            let mut a = pinned.all_results();
            let mut b: Vec<_> = oracle_out.iter().map(|e| t.user_tuple(e)).collect();
            a.sort();
            b.sort();
            prop_assert_eq!(&a, &b, "pinned query diverged from oracle on f={}", f);
        }

        // The store may hold no stale tuple after the storm.
        let guard = edb.read();
        prop_assert_eq!(view.revalidate(&guard).unwrap(), 0);
        view.debug_validate();
    }
}
