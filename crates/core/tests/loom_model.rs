#![cfg(loom)]
//! Race-detector models of the PMV's concurrency protocols: store
//! quarantine/drain, circuit-breaker transitions, the left-right
//! handoff, maintain-before-publish, attach and upquery refills, each
//! over a view's one store. Compiled only under `RUSTFLAGS="--cfg loom"` —
//! CI's loom job; `cargo test` skips this file entirely.
//!
//! The workspace's offline `loom` shim is a randomized-interleaving
//! stress scheduler rather than a DPOR model checker (see
//! `shims/loom`): `loom::model` replays each body under many perturbed
//! schedules. The models are written against the loom API surface, so a
//! CI environment with registry access can substitute the real crate
//! unchanged.

use std::collections::HashMap;

use loom::sync::Arc;
use loom::thread;

use pmv_cache::PolicyKind;
use pmv_core::{CircuitBreaker, EpochDb, PartialViewDef, PmvConfig, SharedPmv, ViewHealth};
use pmv_faultinject::{FaultKind, FaultPlan, Site, PANIC_PREFIX};
use pmv_index::IndexDef;
use pmv_query::{Condition, Database, TemplateBuilder, Transaction};
use pmv_storage::{tuple, Column, ColumnType, Schema, Value};
use pmv_sync::LeftRight;

fn quiet_injected_panics() {
    let default = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = info
            .payload()
            .downcast_ref::<String>()
            .map(|s| s.starts_with(PANIC_PREFIX))
            .or_else(|| {
                info.payload()
                    .downcast_ref::<&str>()
                    .map(|s| s.starts_with(PANIC_PREFIX))
            })
            .unwrap_or(false);
        if !injected {
            default(info);
        }
    }));
}

fn setup() -> (Database, SharedPmv) {
    let mut db = Database::new();
    db.create_relation(Schema::new(
        "r",
        vec![
            Column::new("a", ColumnType::Int),
            Column::new("f", ColumnType::Int),
        ],
    ))
    .unwrap();
    for i in 0..60i64 {
        db.insert("r", tuple![i, i % 6]).unwrap();
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
    let def = PartialViewDef::all_equality("model", t).unwrap();
    let shared = SharedPmv::new(def, PmvConfig::new(3, 8, PolicyKind::Clock));
    (db, shared)
}

/// Quarantine/drain: injected probe/fill panics quarantine the store
/// while reader threads keep serving; a fault-free revalidate then
/// drains and lifts the quarantine, restoring full health. The store
/// invariants must hold at every schedule the scheduler explores.
#[test]
fn quarantine_drain_protocol() {
    quiet_injected_panics();
    loom::model(|| {
        let (db, shared) = setup();
        let plan = std::sync::Arc::new(
            FaultPlan::new(7)
                .with_rule(Site::ShardProbe, FaultKind::Panic, 0.20)
                .with_rule(Site::ShardFill, FaultKind::Panic, 0.20),
        );
        let _guard = pmv_faultinject::install(std::sync::Arc::clone(&plan));
        let edb = Arc::new(EpochDb::new(db));
        let t = shared.def().template().clone();

        let handles: Vec<_> = (0..3i64)
            .map(|tid| {
                let shared = shared.clone();
                let edb = Arc::clone(&edb);
                let t = t.clone();
                thread::spawn(move || {
                    for i in 0..6i64 {
                        thread::yield_now();
                        let q = t
                            .bind(vec![Condition::Equality(vec![Value::Int((tid + i) % 6)])])
                            .unwrap();
                        // Panics must never escape the serving path.
                        edb.query(&shared, &q).unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("no panic may escape the serving path");
        }
        shared.debug_validate();

        // Fault-free drain: lifts every quarantine, removes nothing
        // stale (readers never wrote under faults — fills that panicked
        // never landed).
        let removed = pmv_faultinject::suppress(|| shared.revalidate(&edb.read())).unwrap();
        assert_eq!(removed, 0, "drain found stale tuples");
        assert!(!shared.is_quarantined());
        shared.debug_validate();
    });
}

/// Breaker transitions: concurrent ok/error reporters may interleave
/// arbitrarily, but the state must always be one of the three legal
/// states, `allow_serve` must agree with it, and a reset must restore
/// Healthy once reporters are done.
#[test]
fn breaker_transitions_are_consistent() {
    loom::model(|| {
        let breaker = Arc::new(CircuitBreaker::default());

        let handles: Vec<_> = (0..3u64)
            .map(|tid| {
                let b = Arc::clone(&breaker);
                thread::spawn(move || {
                    for i in 0..8u64 {
                        thread::yield_now();
                        if (tid + i) % 3 == 0 {
                            b.record_ok();
                        } else {
                            b.record_error();
                        }
                        // Observed state is always legal and coherent
                        // with the serve gate.
                        let st = b.state();
                        assert!(matches!(
                            st,
                            ViewHealth::Healthy | ViewHealth::Degraded | ViewHealth::Quarantined
                        ));
                        if st == ViewHealth::Quarantined {
                            assert!(!b.allow_serve());
                        }
                        let rate = b.error_rate();
                        assert!((0.0..=1.0).contains(&rate), "rate {rate} out of range");
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }

        // 2/3 of 24 events are errors — far beyond the 0.5 trip line.
        assert_eq!(breaker.state(), ViewHealth::Quarantined);
        assert!(breaker.trip_count() >= 1);
        breaker.reset();
        assert_eq!(breaker.state(), ViewHealth::Healthy);
        assert!(breaker.allow_serve());
    });
}

/// The epoch pin/swap handoff on the raw primitive: concurrent readers
/// `load` a [`LeftRight`] cell while a writer publishes increasing
/// values. Every load must return a value that was actually published
/// (no torn read — the two-slot protocol never hands out a slot being
/// overwritten), no reader may travel backwards in time, and the final
/// load observes the last publish.
#[test]
fn left_right_pin_swap_handoff() {
    loom::model(|| {
        let cell = std::sync::Arc::new(LeftRight::new(std::sync::Arc::new(0u64)));
        let readers: Vec<_> = (0..3)
            .map(|_| {
                let cell = std::sync::Arc::clone(&cell);
                thread::spawn(move || {
                    let mut last = 0u64;
                    for _ in 0..8 {
                        thread::yield_now();
                        let v = *cell.load();
                        assert!(v <= 6, "torn read: {v} was never published");
                        assert!(v >= last, "reader went backwards: {last} -> {v}");
                        last = v;
                    }
                })
            })
            .collect();
        for i in 1..=6u64 {
            thread::yield_now();
            cell.publish(std::sync::Arc::new(i));
        }
        for r in readers {
            r.join().unwrap();
        }
        assert_eq!(*cell.load(), 6);
        assert_eq!(cell.versions(), 6);
    });
}

/// The epoch serving path end to end: pinned queries race commits that
/// insert and delete rows. The maintain-before-publish commit protocol
/// plus the fill/serve epoch gates must preserve the end-of-O3
/// `ds_leftover == 0` invariant (every served partial re-derived by the
/// pinned execution) under every explored schedule, and a final
/// revalidation must find nothing stale in the store.
#[test]
fn epoch_pin_maintain_before_publish() {
    loom::model(|| {
        let (db, shared) = setup();
        let edb = std::sync::Arc::new(EpochDb::new(db));
        let t = shared.def().template().clone();

        let mut handles = Vec::new();
        for tid in 0..2i64 {
            let shared = shared.clone();
            let edb = std::sync::Arc::clone(&edb);
            let t = t.clone();
            handles.push(thread::spawn(move || {
                for i in 0..5i64 {
                    thread::yield_now();
                    let q = t
                        .bind(vec![Condition::Equality(vec![Value::Int(
                            (tid * 2 + i) % 6,
                        )])])
                        .unwrap();
                    let out = edb.query(&shared, &q).unwrap();
                    assert_eq!(out.ds_leftover, 0, "stale partial under epoch serving");
                }
            }));
        }
        {
            let shared = shared.clone();
            let edb = std::sync::Arc::clone(&edb);
            handles.push(thread::spawn(move || {
                for i in 0..4i64 {
                    thread::yield_now();
                    edb.commit(&[&shared], move |db| {
                        if i % 2 == 0 {
                            let mut txn = Transaction::begin(db);
                            txn.insert("r", tuple![100 + i, i % 6]).unwrap();
                            return Ok(((), txn.commit()));
                        }
                        let row = db
                            .relation("r")
                            .unwrap()
                            .iter()
                            .find(|(_, tu)| tu.get(1) == &Value::Int(3))
                            .map(|(r, _)| r);
                        let mut txn = Transaction::begin(db);
                        if let Some(row) = row {
                            txn.delete("r", row).unwrap();
                        }
                        Ok(((), txn.commit()))
                    })
                    .unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }

        let guard = edb.read();
        let removed = shared.revalidate(&guard).unwrap();
        assert_eq!(removed, 0, "epoch serving left stale tuples in the store");
        shared.debug_validate();
    });
}

/// A view joins its host on first use while another thread commits a
/// delete of a row that use caches, through a commit that names no view.
/// The reader either serves through `query` (attach, then pin) or
/// through `query_at` on a pin taken before the attach. Whichever side
/// wins: a commit that ran after the attach maintained the view, and a
/// commit that ran before it left the pre-attach pin unable to fill
/// (the attach stamps `maint_epoch`). After the join no deleted row is
/// served, DS ends empty and a ground-truth sweep removes nothing.
#[test]
fn attach_races_commit() {
    loom::model(|| {
        for held_pin in [false, true] {
            let (db, shared) = setup();
            let edb = std::sync::Arc::new(EpochDb::new(db));
            let t = shared.def().template().clone();
            let q = t
                .bind(vec![Condition::Equality(vec![Value::Int(3)])])
                .unwrap();
            // Row a = 3 is the first f = 3 result, so F = 3 caches it.
            let victim = {
                let guard = edb.read();
                let rel = guard.relation("r").unwrap();
                let row = rel.iter().find(|(_, tu)| tu.get(0) == &Value::Int(3));
                row.map(|(r, _)| r).unwrap()
            };

            let reader = {
                let (edb, shared, q) = (std::sync::Arc::clone(&edb), shared.clone(), q.clone());
                let pin = held_pin.then(|| edb.pin());
                thread::spawn(move || {
                    thread::yield_now();
                    let out = match &pin {
                        Some(snap) => edb.query_at(snap, &shared, &q),
                        None => edb.query(&shared, &q),
                    };
                    assert_eq!(out.unwrap().ds_leftover, 0);
                })
            };
            let writer = {
                let edb = std::sync::Arc::clone(&edb);
                thread::spawn(move || {
                    thread::yield_now();
                    edb.commit(&[], move |db| {
                        let mut txn = Transaction::begin(db);
                        txn.delete("r", victim)?;
                        Ok(((), txn.commit()))
                    })
                    .unwrap();
                })
            };
            reader.join().unwrap();
            writer.join().unwrap();

            if held_pin && shared.stats().maint_deletes_joined == 0 {
                // The commit ran before the view joined, so the pin
                // predates the attach: the fence rejected its fill.
                assert_eq!(shared.tuple_count(), 0, "a pre-attach pin filled");
            }
            let out = edb.query(&shared, &q).unwrap();
            assert!(
                !out.all_results().contains(&tuple![3i64]),
                "deleted row served (held pin: {held_pin})"
            );
            assert_eq!(out.ds_leftover, 0);
            let guard = edb.read();
            assert_eq!(shared.revalidate(&guard).unwrap(), 0);
            shared.debug_validate();
        }
    });
}

/// Targeted upqueries racing maintenance eviction on a drained bcp.
/// Readers issue two-part queries whose complete part short-circuits
/// and whose drained part triggers a bounded keyed
/// upquery refill, while a committer keeps deleting rows out of the
/// queried bcps — each delete drains the supported view tuples and
/// bumps `maint_epoch`, so any refill derived at an older pin must be
/// discarded by the fill gate. Under every explored schedule: no query
/// serves a stale tuple (`ds_leftover == 0`), nothing stale survives in
/// the store, and the store invariants hold.
#[test]
fn upquery_vs_eviction_on_drained_shard() {
    loom::model(|| {
        let mut db = Database::new();
        db.create_relation(Schema::new(
            "r",
            vec![
                Column::new("a", ColumnType::Int),
                Column::new("f", ColumnType::Int),
            ],
        ))
        .unwrap();
        for i in 0..60i64 {
            db.insert("r", tuple![i, i % 6]).unwrap();
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
        let def = PartialViewDef::all_equality("upq_model", t.clone()).unwrap();
        // F = 16 > 10 rows per bcp, so a first full execution caches the
        // whole slice and marks the bcp complete — the precondition for
        // the targeted-upquery path on later mixed probes.
        let shared = SharedPmv::new(def, PmvConfig::new(16, 8, PolicyKind::Clock));
        let edb = std::sync::Arc::new(EpochDb::new(db));

        // Warm every bcp to completeness, then drain bcp f=3 with a
        // committed delete: the next [3, x] probe finds x complete and 3
        // open, which is exactly the upquery shape.
        for f in 0..6i64 {
            let q = t
                .bind(vec![Condition::Equality(vec![Value::Int(f)])])
                .unwrap();
            edb.query(&shared, &q).unwrap();
        }
        edb.commit(&[&shared], |db| {
            let row = db
                .relation("r")
                .unwrap()
                .iter()
                .find(|(_, tu)| tu.get(1) == &Value::Int(3))
                .map(|(r, _)| r);
            let mut txn = Transaction::begin(db);
            if let Some(row) = row {
                txn.delete("r", row).unwrap();
            }
            Ok(((), txn.commit()))
        })
        .unwrap();

        let mut handles = Vec::new();
        for tid in 0..2i64 {
            let shared = shared.clone();
            let edb = std::sync::Arc::clone(&edb);
            let t = t.clone();
            handles.push(thread::spawn(move || {
                for i in 0..4i64 {
                    thread::yield_now();
                    // Two parts: the drained bcp (f=3) plus a distinct
                    // second value, some warmed-complete and one (f=4)
                    // being drained by the committer.
                    let second = [0i64, 1, 4, 5][((tid * 2 + i) % 4) as usize];
                    let q = t
                        .bind(vec![Condition::Equality(vec![
                            Value::Int(3),
                            Value::Int(second),
                        ])])
                        .unwrap();
                    let out = edb.query(&shared, &q).unwrap();
                    assert_eq!(out.ds_leftover, 0, "upquery served a stale tuple");
                }
            }));
        }
        {
            let shared = shared.clone();
            let edb = std::sync::Arc::clone(&edb);
            handles.push(thread::spawn(move || {
                for i in 0..3i64 {
                    thread::yield_now();
                    edb.commit(&[&shared], move |db| {
                        // Keep draining the bcps the readers refill.
                        let f = if i % 2 == 0 { 3 } else { 4 };
                        let row = db
                            .relation("r")
                            .unwrap()
                            .iter()
                            .find(|(_, tu)| tu.get(1) == &Value::Int(f))
                            .map(|(r, _)| r);
                        let mut txn = Transaction::begin(db);
                        if let Some(row) = row {
                            txn.delete("r", row).unwrap();
                        }
                        Ok(((), txn.commit()))
                    })
                    .unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }

        // The epoch fill gate must have kept every refill coherent: a
        // ground-truth sweep finds nothing stale in the store.
        let guard = edb.read();
        let removed = shared.revalidate(&guard).unwrap();
        assert_eq!(removed, 0, "upquery refill resurrected an evicted tuple");
        shared.debug_validate();
    });
}

/// The two-phase revalidate drain modelled directly: phase 1 snapshots
/// keys under a read guard and computes ground truth with no lock held;
/// phase 2 removes stale entries under the write guard. A concurrent
/// filler inserting *correct* entries between the phases must never
/// lose data, and every stale entry present before the drain must be
/// gone after it — the removal-only soundness argument from DESIGN.md.
#[test]
fn two_phase_drain_is_removal_only_sound() {
    loom::model(|| {
        let truth: HashMap<i64, i64> = (0..8).map(|k| (k, k * 10)).collect();
        let store = Arc::new(loom::sync::RwLock::new(HashMap::<i64, i64>::new()));
        {
            let mut s = store.write().unwrap();
            // Pre-drain state: some correct entries, some stale.
            s.insert(0, 0);
            s.insert(1, 999); // stale value
            s.insert(100, 1); // stale key
        }

        let filler = {
            let store = Arc::clone(&store);
            let truth = truth.clone();
            thread::spawn(move || {
                for k in 2..6i64 {
                    thread::yield_now();
                    store.write().unwrap().insert(k, truth[&k]);
                }
            })
        };

        let drainer = {
            let store = Arc::clone(&store);
            let truth = truth.clone();
            thread::spawn(move || {
                // Phase 1: snapshot keys under the read guard only.
                let keys: Vec<i64> = store.read().unwrap().keys().copied().collect();
                thread::yield_now(); // executor work happens guard-free here
                                     // Phase 2: remove stale entries under the write guard.
                let mut s = store.write().unwrap();
                for k in keys {
                    let stale = match (s.get(&k), truth.get(&k)) {
                        (Some(v), Some(t)) => v != t,
                        (Some(_), None) => true,
                        _ => false,
                    };
                    if stale {
                        s.remove(&k);
                    }
                }
            })
        };

        filler.join().unwrap();
        drainer.join().unwrap();

        let s = store.read().unwrap();
        // Removal-only soundness: nothing stale survives a drain that
        // snapshotted it, and no correct fill was lost.
        assert_ne!(s.get(&1), Some(&999), "stale value survived the drain");
        assert_eq!(s.get(&100), None, "stale key survived the drain");
        for k in 2..6i64 {
            assert_eq!(s.get(&k), Some(&truth[&k]), "correct fill {k} lost");
        }
    });
}
