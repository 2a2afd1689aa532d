//! Concurrency tests for the Section 3.6 protocol. The paper has queries
//! take an S lock on the PMV for O2..O3 and maintenance an X lock; an
//! `EpochDb` gets the same guarantee from pinned snapshots plus
//! maintain-before-publish commits, so a maintainer cannot slip between a
//! query's partial results and its full execution.

mod common;

use common::{commit, eqt_fixture, eqt_query};
use pmv::prelude::*;
use pmv::storage::RowId;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// One maintainer transaction: insert a fresh `r` row keyed `a`, and
/// delete the row at slot `round % 150` if it is still live. The commit
/// maintains `pmv` before the new state publishes.
fn insert_and_delete(edb: &EpochDb, pmv: &SharedPmv, a: i64, round: i64) {
    let victim = RowId((round % 150) as u32);
    commit(edb, &[pmv], move |txn| {
        txn.insert("r", tuple![a, round % 76, round % 7])?;
        if txn.get("r", victim).is_ok() {
            txn.delete("r", victim)?;
        }
        Ok(())
    });
}

/// Full-protocol test: one thread streams queries through the pipeline
/// while another commits inserts and deletes. Each query must be
/// internally consistent (exactly-once: ds_leftover == 0) even though
/// the database changes between queries.
#[test]
fn queries_and_maintenance_interleave_consistently() {
    let fx = eqt_fixture(150);
    let edb = Arc::new(EpochDb::new(fx.db));
    let template = fx.template;
    let def = PartialViewDef::all_equality("shared_pmv", template.clone()).unwrap();
    let pmv = SharedPmv::new(def, PmvConfig::default());

    let stop = Arc::new(AtomicBool::new(false));
    let inconsistencies = Arc::new(AtomicUsize::new(0));

    let reader = {
        let edb = Arc::clone(&edb);
        let pmv = pmv.clone();
        let template = template.clone();
        let stop = Arc::clone(&stop);
        let bad = Arc::clone(&inconsistencies);
        std::thread::spawn(move || {
            let mut i = 0i64;
            while !stop.load(Ordering::SeqCst) {
                let q = eqt_query(&template, &[i % 7], &[(i / 7) % 5]);
                let out = edb.query(&pmv, &q).unwrap();
                if out.ds_leftover != 0 {
                    bad.fetch_add(1, Ordering::SeqCst);
                }
                i += 1;
            }
            i
        })
    };

    let writer = {
        let edb = Arc::clone(&edb);
        let pmv = pmv.clone();
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut round = 0i64;
            while !stop.load(Ordering::SeqCst) {
                insert_and_delete(&edb, &pmv, 10_000 + round, round);
                round += 1;
                std::thread::sleep(Duration::from_micros(200));
            }
            round
        })
    };

    std::thread::sleep(Duration::from_millis(300));
    stop.store(true, Ordering::SeqCst);
    let queries = reader.join().unwrap();
    let rounds = writer.join().unwrap();
    assert!(queries > 10, "reader made progress ({queries} queries)");
    assert!(rounds > 10, "writer made progress ({rounds} rounds)");
    assert_eq!(
        inconsistencies.load(Ordering::SeqCst),
        0,
        "a query saw a stale partial result"
    );

    // Final state sanity: revalidation finds nothing stale.
    let removed = pmv.revalidate(&edb.read()).unwrap();
    assert_eq!(removed, 0, "stale tuples survived maintenance");
}

/// Stress test: 8 threads hammer one `SharedPmv` through one `EpochDb` —
/// six run queries over mixed hot/cold bcps, two commit insert+delete
/// transactions (each commit maintains the view before publishing). Every
/// query must satisfy the end-of-O3 invariant (`ds_leftover == 0`: every
/// partial tuple served in O2 was re-derived by the full execution), and a
/// final revalidation must find nothing stale.
#[test]
fn shared_pmv_eight_thread_stress() {
    let fx = eqt_fixture(150);
    let edb = Arc::new(EpochDb::new(fx.db));
    let template = fx.template;
    let def = PartialViewDef::all_equality("shared_pmv", template.clone()).unwrap();
    let shared = SharedPmv::new(def, PmvConfig::default());

    let stop = Arc::new(AtomicBool::new(false));
    let inconsistencies = Arc::new(AtomicUsize::new(0));
    let mut handles = Vec::new();

    for thread in 0..8u64 {
        let edb = Arc::clone(&edb);
        let shared = shared.clone();
        let template = template.clone();
        let stop = Arc::clone(&stop);
        let bad = Arc::clone(&inconsistencies);
        handles.push(std::thread::spawn(move || {
            let mut ops = 0i64;
            if thread < 6 {
                // Query thread: each starts on a different slice of the
                // bcp grid so probes and write-backs race on the store.
                let mut i = thread as i64;
                while !stop.load(Ordering::SeqCst) {
                    let q = eqt_query(&template, &[i % 7], &[(i / 7) % 5]);
                    let out = edb.query(&shared, &q).unwrap();
                    if out.ds_leftover != 0 {
                        bad.fetch_add(1, Ordering::SeqCst);
                    }
                    i += 1;
                    ops += 1;
                }
            } else {
                // Maintainer thread: commit a small transaction; the
                // commit repairs the view before publishing, so no reader
                // ever sees the new database paired with a stale store.
                let mut round = thread as i64 * 1000;
                while !stop.load(Ordering::SeqCst) {
                    insert_and_delete(&edb, &shared, 100_000 + round, round);
                    round += 1;
                    ops += 1;
                    std::thread::sleep(Duration::from_micros(200));
                }
            }
            ops
        }));
    }

    std::thread::sleep(Duration::from_millis(400));
    stop.store(true, Ordering::SeqCst);
    let per_thread: Vec<i64> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    assert!(
        per_thread.iter().all(|&ops| ops > 5),
        "every thread made progress: {per_thread:?}"
    );
    assert_eq!(
        inconsistencies.load(Ordering::SeqCst),
        0,
        "a query saw a stale partial result (ds_leftover != 0)"
    );

    // Final state: store invariants hold and revalidation removes nothing.
    shared.debug_validate();
    let removed = shared.revalidate(&edb.read()).unwrap();
    assert_eq!(removed, 0, "stale tuples survived maintenance");
    let stats = shared.stats();
    assert!(stats.queries > 50, "query throughput: {stats:?}");
    assert!(stats.maint_deletes_joined > 0, "maintenance ran: {stats:?}");
}
