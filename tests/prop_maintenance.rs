//! Maintenance is one path whose heavy-key threshold only routes deletes
//! (DESIGN.md §19): for arbitrary interleavings of inserts, deletes,
//! updates, and queries — including transactions that delete *matching*
//! tuples from both base relations at once — the delta-key-index route
//! (at the default threshold, at 2, where both routes fire, and at 1,
//! where every delta is heavy) leaves the PMV in exactly the same state
//! as threshold `u64::MAX`, the full `ΔR ⋈ R` join oracle, and all four
//! keep serving the plain executor's results. A fixed Zipfian delete
//! stream then pins what the index buys: ≥ 10× fewer rows touched per
//! delete.

mod common;

use common::{commit, eqt_finish, eqt_fixture, eqt_query, eqt_relations, live_rows, oracle};
use pmv::cache::PolicyKind;
use pmv::prelude::*;
use pmv::storage::RowId;
use pmv::workload::zipf::Zipf;
use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};

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
    let live = live_rows(db, relation);
    (!live.is_empty()).then(|| live[nth % live.len()])
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

    /// Drive the join oracle (threshold `u64::MAX`) and views at the
    /// default threshold, at 2 (both routes fire) and at 1 (every delta
    /// indexed) through the same step sequence; their stores must stay
    /// bit-identical and their query answers must match the plain
    /// executor at every point. One shard each: `l` entries exactly, so
    /// all four evict in lockstep.
    #[test]
    fn delta_index_equals_join_oracle(
        steps in proptest::collection::vec(step_strategy(), 1..40),
        f_cap in 1usize..4,
        l in 2usize..12,
    ) {
        let fx = eqt_fixture(40);
        let (edb, template) = (EpochDb::new(fx.db), fx.template);

        let thresholds = [u64::MAX, PmvConfig::default().heavy_threshold, 2, 1];
        let views: Vec<SharedPmv> = thresholds
            .iter()
            .enumerate()
            .map(|(i, &heavy)| {
                let def =
                    PartialViewDef::all_equality(format!("eq_pmv_{i}"), template.clone()).unwrap();
                let config = PmvConfig::new(f_cap, l, PolicyKind::Clock).with_heavy_threshold(heavy);
                SharedPmv::with_shards(def, config, 1)
            })
            .collect();
        let all: Vec<&SharedPmv> = views.iter().collect();

        for step in steps {
            match step {
                Step::Query { fs, gs } => {
                    let q = eqt_query(&template, &fs, &gs);
                    let expect = oracle(&edb.read(), &q);
                    for v in &views {
                        let out = edb.query(v, &q).unwrap();
                        let mut got = out.all_results();
                        got.sort();
                        prop_assert_eq!(&got, &expect, "pipeline diverged from executor");
                        prop_assert_eq!(out.ds_leftover, 0, "stale tuple served");
                    }
                }
                Step::InsertR { a, c, f } => {
                    commit(&edb, &all, move |txn| txn.insert("r", tuple![a, c, f]).map(drop));
                }
                Step::DeleteNthR(nth) => {
                    let row = nth_live_row(&edb.read(), "r", nth);
                    if let Some(row) = row {
                        commit(&edb, &all, move |txn| txn.delete("r", row).map(drop));
                    }
                }
                Step::DeleteNthS(nth) => {
                    let row = nth_live_row(&edb.read(), "s", nth);
                    if let Some(row) = row {
                        commit(&edb, &all, move |txn| txn.delete("s", row).map(drop));
                    }
                }
                Step::UpdateNthR { nth, new_f } => {
                    let row = nth_live_row(&edb.read(), "r", nth);
                    if let Some(row) = row {
                        commit(&edb, &all, move |txn| {
                            let mut vals: Vec<Value> = txn.get("r", row)?.values().to_vec();
                            vals[2] = Value::Int(new_f);
                            txn.update("r", row, Tuple::new(vals)).map(drop)
                        });
                    }
                }
                Step::DeleteMatchingPair(nth) => {
                    let pair = joining_pair(&edb.read(), nth);
                    if let Some((r_row, s_row)) = pair {
                        commit(&edb, &all, move |txn| {
                            txn.delete("r", r_row)?;
                            txn.delete("s", s_row).map(drop)
                        });
                    }
                }
            }
            for v in &views {
                v.debug_validate();
            }
            // The invariant of this whole test: every threshold leaves
            // the join oracle's view state after every step.
            let reference = views[0].dump();
            for (v, heavy) in views.iter().zip(thresholds).skip(1) {
                prop_assert_eq!(&v.dump(), &reference, "threshold {} diverged from the join", heavy);
            }
        }
    }
}

/// The maintenance-heavy cell: 400 Zipf(1.2) deletes over 16 keys in
/// batches of 8 against `r ⋈ s` with a per-key fan-out of 512. Serving
/// load keeps the four hottest keys resident (re-probed before each batch
/// that touches them); cold keys are never queried, so the residency gate
/// skips their deletes at both thresholds and the difference is purely
/// join-vs-index on the affecting deletes. At threshold `u64::MAX` every
/// delete pays the ΔR ⋈ S join (≈ 356 rows per delete); at 2 hot delta
/// keys resolve through the delta-key index (≈ 10.6). Counters only, no
/// clocks.
///
/// The two views are each checked against the plain executor rather than
/// against each other: all copies of a key's R row share one projection,
/// so the index removes every cached tuple of that key where the join
/// removes one per delete (sound over-removal, `delta_index` module docs).
#[test]
fn heavy_light_touches_ten_times_fewer_rows_than_delta_join() {
    const KEYS: usize = 16;
    const HOT: usize = KEYS / 4;
    const DELETES: usize = 400;
    const FANOUT: i64 = 512;
    const GVALS: i64 = 2;
    // One fixed stream, replayed at both thresholds.
    let (zipf, mut rng) = (Zipf::new(KEYS, 1.2), StdRng::seed_from_u64(0x9E37_79B9));
    let seq: Vec<usize> = (0..DELETES).map(|_| zipf.sample(&mut rng)).collect();
    let mut counts = [0usize; KEYS];
    for &k in &seq {
        counts[k] += 1;
    }

    let run = |heavy: u64| {
        let mut db = eqt_relations();
        // Every R row for key k is the identical tuple (k, k, k): all its
        // copies share one delta key, so repeated deletes of a hot key hit
        // the same index slot and same-batch duplicates of a cold key
        // coalesce into one join.
        let mut supply: Vec<Vec<RowId>> = vec![Vec::new(); KEYS];
        for (k, &row_count) in counts.iter().enumerate() {
            let ki = k as i64;
            for _ in 0..row_count + 2 {
                supply[k].push(db.insert("r", tuple![ki, ki, ki]).unwrap().row());
            }
            for j in 0..FANOUT {
                db.insert("s", tuple![ki, j, j % GVALS]).unwrap();
            }
        }
        let fx = eqt_finish(db);
        let (edb, template) = (EpochDb::new(fx.db), fx.template);

        let def = PartialViewDef::all_equality("maint_pmv", template.clone()).unwrap();
        let config = PmvConfig::new(8, 4096, PolicyKind::Clock).with_heavy_threshold(heavy);
        let shared = SharedPmv::with_shards(def, config, 16);
        // Both bcps of key `k`, optionally checked against the executor.
        let probe = |k: usize, check: bool| {
            for g in 0..GVALS {
                let q = eqt_query(&template, &[k as i64], &[g]);
                let out = edb.query(&shared, &q).unwrap();
                assert_eq!(out.ds_leftover, 0, "stale tuple served");
                if check {
                    let mut got = out.all_results();
                    got.sort();
                    assert_eq!(got, oracle(&edb.read(), &q), "diverged from executor");
                }
            }
        };
        for k in 0..HOT {
            probe(k, false);
            probe(k, false);
        }
        shared.reset_stats();

        for chunk in seq.chunks(8) {
            let mut seen = [false; HOT];
            for &k in chunk {
                if k < HOT && !std::mem::replace(&mut seen[k], true) {
                    probe(k, false);
                }
            }
            let rows: Vec<RowId> = chunk.iter().map(|&k| supply[k].pop().unwrap()).collect();
            edb.commit(&[&shared], move |db| {
                let mut txn = Transaction::begin(db);
                for &row in &rows {
                    txn.delete("r", row)?;
                }
                Ok(((), txn.commit()))
            })
            .unwrap();
        }
        let stats = shared.stats();
        shared.debug_validate();
        assert_eq!(
            shared.revalidate(&edb.read()).unwrap(),
            0,
            "threshold {heavy} left a stale tuple cached"
        );
        (0..HOT).for_each(|k| probe(k, true));
        stats
    };

    let base = run(u64::MAX);
    // Two sketch sightings promote a delta key to the indexed path: the
    // cell pins steady-state routing, not sketch warm-up.
    let hl = run(2);
    let per_delete =
        |s: &PmvStats| (s.maint_join_rows + s.maint_index_removals) as f64 / DELETES as f64;
    let (base_rows, hl_rows) = (per_delete(&base), per_delete(&hl));
    assert!(hl.maint_heavy_deltas > 0, "nothing took the indexed path");
    assert!(
        base_rows >= 10.0 * hl_rows,
        "rows touched per delete: join only {base_rows:.1}, heavy≥2 {hl_rows:.1}"
    );
}
