//! Maintenance is one path (DESIGN.md §19): every delete, and every
//! relevant update's old image, from a relation that projects an `Ls'`
//! column goes through the delta-key index; only a bridge relation, one
//! projecting none, is maintained by the `ΔR ⋈ R` join. The join stays
//! the reference here, computed by the test with
//! [`pmv::query::exec::join_from`] against the pre-commit state. For
//! arbitrary interleavings of inserts, deletes, updates and queries —
//! including transactions that delete *matching* tuples from both base
//! relations at once — every cached row the join derives is gone after
//! the commit, and every other removed row carries a deleted tuple's
//! `Ls'` projection (the index's sound over-removal).
//! A fixed `r ⋈ b1 ⋈ b2 ⋈ s` case pins the union pass over two bridge
//! relations, and a fixed Zipfian delete stream pins what the index buys:
//! ≥ 10× fewer rows touched per delete than the join.

mod common;

use std::collections::HashMap;

use common::{
    bridge_fixture, commit, eqt_finish, eqt_fixture, eqt_query, eqt_relations, live_rows, oracle,
};
use pmv::cache::PolicyKind;
use pmv::core::FilterSpec;
use pmv::prelude::*;
use pmv::query::exec::join_from;
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
    /// Insert a copy of the `nth` live `r` row under another `c`: the
    /// two rows share their `(a, f)` projection, so `r`'s projection is
    /// not a key and a delete of either over-removes the other's rows.
    InsertTwinR(usize),
    DeleteNthR(usize),
    DeleteNthS(usize),
    UpdateNthR {
        nth: usize,
        new_f: i64,
    },
    /// Delete an `r` row AND a joining `s` row in ONE transaction: the
    /// two-relation case whose joint derivations per-relation ΔR joins
    /// against post-delete state cannot see.
    DeleteMatchingPair(usize),
}

fn values(range: std::ops::Range<i64>) -> impl Strategy<Value = Vec<i64>> {
    proptest::collection::btree_set(range, 1..3).prop_map(|s| s.into_iter().collect())
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        3 => (values(0..7), values(0..5)).prop_map(|(fs, gs)| Step::Query { fs, gs }),
        1 => (0i64..1000, 0i64..30, 0i64..7).prop_map(|(a, c, f)| Step::InsertR { a, c, f }),
        1 => (0usize..1000).prop_map(Step::InsertTwinR),
        2 => (0usize..1000).prop_map(Step::DeleteNthR),
        1 => (0usize..1000).prop_map(Step::DeleteNthS),
        1 => (0usize..1000, 0i64..7).prop_map(|(nth, new_f)| Step::UpdateNthR { nth, new_f }),
        2 => (0usize..1000).prop_map(Step::DeleteMatchingPair),
    ]
}

/// Find a joining (r, s) row pair: an `r` row and an `s` row with
/// `r.c = s.d`, scanning from the `nth` live `r` row.
fn joining_pair(db: &Database, nth: usize) -> Option<(RowId, RowId)> {
    let r_guard = db.relation("r").unwrap();
    let s_guard = db.relation("s").unwrap();
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

/// Every cached tuple of `view`, as a multiset.
fn cached(view: &SharedPmv) -> HashMap<Tuple, usize> {
    let mut m = HashMap::new();
    for (_, tuples) in view.dump() {
        for t in tuples {
            *m.entry(t).or_insert(0) += 1;
        }
    }
    m
}

/// The Eqt fixture driven through one step script by a view, checked
/// against the join reference after every delete or update.
struct Script {
    edb: EpochDb,
    template: std::sync::Arc<QueryTemplate>,
    spec: FilterSpec,
    view: SharedPmv,
}

impl Script {
    fn new(f_cap: usize, l: usize) -> Self {
        let fx = eqt_fixture(40);
        let def = PartialViewDef::all_equality("eq_pmv", fx.template.clone()).unwrap();
        let view = SharedPmv::new(def, PmvConfig::new(f_cap, l, PolicyKind::Clock));
        Script {
            spec: FilterSpec::for_template(&fx.template),
            edb: EpochDb::new(fx.db),
            template: fx.template,
            view,
        }
    }

    /// Commit one transaction deleting `deleted` (relation name, row;
    /// an update's old image counts as a delete) and check the view
    /// against the join reference. Returns the rows removed beyond the
    /// join's.
    fn commit_checked<T>(
        &self,
        deleted: &[(&str, RowId)],
        f: impl FnOnce(&mut Transaction<'_>) -> pmv::query::Result<T>,
    ) -> usize {
        let (join_rows, images) = {
            let db = self.edb.read();
            let mut rows: HashMap<Tuple, usize> = HashMap::new();
            let mut images = Vec::new();
            for &(relation, row) in deleted {
                let rel = self.template.relations().iter().position(|r| r == relation);
                let (rel, image) = (rel.unwrap(), db.get(relation, row).unwrap());
                for t in join_from(&*db, &self.template, rel, &image).unwrap() {
                    *rows.entry(t).or_insert(0) += 1;
                }
                images.push((rel, image));
            }
            (rows, images)
        };
        let (view, before) = (&self.view, cached(&self.view));
        commit(&self.edb, &[view], f);
        let after = cached(view);
        for row in join_rows.keys() {
            assert!(
                !(before.contains_key(row) && after.contains_key(row)),
                "joined row {row} still cached"
            );
        }
        let mut over = 0;
        for (row, n) in before {
            let removed = n - after.get(&row).copied().unwrap_or(0);
            if removed == 0 || join_rows.contains_key(&row) {
                continue;
            }
            let carries = images.iter().any(|(rel, image)| {
                let (positions, columns) = &self.spec.per_relation[*rel];
                positions
                    .iter()
                    .zip(columns)
                    .all(|(&p, &c)| row.get(p) == image.get(c))
            });
            assert!(
                carries,
                "removed {row}, which no join derives and no deleted tuple's projection \
                 covers"
            );
            over += removed;
        }
        over
    }

    // Each lookup releases the database read guard before the commit
    // that follows it takes the write lock.
    fn nth_live_row(&self, relation: &str, nth: usize) -> Option<RowId> {
        let live = live_rows(&self.edb.read(), relation);
        (!live.is_empty()).then(|| live[nth % live.len()])
    }

    fn joining_pair(&self, nth: usize) -> Option<(RowId, RowId)> {
        joining_pair(&self.edb.read(), nth)
    }

    /// Apply one step; returns its over-removal count.
    fn apply(&self, step: Step) -> usize {
        let edb = &self.edb;
        let all = [&self.view];
        let over = match step {
            Step::Query { fs, gs } => {
                let q = eqt_query(&self.template, &fs, &gs);
                let expect = oracle(&edb.read(), &q);
                let out = edb.query(&self.view, &q).unwrap();
                let mut got = out.all_results();
                got.sort();
                assert_eq!(got, expect, "pipeline diverged from executor");
                assert_eq!(out.ds_leftover, 0, "stale tuple served");
                0
            }
            Step::InsertR { a, c, f } => {
                commit(edb, &all, move |txn| {
                    txn.insert("r", tuple![a, c, f]).map(drop)
                });
                0
            }
            Step::InsertTwinR(nth) => {
                if let Some(row) = self.nth_live_row("r", nth) {
                    let mut twin = edb.read().get("r", row).unwrap().values().to_vec();
                    twin[1] = Value::Int((twin[1].as_int().unwrap() + 1) % 30);
                    commit(edb, &all, move |txn| {
                        txn.insert("r", Tuple::new(twin)).map(drop)
                    });
                }
                0
            }
            Step::DeleteNthR(nth) => match self.nth_live_row("r", nth) {
                Some(row) => self.commit_checked(&[("r", row)], move |txn| txn.delete("r", row)),
                None => 0,
            },
            Step::DeleteNthS(nth) => match self.nth_live_row("s", nth) {
                Some(row) => self.commit_checked(&[("s", row)], move |txn| txn.delete("s", row)),
                None => 0,
            },
            Step::UpdateNthR { nth, new_f } => match self.nth_live_row("r", nth) {
                Some(row) => {
                    let old = edb.read().get("r", row).unwrap();
                    // An update that changes nothing relevant removes nothing.
                    let deleted: &[_] = if old.get(2) == &Value::Int(new_f) {
                        &[]
                    } else {
                        &[("r", row)]
                    };
                    self.commit_checked(deleted, move |txn| {
                        let mut vals: Vec<Value> = txn.get("r", row)?.values().to_vec();
                        vals[2] = Value::Int(new_f);
                        txn.update("r", row, Tuple::new(vals))
                    })
                }
                None => 0,
            },
            Step::DeleteMatchingPair(nth) => match self.joining_pair(nth) {
                Some((r_row, s_row)) => {
                    self.commit_checked(&[("r", r_row), ("s", s_row)], move |txn| {
                        txn.delete("r", r_row)?;
                        txn.delete("s", s_row)
                    })
                }
                None => 0,
            },
        };
        self.view.debug_validate();
        over
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Drive a view through a step sequence: after every delete or update,
    /// the rows the join derives are gone and every other removed row
    /// carries a deleted tuple's projection, and query answers match the
    /// plain executor throughout.
    #[test]
    fn delta_index_equals_join_oracle(
        steps in proptest::collection::vec(step_strategy(), 1..40),
        f_cap in 1usize..4,
        l in 2usize..12,
    ) {
        let script = Script::new(f_cap, l);
        for step in steps {
            script.apply(step);
        }
    }
}

/// `r`'s projection `(a, f)` is not a key once a twin row shares it: a
/// delete of one twin removes the other's cached rows too. Sound — the
/// cache under-serves, never lies — and the refill repairs it.
#[test]
fn twin_projection_over_removes_soundly() {
    let script = Script::new(8, 128);
    let warm = || {
        for f in 0..7 {
            let step = Step::Query {
                fs: vec![f],
                gs: (0..5).collect(),
            };
            assert_eq!(script.apply(step), 0);
        }
    };
    warm();
    assert_eq!(script.apply(Step::InsertTwinR(0)), 0);
    warm();
    let over = script.apply(Step::DeleteNthR(0));
    println!("over-removed by the twin delete: {over} rows");
    assert!(over > 0, "the twin's rows were not over-removed");
    warm();
}

/// Two bridge relations: a transaction deleting a matching `b1`/`b2`
/// pair leaves derivations through *both* that neither bridge join sees
/// (each runs against the other's row already gone). The union pass
/// re-binds the pair; without it, cached rows through the pair go stale.
/// Half the transactions also delete one `r` row reaching the pair,
/// which the delta-key index resolves.
#[test]
fn union_pass_removes_joint_bridge_derivations() {
    let fx = bridge_fixture();
    let (edb, template) = (EpochDb::new(fx.db), fx.template);
    let def = PartialViewDef::all_equality("bridge_pmv", template.clone()).unwrap();
    let view = SharedPmv::new(def, PmvConfig::new(64, 32, PolicyKind::Clock));
    let queries: Vec<QueryInstance> = (0..5)
        .flat_map(|f| (0..3).map(move |g| (f, g)))
        .map(|(f, g)| eqt_query(&template, &[f], &[g]))
        .collect();
    let check = |round: i64| {
        for q in &queries {
            let out = edb.query(&view, q).unwrap();
            let mut got = out.all_results();
            got.sort();
            assert_eq!(got, oracle(&edb.read(), q), "round {round}");
            assert_eq!(out.ds_leftover, 0, "round {round}: stale tuple served");
        }
    };
    check(-1);
    assert!(view.tuple_count() > 0);
    let find = |relation: &str, col: usize, v: i64| {
        let rows: Vec<RowId> = edb
            .read()
            .relation(relation)
            .unwrap()
            .iter()
            .filter(|(_, t)| t.get(col) == &Value::Int(v))
            .map(|(row, _)| row)
            .collect();
        rows
    };
    for x in 0..8i64 {
        let b1_row = find("b1", 0, x)[0];
        let b2_row = find("b2", 0, x % 4)[0];
        let r_row = (x % 2 == 0).then(|| find("r", 1, x)[0]);
        commit(&edb, &[&view], move |txn| {
            txn.delete("b1", b1_row)?;
            txn.delete("b2", b2_row)?;
            r_row.map_or(Ok(()), |row| txn.delete("r", row).map(drop))
        });
        check(x);
        assert_eq!(view.revalidate(&edb.read()).unwrap(), 0, "round {x}");
        view.debug_validate();
    }
    let stats = view.stats();
    assert_eq!(stats.maint_deletes_joined, 8 * 2 + 4);
    assert_eq!(
        stats.maint_coalesced_joins,
        8 * 2,
        "one join per bridge delete"
    );
}

/// The maintenance-heavy cell: 400 Zipf(1.2) deletes over 16 keys in
/// batches of 8 against `r ⋈ s` with a per-key fan-out of 512. Serving
/// load keeps the four hottest keys resident (re-probed before each batch
/// that touches them); cold keys are never queried, so the index finds
/// nothing for their deletes and the join would be skipped for them too.
/// The engine resolves every delete through the delta-key index; the
/// join-only side is the paper's ΔR ⋈ S join, computed here with
/// `join_from` for every delete whose projection was cached before its
/// commit (≈ 356 rows per delete, against ≈ 10 index removals). Counters
/// only, no clocks.
///
/// All copies of a key's R row share one projection, so the index
/// removes every cached tuple of that key where the join would remove
/// one per delete (sound over-removal, `delta_index` module docs); the
/// view is checked against the plain executor.
#[test]
fn indexed_delete_touches_ten_times_fewer_rows_than_delta_join() {
    const KEYS: usize = 16;
    const HOT: usize = KEYS / 4;
    const DELETES: usize = 400;
    const FANOUT: i64 = 512;
    const GVALS: i64 = 2;
    let (zipf, mut rng) = (Zipf::new(KEYS, 1.2), StdRng::seed_from_u64(0x9E37_79B9));
    let seq: Vec<usize> = (0..DELETES).map(|_| zipf.sample(&mut rng)).collect();
    let mut counts = [0usize; KEYS];
    for &k in &seq {
        counts[k] += 1;
    }

    let mut db = eqt_relations();
    // Every R row for key k is the identical tuple (k, k, k): all its
    // copies share one delta key.
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
    let spec = FilterSpec::for_template(&template);

    let def = PartialViewDef::all_equality("maint_pmv", template.clone()).unwrap();
    let shared = SharedPmv::new(def, PmvConfig::new(8, 4096, PolicyKind::Clock));
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

    let (r_positions, r_columns) = &spec.per_relation[0];
    let mut join_only_rows = 0;
    for chunk in seq.chunks(8) {
        let mut seen = [false; HOT];
        for &k in chunk {
            if k < HOT && !std::mem::replace(&mut seen[k], true) {
                probe(k, false);
            }
        }
        // Join-only side: the paper's ΔR join for every delete whose
        // projection some cached tuple carries.
        let cached: Vec<Tuple> = shared.dump().into_iter().flat_map(|(_, t)| t).collect();
        for &k in chunk {
            let image = tuple![k as i64, k as i64, k as i64];
            let affected = cached.iter().any(|v| {
                r_positions
                    .iter()
                    .zip(r_columns)
                    .all(|(&p, &c)| v.get(p) == image.get(c))
            });
            if affected {
                join_only_rows += join_from(&*edb.read(), &template, 0, &image).unwrap().len();
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
        "a stale tuple stayed cached"
    );
    (0..HOT).for_each(|k| probe(k, true));

    assert_eq!(stats.maint_join_rows, 0, "a delete took the join");
    let join_rows = join_only_rows as f64 / DELETES as f64;
    let index_rows = stats.maint_index_removals as f64 / DELETES as f64;
    println!("rows touched per delete: join only {join_rows:.2}, indexed {index_rows:.2}");
    assert!(
        stats.maint_index_removals > 0,
        "nothing took the indexed path"
    );
    assert!(
        join_rows >= 10.0 * index_rows,
        "rows touched per delete: join only {join_rows:.1}, indexed {index_rows:.1}"
    );
}
