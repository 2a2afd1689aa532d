//! The store's frequency admission (DESIGN.md "The store") under constant
//! eviction pressure: views of L = 1, 2 and 4 bcps at 1 and 4 shards over
//! a 16-bcp space, so nearly every miss goes through the rule — admitted
//! over a victim it out-counts, or declined.
//!
//! Over random query, insert, delete and update scripts:
//! * every answer equals the plain executor's;
//! * every shard's invariants hold after every step (`PmvStore::check`:
//!   policy resident count equals entry count, tracked bytes equal the
//!   sum of charges, no entry over `F`) and `revalidate` finds nothing
//!   stale after a commit;
//! * a declined bcp holds no entry: a query's declines never outnumber
//!   its bcps with rows that hold none, and a one-bcp query whose bcp was
//!   declined leaves it absent.

use std::collections::HashSet;
use std::sync::Arc;

use pmv::core::BcpKey;
use pmv::index::IndexDef;
use pmv::prelude::*;
use proptest::prelude::*;

/// `r(a, c, f) ⋈ s(d, e, g)` on `r.c = s.d`, `select *`, equality
/// conditions on `r.f` and `s.g` (each in `0..4`): a bcp is one `(f, g)`
/// pair.
fn fixture() -> (Database, Arc<QueryTemplate>) {
    let mut db = Database::new();
    let int = |n: &str| Column::new(n, ColumnType::Int);
    db.create_relation(Schema::new("r", vec![int("a"), int("c"), int("f")]))
        .unwrap();
    db.create_relation(Schema::new("s", vec![int("d"), int("e"), int("g")]))
        .unwrap();
    for i in 0..24i64 {
        db.insert("r", tuple![i, i % 6, i % 4]).unwrap();
        db.insert("s", tuple![i % 6, 100 + i, (i / 6) % 4]).unwrap();
    }
    for (rel, col) in [("r", 1), ("r", 2), ("s", 0), ("s", 2)] {
        db.create_index(IndexDef::btree(rel, vec![col])).unwrap();
    }
    let t = TemplateBuilder::new("adm")
        .relation(db.schema("r").unwrap())
        .relation(db.schema("s").unwrap())
        .join("r", "c", "s", "d")
        .unwrap()
        .select_star()
        .cond_eq("r", "f")
        .unwrap()
        .cond_eq("s", "g")
        .unwrap()
        .build()
        .unwrap();
    (db, t)
}

/// One view per `(L, shards)` pair, all `F = 2`, CLOCK.
fn views(t: &Arc<QueryTemplate>) -> Vec<SharedPmv> {
    let mut out = Vec::new();
    for l in [1, 2, 4] {
        for shards in [1, 4] {
            let def =
                PartialViewDef::all_equality(format!("adm_l{l}_n{shards}"), Arc::clone(t)).unwrap();
            out.push(SharedPmv::with_shards(
                def,
                PmvConfig::new(2, l, PolicyKind::Clock),
                shards,
            ));
        }
    }
    out
}

#[derive(Clone, Debug)]
enum Step {
    Query { fs: Vec<i64>, gs: Vec<i64> },
    InsertR { a: i64, c: i64, f: i64 },
    InsertS { d: i64, g: i64 },
    DeleteNthR(usize),
    DeleteNthS(usize),
    UpdateNthR { nth: usize, f: i64 },
    UpdateNthS { nth: usize, g: i64 },
}

fn step_strategy() -> impl Strategy<Value = Step> {
    let set =
        || proptest::collection::btree_set(0i64..4, 1..3).prop_map(|s| s.into_iter().collect());
    prop_oneof![
        6 => (set(), set()).prop_map(|(fs, gs)| Step::Query { fs, gs }),
        1 => (0i64..1000, 0i64..6, 0i64..4).prop_map(|(a, c, f)| Step::InsertR { a, c, f }),
        1 => (0i64..6, 0i64..4).prop_map(|(d, g)| Step::InsertS { d, g }),
        1 => (0usize..1000).prop_map(Step::DeleteNthR),
        1 => (0usize..1000).prop_map(Step::DeleteNthS),
        1 => (0usize..1000, 0i64..4).prop_map(|(nth, f)| Step::UpdateNthR { nth, f }),
        1 => (0usize..1000, 0i64..4).prop_map(|(nth, g)| Step::UpdateNthS { nth, g }),
    ]
}

/// One step's write, run inside a committed transaction.
type Change = Box<dyn FnOnce(&mut Transaction<'_>) -> pmv::query::Result<()>>;

/// The `nth` live row of `relation` (modulo its size), if any.
fn nth_row(edb: &EpochDb, relation: &str, nth: usize) -> Option<(pmv::storage::RowId, Tuple)> {
    let db = edb.read();
    let rows: Vec<_> = db
        .relation(relation)
        .unwrap()
        .iter()
        .map(|(r, t)| (r, t.clone()))
        .collect();
    (!rows.is_empty()).then(|| rows[nth % rows.len()].clone())
}

fn bind(t: &Arc<QueryTemplate>, fs: &[i64], gs: &[i64]) -> QueryInstance {
    let values = |xs: &[i64]| xs.iter().map(|&x| Value::Int(x)).collect();
    t.bind(vec![
        Condition::Equality(values(fs)),
        Condition::Equality(values(gs)),
    ])
    .unwrap()
}

/// Run `q` through `view`: the answer must be the executor's, and the
/// bcps it declined must hold no entry.
fn query_checked(
    edb: &EpochDb,
    view: &SharedPmv,
    q: &QueryInstance,
    plain: &[Tuple],
    one_bcp: bool,
) -> Result<(), TestCaseError> {
    let declined_before = view.stats().admissions_declined;
    let out = edb.query(view, q).unwrap();
    prop_assert_eq!(out.ds_leftover, 0);
    let mut got: Vec<Tuple> = out
        .partial_expanded
        .iter()
        .chain(&out.remaining_expanded)
        .map(|t| Tuple::clone(t))
        .collect();
    got.sort();
    prop_assert_eq!(&got, plain, "{}", view.def().name());

    let declined = view.stats().admissions_declined - declined_before;
    let with_rows: HashSet<BcpKey> = plain.iter().map(|r| view.def().bcp_of_tuple(r)).collect();
    let held: HashSet<BcpKey> = view.dump().into_iter().map(|(bcp, _)| bcp).collect();
    let empty = with_rows.iter().filter(|b| !held.contains(*b)).count() as u64;
    prop_assert!(
        declined <= empty,
        "{}: {declined} declined, {empty} of the query's bcps hold no entry",
        view.def().name()
    );
    if one_bcp && declined > 0 {
        prop_assert_eq!(empty, 1, "the one declined bcp holds an entry");
    }
    Ok(())
}

fn run_script(steps: Vec<Step>) -> Result<(), TestCaseError> {
    let (db, t) = fixture();
    let views = views(&t);
    let edb = EpochDb::new(db);
    for step in steps {
        let change: Option<Change> = match step {
            Step::Query { fs, gs } => {
                let q = bind(&t, &fs, &gs);
                let (mut plain, _) = pmv::query::execute(&*edb.read(), &q).unwrap();
                plain.sort();
                let one_bcp = fs.len() == 1 && gs.len() == 1;
                for v in &views {
                    query_checked(&edb, v, &q, &plain, one_bcp)?;
                }
                None
            }
            Step::InsertR { a, c, f } => Some(Box::new(move |txn| {
                txn.insert("r", tuple![a, c, f]).map(drop)
            })),
            Step::InsertS { d, g } => Some(Box::new(move |txn| {
                txn.insert("s", tuple![d, 500 + g, g]).map(drop)
            })),
            Step::DeleteNthR(nth) => nth_row(&edb, "r", nth).map(|(row, _)| {
                Box::new(move |txn: &mut Transaction<'_>| txn.delete("r", row).map(drop)) as _
            }),
            Step::DeleteNthS(nth) => nth_row(&edb, "s", nth).map(|(row, _)| {
                Box::new(move |txn: &mut Transaction<'_>| txn.delete("s", row).map(drop)) as _
            }),
            Step::UpdateNthR { nth, f } => nth_row(&edb, "r", nth).map(|(row, old)| {
                let new = tuple![old.get(0).clone(), old.get(1).clone(), f];
                Box::new(move |txn: &mut Transaction<'_>| txn.update("r", row, new).map(drop)) as _
            }),
            Step::UpdateNthS { nth, g } => nth_row(&edb, "s", nth).map(|(row, old)| {
                let new = tuple![old.get(0).clone(), old.get(1).clone(), g];
                Box::new(move |txn: &mut Transaction<'_>| txn.update("s", row, new).map(drop)) as _
            }),
        };
        if let Some(change) = change {
            let attach: Vec<&SharedPmv> = views.iter().collect();
            edb.commit(&attach, |db| {
                let mut txn = Transaction::begin(db);
                change(&mut txn)?;
                Ok(((), txn.commit()))
            })
            .unwrap();
            for v in &views {
                prop_assert_eq!(v.revalidate(&edb.read()).unwrap(), 0, "stale tuple kept");
            }
        }
        for v in &views {
            v.debug_validate();
        }
    }
    Ok(())
}

/// The scripts do reach the rule: a stream whose one hot bcp moves
/// through all 16 every 16 queries, each hot query followed by a cold
/// one, makes every view both decline cold newcomers and evict for a
/// new hot bcp once it out-counts its victim.
#[test]
fn every_view_declines_and_evicts() {
    let mut steps = Vec::new();
    for hot in 0..16i64 {
        for j in 0..16i64 {
            let b = if j % 2 == 0 { hot } else { (hot + 1 + j) % 16 };
            steps.push(Step::Query {
                fs: vec![b % 4],
                gs: vec![b / 4],
            });
        }
    }
    let (db, t) = fixture();
    let views = views(&t);
    let edb = EpochDb::new(db);
    for step in steps {
        let Step::Query { fs, gs } = step else {
            unreachable!()
        };
        let q = bind(&t, &fs, &gs);
        let (mut plain, _) = pmv::query::execute(&*edb.read(), &q).unwrap();
        plain.sort();
        for v in &views {
            query_checked(&edb, v, &q, &plain, true).unwrap();
        }
    }
    for v in &views {
        v.debug_validate();
        let s = v.stats();
        assert!(
            s.admissions_declined > 0 && v.evictions() > 0,
            "{}: {} declined, {} evicted",
            v.def().name(),
            s.admissions_declined,
            v.evictions()
        );
    }
}

proptest! {
    #[test]
    fn admission_keeps_answers_and_invariants(
        steps in proptest::collection::vec(step_strategy(), 1..40)
    ) {
        run_script(steps)?;
    }
}
