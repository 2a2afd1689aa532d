//! Property test: the one serving path (`pmv_core::serve`, hosted by
//! [`EpochDb::query`]) is equivalent to plain execution at every shard
//! count. Under an arbitrary script of queries, inserts, deletes and
//! updates, the same query answered from a 1-shard view (exactly `L`
//! entries, one owner) and from a 4-shard view must return exactly the
//! multiset the plain executor returns, with the end-of-O3 invariant
//! `ds_leftover == 0`. Each view's cache state evolves independently;
//! equivalence therefore exercises fills, hits, complete-serves,
//! upqueries, evictions and the epoch gates, not just cold execution.
//! With `unique` set the relation enforces a key on `a`, so answers are
//! duplicate-free and a colliding insert fails its commit; without it
//! equal rows occur and fills are held to their proven multiplicity.

use pmv::cache::PolicyKind;
use pmv::index::IndexDef;
use pmv::prelude::*;
use pmv::query::execute;
use pmv::storage::RowId;
use proptest::prelude::*;

const SHARD_COUNTS: [usize; 2] = [1, 4];

struct Fixture {
    edb: EpochDb,
    /// Served through `EpochDb::query`, one view per shard count.
    views: Vec<SharedPmv>,
}

fn setup(unique: bool) -> Fixture {
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
    if unique {
        db.create_index(IndexDef::btree("r", vec![0])).unwrap();
        db.declare_unique_key("r", &["a"]).unwrap();
    }
    let t = TemplateBuilder::new("t")
        .relation(db.schema("r").unwrap())
        .select("r", "a")
        .unwrap()
        .cond_eq("r", "f")
        .unwrap()
        .build()
        .unwrap();
    // F = 6 exceeds the 5 rows an untouched f holds, so entries can
    // become complete and the complete-serve/upquery paths are reached.
    let views = SHARD_COUNTS
        .iter()
        .map(|&n| {
            let def = PartialViewDef::all_equality(format!("epoch{n}"), t.clone()).unwrap();
            SharedPmv::with_shards(def, PmvConfig::new(6, 8, PolicyKind::Clock), n)
        })
        .collect();
    Fixture {
        edb: EpochDb::new(db),
        views,
    }
}

impl Fixture {
    /// Commit one transaction through the epoch database, which
    /// maintains every view before publishing.
    fn commit(
        &self,
        f: impl FnOnce(&mut Transaction<'_>) -> pmv::query::Result<()> + Send + 'static,
    ) {
        let views: Vec<&SharedPmv> = self.views.iter().collect();
        self.edb
            .commit(&views, move |db| {
                let mut txn = Transaction::begin(db);
                // A rejected write (duplicate key) commits nothing.
                let _ = f(&mut txn);
                Ok(((), txn.commit()))
            })
            .unwrap();
    }

    /// First live row whose column `col` holds `v`, if any.
    fn row_where(&self, col: usize, v: i64) -> Option<RowId> {
        let guard = self.edb.read();
        let handle = guard.relation("r").unwrap();
        let rel = handle.read();
        let row = rel
            .iter()
            .find(|(_, tu)| tu.get(col) == &Value::Int(v))
            .map(|(r, _)| r);
        row
    }

    /// Delete the row with `a = 3` (`f` = 3) through a commit that names
    /// no view.
    fn delete_a3_unlisted(&self) {
        let row = self.row_where(0, 3).unwrap();
        self.edb
            .commit(&[], move |db| {
                let mut txn = Transaction::begin(db);
                txn.delete("r", row)?;
                Ok(((), txn.commit()))
            })
            .unwrap();
    }
}

/// Ops are encoded as `(kind, f, a)`: kind 0–2 = query `f` (and, when
/// `a` is odd, a second value `a % 8` — a two-part query), kind 3 =
/// insert `(a, f)`, kind 4 = delete one row with selector `f`, kind 5 =
/// move one row from `f` to `a % 8`.
fn ops() -> impl Strategy<Value = Vec<(u8, i64, i64)>> {
    proptest::collection::vec((0u8..6, 0i64..8, 100i64..200), 1..40)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn query_equals_plain_execution_at_each_shard_count(
        ops in ops(),
        unique in any::<bool>(),
    ) {
        let fx = setup(unique);
        let t = fx.views[0].def().template().clone();
        for (kind, f, a) in ops {
            match kind {
                0..=2 => {
                    let mut values = vec![Value::Int(f)];
                    if a % 2 == 1 && a % 8 != f {
                        values.push(Value::Int(a % 8));
                    }
                    let q = t.bind(vec![Condition::Equality(values)]).unwrap();
                    let mut outs = Vec::new();
                    for v in &fx.views {
                        outs.push((v.def().name(), fx.edb.query(v, &q).unwrap()));
                    }
                    let (oracle, _) = execute(&*fx.edb.read(), &q).unwrap();
                    // The oracle returns expanded (`Ls'`) tuples; project
                    // them onto the user-visible select list.
                    let mut want: Vec<_> = oracle.iter().map(|e| t.user_tuple(e)).collect();
                    want.sort();
                    for (name, out) in &outs {
                        prop_assert_eq!(out.ds_leftover, 0, "{} served a stale tuple", name);
                        prop_assert!(out.is_complete(), "{} degraded", name);
                        let mut got = out.all_results();
                        got.sort();
                        prop_assert_eq!(&got, &want, "{} vs oracle diverged on f={}", name, f);
                    }
                }
                3 => fx.commit(move |txn| txn.insert("r", tuple![a, f]).map(|_| ())),
                4 => {
                    let Some(row) = fx.row_where(1, f) else { continue };
                    fx.commit(move |txn| txn.delete("r", row).map(|_| ()));
                }
                _ => {
                    let Some(row) = fx.row_where(1, f) else { continue };
                    fx.commit(move |txn| {
                        let old = txn.get("r", row)?;
                        let moved = Tuple::new(vec![old.get(0).clone(), Value::Int(a % 8)]);
                        txn.update("r", row, moved).map(|_| ())
                    });
                }
            }
        }
        // No run may leave any view serving stale tuples.
        let guard = fx.edb.read();
        for v in &fx.views {
            prop_assert_eq!(v.revalidate(&guard).unwrap(), 0, "{}", v.def().name());
            v.debug_validate();
        }
    }
}

/// The serving path serves from completeness claims at every shard
/// count: a repeated basic query whose bcp fits under `F` needs no
/// execution at all.
#[test]
fn query_serves_complete_entries() {
    let fx = setup(false);
    let t = fx.views[0].def().template().clone();
    let q = t
        .bind(vec![Condition::Equality(vec![Value::Int(3)])])
        .unwrap();
    for v in &fx.views {
        let cold = fx.edb.query(v, &q).unwrap();
        assert_eq!((cold.partial.len(), cold.remaining.len()), (0, 5));
        let warm = fx.edb.query(v, &q).unwrap();
        assert_eq!((warm.partial.len(), warm.remaining.len()), (5, 0));
        assert_eq!(warm.exec_stats.tuples_examined, 0, "O3 must not have run");
        assert!(v.stats().complete_serves > 0);
    }
}

fn query_f3(fx: &Fixture) -> QueryInstance {
    let t = fx.views[0].def().template();
    t.bind(vec![Condition::Equality(vec![Value::Int(3)])])
        .unwrap()
}

/// After the delete of `a = 3`, `f = 3` holds exactly these rows.
fn f3_after_delete() -> Vec<Tuple> {
    [11i64, 19, 27, 35].map(|a| tuple![a]).to_vec()
}

/// The host maintains every view it serves, named in the commit or not.
/// A view whose `f = 3` entry is complete (all 5 rows under F = 6) is
/// served, then a commit that names no view deletes `a = 3`: the next
/// answer has 4 rows without (3). When only listed views were
/// maintained, the complete entry kept serving (3) with `ds_leftover` 0,
/// because a complete-serve never reaches DS.
#[test]
fn unlisted_commit_maintains_a_served_view() {
    for (i, shards) in SHARD_COUNTS.into_iter().enumerate() {
        let fx = setup(false);
        let (view, q) = (&fx.views[i], query_f3(&fx));
        fx.edb.query(view, &q).unwrap();
        let warm = fx.edb.query(view, &q).unwrap();
        assert_eq!(warm.partial.len(), 5, "{shards} shard(s): complete entry");
        fx.delete_a3_unlisted();
        let after = fx.edb.query(view, &q).unwrap();
        let mut got = after.all_results();
        got.sort();
        assert_eq!(got, f3_after_delete(), "{shards} shard(s)");
        assert_eq!(after.ds_leftover, 0, "{shards} shard(s)");
    }
}

/// The same with two served views on the relation, neither ever named in
/// a commit: the commit maintains both.
#[test]
fn unlisted_commit_maintains_every_served_view_of_the_relation() {
    let fx = setup(false);
    let q = query_f3(&fx);
    for v in &fx.views {
        fx.edb.query(v, &q).unwrap();
        fx.edb.query(v, &q).unwrap();
    }
    fx.delete_a3_unlisted();
    for v in &fx.views {
        let after = fx.edb.query(v, &q).unwrap();
        let mut got = after.all_results();
        got.sort();
        assert_eq!(got, f3_after_delete(), "{}", v.def().name());
        assert_eq!(after.ds_leftover, 0, "{}", v.def().name());
        assert_eq!(v.stats().maint_deletes_joined, 1, "{}", v.def().name());
        assert_eq!(v.revalidate(&fx.edb.read()).unwrap(), 0);
    }
}
