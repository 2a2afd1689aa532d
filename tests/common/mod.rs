//! Shared fixtures for the integration tests.

use pmv::index::IndexDef;
use pmv::prelude::*;
use pmv::storage::RowId;
use std::sync::Arc;

/// Two-relation schema shaped like the paper's Eqt: R(a, c, f), S(d, e, g)
/// joined on R.c = S.d, with equality conditions on R.f and S.g.
pub struct EqtFixture {
    pub db: Database,
    pub template: Arc<pmv::query::QueryTemplate>,
}

/// Build the fixture with `n` tuples per relation, deterministic content.
pub fn eqt_fixture(n: i64) -> EqtFixture {
    let mut db = eqt_relations();
    for i in 0..n {
        // c/d overlap so roughly half of r joins something.
        db.insert("r", tuple![i, i % (n / 2 + 1), i % 7]).unwrap();
        db.insert("s", tuple![i % (n / 2 + 1), i * 10, i % 5])
            .unwrap();
    }
    eqt_finish(db)
}

/// An empty database holding the Eqt relations `r` and `s`.
pub fn eqt_relations() -> Database {
    let mut db = Database::new();
    db.create_relation(Schema::new(
        "r",
        vec![
            Column::new("a", ColumnType::Int),
            Column::new("c", ColumnType::Int),
            Column::new("f", ColumnType::Int),
        ],
    ))
    .unwrap();
    db.create_relation(Schema::new(
        "s",
        vec![
            Column::new("d", ColumnType::Int),
            Column::new("e", ColumnType::Int),
            Column::new("g", ColumnType::Int),
        ],
    ))
    .unwrap();
    db
}

/// Index the loaded Eqt relations (join and condition columns) and build
/// the template over them.
pub fn eqt_finish(mut db: Database) -> EqtFixture {
    db.create_index(IndexDef::btree("r", vec![1])).unwrap();
    db.create_index(IndexDef::btree("r", vec![2])).unwrap();
    db.create_index(IndexDef::btree("s", vec![0])).unwrap();
    db.create_index(IndexDef::btree("s", vec![2])).unwrap();
    let template = TemplateBuilder::new("eqt")
        .relation(db.schema("r").unwrap())
        .relation(db.schema("s").unwrap())
        .join("r", "c", "s", "d")
        .unwrap()
        .select("r", "a")
        .unwrap()
        .select("s", "e")
        .unwrap()
        .cond_eq("r", "f")
        .unwrap()
        .cond_eq("s", "g")
        .unwrap()
        .build()
        .unwrap();
    EqtFixture { db, template }
}

/// The Eqt relations with two *bridge* relations spliced into the join:
/// `r ⋈ b1 ⋈ b2 ⋈ s` on `r.c = b1.x`, `b1.y = b2.y` and `b2.z = s.d`,
/// selecting `r.a` and `s.e` under equality conditions on `r.f` and
/// `s.g` (the Eqt template's slots, so [`eqt_query`] binds it). `b1` and
/// `b2` project no `Ls'` column: the delta-key index has nothing to key
/// their deletes on, and maintenance joins them. Each `r` row reaches
/// one `b1` row, each `b1` row two `b2` rows, each `b2` row two `s` rows
/// per `g`.
#[allow(dead_code)] // used by several, not all, test binaries
pub fn bridge_fixture() -> EqtFixture {
    let mut db = eqt_relations();
    let int = |name: &str| Column::new(name, ColumnType::Int);
    db.create_relation(Schema::new("b1", vec![int("x"), int("y")]))
        .unwrap();
    db.create_relation(Schema::new("b2", vec![int("y"), int("z")]))
        .unwrap();
    for a in 0..40i64 {
        db.insert("r", tuple![a, a % 8, a % 5]).unwrap();
    }
    for x in 0..8i64 {
        db.insert("b1", tuple![x, x % 4]).unwrap();
    }
    for y in 0..4i64 {
        db.insert("b2", tuple![y, y]).unwrap();
        db.insert("b2", tuple![y, (y + 1) % 4]).unwrap();
    }
    for d in 0..4i64 {
        for j in 0..6i64 {
            db.insert("s", tuple![d, 10 * d + j, j % 3]).unwrap();
        }
    }
    for (rel, col) in [
        ("r", 1),
        ("r", 2),
        ("b1", 0),
        ("b1", 1),
        ("b2", 0),
        ("b2", 1),
    ] {
        db.create_index(IndexDef::btree(rel, vec![col])).unwrap();
    }
    for col in [0, 2] {
        db.create_index(IndexDef::btree("s", vec![col])).unwrap();
    }
    let template = TemplateBuilder::new("bridge")
        .relation(db.schema("r").unwrap())
        .relation(db.schema("b1").unwrap())
        .relation(db.schema("b2").unwrap())
        .relation(db.schema("s").unwrap())
        .join("r", "c", "b1", "x")
        .unwrap()
        .join("b1", "y", "b2", "y")
        .unwrap()
        .join("b2", "z", "s", "d")
        .unwrap()
        .select("r", "a")
        .unwrap()
        .select("s", "e")
        .unwrap()
        .cond_eq("r", "f")
        .unwrap()
        .cond_eq("s", "g")
        .unwrap()
        .build()
        .unwrap();
    EqtFixture { db, template }
}

/// Bind an Eqt query over f-values and g-values.
pub fn eqt_query(
    template: &Arc<pmv::query::QueryTemplate>,
    fs: &[i64],
    gs: &[i64],
) -> QueryInstance {
    template
        .bind(vec![
            Condition::Equality(fs.iter().map(|&v| Value::Int(v)).collect()),
            Condition::Equality(gs.iter().map(|&v| Value::Int(v)).collect()),
        ])
        .unwrap()
}

/// Sorted user-layout results of plain execution.
#[allow(dead_code)] // used by several, not all, test binaries
pub fn oracle(db: &Database, q: &QueryInstance) -> Vec<Tuple> {
    let (rows, _) = pmv::query::execute(db, q).unwrap();
    let mut user: Vec<Tuple> = rows.iter().map(|t| q.template().user_tuple(t)).collect();
    user.sort();
    user
}

/// Commit one transaction through `edb`: `f` writes through it, and every
/// view in `views` is maintained before the new state publishes.
#[allow(dead_code)] // used by several, not all, test binaries
pub fn commit<T: Send + 'static>(
    edb: &EpochDb,
    views: &[&SharedPmv],
    f: impl FnOnce(&mut Transaction<'_>) -> pmv::query::Result<T> + Send + 'static,
) -> T {
    edb.commit(views, move |db| {
        let mut txn = Transaction::begin(db);
        let out = f(&mut txn)?;
        Ok((out, txn.commit()))
    })
    .unwrap()
}

/// Live row ids of `relation`, in heap order.
#[allow(dead_code)] // used by several, not all, test binaries
pub fn live_rows(db: &Database, relation: &str) -> Vec<RowId> {
    let handle = db.relation(relation).unwrap();
    let rows = handle.read().iter().map(|(r, _)| r).collect();
    rows
}
