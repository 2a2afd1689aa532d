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
