//! PMV maintenance under base-relation changes (paper Section 3.4).
//!
//! Demonstrates all three arms:
//!   * inserts require **no** PMV work (the headline advantage),
//!   * deletes evict the affected cached tuples through the delta-key
//!     index on V_PM's attributes, with no ΔR join,
//!   * updates are ignored unless they touch attributes in Ls' or Cjoin.
//!
//! Also contrasts against a traditional materialized view, which must
//! join on *every* change — including inserts.
//!
//! ```bash
//! cargo run --release --example maintenance
//! ```

use pmv::core::{CoreError, TraditionalMv};
use pmv::index::IndexDef;
use pmv::prelude::*;
use pmv::storage::DeltaBatch;

/// Commit one transaction through `edb`, maintaining `pmv` before the new
/// state publishes, and hand back its delta batches for the MV baseline.
fn commit(
    edb: &EpochDb,
    pmv: &SharedPmv,
    f: impl FnOnce(&mut Transaction<'_>) -> pmv::query::Result<()>,
) -> Result<Vec<DeltaBatch>, CoreError> {
    edb.commit(&[pmv], |db| {
        let mut txn = Transaction::begin(db);
        f(&mut txn)?;
        let batches = txn.commit();
        Ok((batches.clone(), batches))
    })
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut db = Database::new();
    db.create_relation(Schema::new(
        "orders",
        vec![
            Column::new("okey", ColumnType::Int),
            Column::new("day", ColumnType::Int),
            Column::new("note", ColumnType::Str),
        ],
    ))?;
    db.create_relation(Schema::new(
        "items",
        vec![
            Column::new("okey", ColumnType::Int),
            Column::new("sku", ColumnType::Int),
            Column::new("qty", ColumnType::Int),
        ],
    ))?;
    for i in 0..2_000i64 {
        db.insert("orders", tuple![i, i % 30, "fresh"])?;
        db.insert("items", tuple![i, i % 50, 1 + i % 5])?;
    }
    db.create_index(IndexDef::btree("orders", vec![0]))?;
    db.create_index(IndexDef::btree("orders", vec![1]))?;
    db.create_index(IndexDef::btree("items", vec![0]))?;
    db.create_index(IndexDef::btree("items", vec![1]))?;

    let template = TemplateBuilder::new("orders_by_day_sku")
        .relation(db.schema("orders")?)
        .relation(db.schema("items")?)
        .join("orders", "okey", "items", "okey")?
        .select("orders", "okey")?
        .select("items", "qty")?
        .cond_eq("orders", "day")?
        .cond_eq("items", "sku")?
        .build()?;
    let def = PartialViewDef::all_equality("day_sku_pmv", template.clone())?;
    let pmv = SharedPmv::new(def, PmvConfig::default());
    // The MV baseline materializes the whole join.
    let mut mv = TraditionalMv::materialize(&db, template.clone())?;
    println!(
        "traditional MV holds {} rows ({} bytes); the PMV starts empty",
        mv.len(),
        mv.byte_size()
    );
    // From here on every query and every change goes through the host.
    let edb = EpochDb::new(db);

    // Warm the PMV on the hot cell (day 3, sku 3).
    let q = template.bind(vec![
        Condition::Equality(vec![Value::Int(3)]),
        Condition::Equality(vec![Value::Int(3)]),
    ])?;
    edb.query(&pmv, &q)?;
    println!(
        "after one query the PMV caches {} tuples",
        pmv.tuple_count()
    );

    // --- Insert: free for the PMV, a join for the MV. ---
    let batches = commit(&edb, &pmv, |txn| {
        txn.insert("orders", tuple![9_001i64, 3i64, "new"])?;
        txn.insert("items", tuple![9_001i64, 3i64, 9i64])?;
        Ok(())
    })?;
    let stats = pmv.stats();
    println!(
        "PMV maintenance for the inserts: {} inserts ignored, {} joins",
        stats.maint_inserts_ignored, stats.maint_coalesced_joins
    );
    for b in &batches {
        TraditionalMv::maintain(&mut mv, &edb.read(), b)?;
    }
    println!(
        "MV was forced to compute {} joins so far (PMV computed none for inserts)",
        mv.stats().joins_computed
    );

    // The PMV picks the new row up for free on the next query (c_j < F
    // refill), still serving old partial results immediately.
    let out = edb.query(&pmv, &q)?;
    println!(
        "next query: {} early + {} late results, all exactly once = {}",
        out.partial.len(),
        out.remaining.len(),
        out.ds_leftover == 0
    );
    assert_eq!(out.ds_leftover, 0);

    // --- Delete: the ΔR join evicts exactly the affected cache entries. ---
    let victim_row = edb
        .read()
        .relation("orders")?
        .iter()
        .find(|(_, t)| t.get(1) == &Value::Int(3) && t.get(0) == &Value::Int(3))
        .map(|(r, _)| r)
        .expect("day-3 order exists");
    let before = pmv.tuple_count();
    let batches = commit(&edb, &pmv, move |txn| {
        txn.delete("orders", victim_row).map(drop)
    })?;
    let stats = pmv.stats();
    println!(
        "PMV maintenance for the delete: {} view tuples evicted ({} through the delta-key index)",
        stats.maint_tuples_removed, stats.maint_index_removals
    );
    for b in &batches {
        TraditionalMv::maintain(&mut mv, &edb.read(), b)?;
    }
    println!(
        "PMV tuples: {} -> {}; queries never see the deleted data:",
        before,
        pmv.tuple_count()
    );
    let out = edb.query(&pmv, &q)?;
    println!(
        "  re-run: {} early + {} late, consistent = {}",
        out.partial.len(),
        out.remaining.len(),
        out.ds_leftover == 0
    );
    assert_eq!(out.ds_leftover, 0);

    // --- Update: irrelevant attributes are ignored. ---
    let some_row = edb
        .read()
        .relation("orders")?
        .iter()
        .find(|(_, t)| t.get(1) == &Value::Int(3))
        .map(|(r, t)| (r, t.clone()))
        .expect("day-3 order exists");
    // `note` appears in neither Ls' nor Cjoin: no maintenance needed.
    let mut vals: Vec<Value> = some_row.1.values().to_vec();
    vals[2] = Value::str("touched");
    commit(&edb, &pmv, move |txn| {
        txn.update("orders", some_row.0, Tuple::new(vals)).map(drop)
    })?;
    let stats = pmv.stats();
    println!(
        "PMV maintenance for note-only update: {} updates ignored, {} joined",
        stats.maint_updates_ignored, stats.maint_updates_joined
    );

    println!("\nfinal PMV stats: {:?}", pmv.stats());
    println!("final MV maintenance stats: {:?}", mv.stats());
    Ok(())
}
