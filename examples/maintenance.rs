//! PMV maintenance under base-relation changes (paper Section 3.4).
//!
//! Demonstrates all three arms:
//!   * inserts require **no** PMV work (the headline advantage),
//!   * deletes evict exactly the affected cached tuples via the ΔR join,
//!   * updates are ignored unless they touch attributes in Ls' or Cjoin.
//!
//! Also contrasts against a traditional materialized view, which must
//! join on *every* change — including inserts.
//!
//! ```bash
//! cargo run --release --example maintenance
//! ```

use pmv::core::TraditionalMv;
use pmv::index::IndexDef;
use pmv::prelude::*;
use pmv::query::Transaction;

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
    let mut order_rows = Vec::new();
    for i in 0..2_000i64 {
        order_rows.push(db.relation("orders")?.read().len());
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

    // Warm the PMV on the hot cell (day 3, sku 3).
    let q = template.bind(vec![
        Condition::Equality(vec![Value::Int(3)]),
        Condition::Equality(vec![Value::Int(3)]),
    ])?;
    pmv.run(&db, &q)?;
    println!(
        "after one query the PMV caches {} tuples",
        pmv.tuple_count()
    );

    // --- Insert: free for the PMV, a join for the MV. ---
    let mut txn = Transaction::begin(&mut db);
    txn.insert("orders", tuple![9_001i64, 3i64, "new"])?;
    txn.insert("items", tuple![9_001i64, 3i64, 9i64])?;
    let batches = txn.commit();
    for b in &batches {
        let out = pmv.maintain(&db, b)?;
        println!(
            "PMV maintenance for insert into {}: {} inserts ignored, {} joins",
            b.relation(),
            out.inserts_ignored,
            out.deletes_joined + out.updates_joined
        );
        mv.maintain(&db, b)?;
    }
    println!(
        "MV was forced to compute {} joins so far (PMV computed none for inserts)",
        mv.stats().joins_computed
    );

    // The PMV picks the new row up for free on the next query (c_j < F
    // refill), still serving old partial results immediately.
    let out = pmv.run(&db, &q)?;
    println!(
        "next query: {} early + {} late results, all exactly once = {}",
        out.partial.len(),
        out.remaining.len(),
        out.ds_leftover == 0
    );

    // --- Delete: the ΔR join evicts exactly the affected cache entries. ---
    let victim_row = db
        .relation("orders")?
        .read()
        .iter()
        .find(|(_, t)| t.get(1) == &Value::Int(3) && t.get(0) == &Value::Int(3))
        .map(|(r, _)| r)
        .expect("day-3 order exists");
    let mut txn = Transaction::begin(&mut db);
    txn.delete("orders", victim_row)?;
    let batches = txn.commit();
    let before = pmv.tuple_count();
    for b in &batches {
        let out = pmv.maintain(&db, b)?;
        println!(
            "PMV maintenance for delete: {} view tuples evicted (join produced {} rows)",
            out.view_tuples_removed, out.join_rows
        );
        mv.maintain(&db, b)?;
    }
    println!(
        "PMV tuples: {} -> {}; queries never see the deleted data:",
        before,
        pmv.tuple_count()
    );
    let out = pmv.run(&db, &q)?;
    println!(
        "  re-run: {} early + {} late, consistent = {}",
        out.partial.len(),
        out.remaining.len(),
        out.ds_leftover == 0
    );

    // --- Update: irrelevant attributes are ignored. ---
    let some_row = db
        .relation("orders")?
        .read()
        .iter()
        .find(|(_, t)| t.get(1) == &Value::Int(3))
        .map(|(r, t)| (r, t.clone()))
        .expect("day-3 order exists");
    let mut txn = Transaction::begin(&mut db);
    // `note` appears in neither Ls' nor Cjoin: no maintenance needed.
    let mut vals: Vec<Value> = some_row.1.values().to_vec();
    vals[2] = Value::str("touched");
    txn.update("orders", some_row.0, Tuple::new(vals))?;
    let batches = txn.commit();
    for b in &batches {
        let out = pmv.maintain(&db, b)?;
        println!(
            "PMV maintenance for note-only update: {} updates ignored, {} joined",
            out.updates_ignored, out.updates_joined
        );
    }

    println!("\nfinal PMV stats: {:?}", pmv.stats());
    println!("final MV maintenance stats: {:?}", mv.stats());
    Ok(())
}
