//! Quickstart: build a two-relation database, define a PMV for a query
//! template, and watch partial results arrive before the full answer.
//!
//! ```bash
//! cargo run --release --example quickstart
//! ```

use pmv::index::IndexDef;
use pmv::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A tiny database: products and their current promotions.
    let mut db = Database::new();
    db.create_relation(Schema::new(
        "products",
        vec![
            Column::new("product_id", ColumnType::Int),
            Column::new("category", ColumnType::Int),
            Column::new("name", ColumnType::Str),
        ],
    ))?;
    db.create_relation(Schema::new(
        "promotions",
        vec![
            Column::new("product_id", ColumnType::Int),
            Column::new("discount", ColumnType::Int),
            Column::new("store", ColumnType::Int),
        ],
    ))?;
    for pid in 0..1000i64 {
        db.insert("products", tuple![pid, pid % 10, format!("product-{pid}")])?;
        if pid % 3 == 0 {
            db.insert("promotions", tuple![pid, (pid % 5) * 10, pid % 7])?;
        }
    }
    // Indexes on every join/selection attribute, as the paper assumes.
    db.create_index(IndexDef::btree("products", vec![0]))?;
    db.create_index(IndexDef::btree("products", vec![1]))?;
    db.create_index(IndexDef::btree("promotions", vec![0]))?;
    db.create_index(IndexDef::btree("promotions", vec![2]))?;

    // 2. A query template (paper Section 2.1): "promoted products of
    //    certain categories in certain stores".
    let template = TemplateBuilder::new("promos_by_category_store")
        .relation(db.schema("products")?)
        .relation(db.schema("promotions")?)
        .join("products", "product_id", "promotions", "product_id")?
        .select("products", "name")?
        .select("promotions", "discount")?
        .cond_eq("products", "category")?
        .cond_eq("promotions", "store")?
        .build()?;

    // 3. A partial materialized view for the template: at most F = 2
    //    result tuples per basic condition part, 10K entries (the
    //    paper's ~1 MB example), CLOCK-managed.
    let def = PartialViewDef::all_equality("promo_pmv", template.clone())?;
    let pmv = SharedPmv::new(def, PmvConfig::default());
    // The host: every query pins its published snapshot, and every commit
    // maintains every view the host serves before publishing the next
    // one.
    let edb = EpochDb::new(db);

    // 4. First query for (category 3, store 2): the PMV is cold, so all
    //    results arrive through normal execution — and get cached.
    let q = template.bind(vec![
        Condition::Equality(vec![Value::Int(3)]),
        Condition::Equality(vec![Value::Int(2)]),
    ])?;
    let out = edb.query(&pmv, &q)?;
    println!(
        "cold query: {} partial + {} remaining results (overhead {:?})",
        out.partial.len(),
        out.remaining.len(),
        out.timings.overhead()
    );

    // 5. Same hot cell again: partial results are served from memory
    //    immediately, typically in microseconds.
    let out = edb.query(&pmv, &q)?;
    println!(
        "warm query: {} partial results in {:?} (then {} more after {:?} of execution)",
        out.partial.len(),
        out.timings.o2,
        out.remaining.len(),
        out.timings.exec
    );
    for t in &out.partial {
        println!("  early: {t}");
    }

    // 6. A wider query mixing the hot cell with cold ones still gets the
    //    hot partial results up front, each result exactly once.
    let wide = template.bind(vec![
        Condition::Equality(vec![Value::Int(3), Value::Int(4), Value::Int(5)]),
        Condition::Equality(vec![Value::Int(2), Value::Int(6)]),
    ])?;
    let out = edb.query(&pmv, &wide)?;
    println!(
        "wide query ({} condition parts): {} early, {} late, hit={}",
        out.parts,
        out.partial.len(),
        out.remaining.len(),
        out.bcp_hit
    );
    assert_eq!(out.ds_leftover, 0, "every result delivered exactly once");

    println!(
        "PMV now caches {} bcp entries / {} tuples ({} bytes)",
        pmv.entry_count(),
        pmv.tuple_count(),
        pmv.byte_size()
    );
    println!("stats: {:?}", pmv.stats());
    Ok(())
}
