//! Defining PMV templates from SQL strings.
//!
//! The parser accepts the paper's template class directly: equi-joins
//! and fixed predicates in the WHERE clause, `col = ?` for
//! equality-form slots, `col BETWEEN ?` for interval-form slots.
//!
//! ```bash
//! cargo run --release --example sql_templates
//! ```

use pmv::core::Discretizer;
use pmv::index::IndexDef;
use pmv::prelude::*;
use pmv::query::{parse_template, Interval};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut db = Database::new();
    db.create_relation(Schema::new(
        "products",
        vec![
            Column::new("pid", ColumnType::Int),
            Column::new("category", ColumnType::Int),
            Column::new("price", ColumnType::Int),
        ],
    ))?;
    db.create_relation(Schema::new(
        "reviews",
        vec![
            Column::new("pid", ColumnType::Int),
            Column::new("stars", ColumnType::Int),
            Column::new("verified", ColumnType::Str),
        ],
    ))?;
    for pid in 0..3_000i64 {
        db.insert("products", tuple![pid, pid % 12, (pid * 17) % 500])?;
        for r in 0..2 {
            db.insert(
                "reviews",
                tuple![
                    pid,
                    1 + (pid + r) % 5,
                    if (pid + r) % 3 == 0 { "yes" } else { "no" }
                ],
            )?;
        }
    }
    db.create_index(IndexDef::btree("products", vec![0]))?;
    db.create_index(IndexDef::btree("products", vec![1]))?;
    db.create_index(IndexDef::btree("products", vec![2]))?;
    db.create_index(IndexDef::btree("reviews", vec![0]))?;

    // The template, straight from SQL. `?` slots become the PMV's
    // parameterized conditions.
    let template = parse_template(
        "verified_by_category_price",
        "SELECT products.pid, reviews.stars
         FROM products, reviews
         WHERE products.pid = reviews.pid
           AND reviews.verified = 'yes'     -- fixed predicate
           AND products.category = ?        -- equality-form slot
           AND products.price BETWEEN ?     -- interval-form slot",
        &db,
    )?;
    println!(
        "parsed template '{}': {} relations, {} joins, {} fixed preds, {} condition slots",
        template.name(),
        template.relations().len(),
        template.joins().len(),
        template.fixed_preds().len(),
        template.cond_count()
    );

    // Price bands as dividing values (a form UI's from/to list).
    let bands = Discretizer::new(vec![
        Value::Int(100),
        Value::Int(200),
        Value::Int(300),
        Value::Int(400),
    ]);
    let def = PartialViewDef::new("sql_pmv", template.clone(), vec![None, Some(bands)])?;
    let pmv = SharedPmv::new(def, PmvConfig::default());

    let q = template.bind(vec![
        Condition::Equality(vec![Value::Int(3)]),
        Condition::Intervals(vec![Interval::half_open(100i64, 300i64)]),
    ])?;
    // The executor's plan, EXPLAIN-style.
    println!("\nplan:\n{}", pmv::query::explain(&db, &q));

    let edb = EpochDb::new(db);
    edb.query(&pmv, &q)?; // warm
    let out = edb.query(&pmv, &q)?;
    println!(
        "warm run: {} rows immediately ({:?}), {} after execution ({:?})",
        out.partial.len(),
        out.timings.o2,
        out.remaining.len(),
        out.timings.exec
    );
    assert_eq!(out.ds_leftover, 0);
    Ok(())
}
