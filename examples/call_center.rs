//! The paper's introduction scenario: a retailer's customer-service call
//! center.
//!
//! When a customer calls, the operator fetches the items related to the
//! customer's recent purchases and asks which of them are on sale with a
//! discount of at least p% (p depends on the customer's loyalty tier).
//! The operator needs *some* answers before the customer hangs up — i.e.
//! immediate, transactionally consistent partial results.
//!
//! The discount condition is **interval-form** with the loyalty tiers as
//! natural dividing values, exactly the paper's "form-based application"
//! case where the UI's from/to lists provide the discretization.
//!
//! ```bash
//! cargo run --release --example call_center
//! ```

use pmv::core::Discretizer;
use pmv::index::IndexDef;
use pmv::prelude::*;
use pmv::query::Interval;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut db = Database::new();
    // related(item, related_item): the "first relation" of the intro.
    db.create_relation(Schema::new(
        "related",
        vec![
            Column::new("item", ColumnType::Int),
            Column::new("related_item", ColumnType::Int),
        ],
    ))?;
    // rsale(item, discount): items currently on sale.
    db.create_relation(Schema::new(
        "rsale",
        vec![
            Column::new("item", ColumnType::Int),
            Column::new("discount", ColumnType::Int),
        ],
    ))?;
    for item in 0..5_000i64 {
        for k in 1..=3 {
            db.insert("related", tuple![item, (item * 13 + k * 101) % 5_000])?;
        }
        if item % 2 == 0 {
            db.insert("rsale", tuple![item, (item * 7) % 60])?;
        }
    }
    db.create_index(IndexDef::btree("related", vec![0]))?;
    db.create_index(IndexDef::btree("related", vec![1]))?;
    db.create_index(IndexDef::btree("rsale", vec![0]))?;
    db.create_index(IndexDef::btree("rsale", vec![1]))?;

    // Template Q: items related to a purchased item, on sale with a
    // discount of at least p%.
    let template = TemplateBuilder::new("call_center_offers")
        .relation(db.schema("related")?)
        .relation(db.schema("rsale")?)
        .join("related", "related_item", "rsale", "item")?
        .select("rsale", "item")?
        .select("rsale", "discount")?
        .cond_eq("related", "item")? // the purchased item(s)
        .cond_interval("rsale", "discount")? // ≥ p%, p by loyalty tier
        .build()?;

    // Loyalty tiers: gold sees ≥10%, silver ≥25%, bronze ≥40%. The tier
    // thresholds are the natural dividing values.
    let tiers = Discretizer::new(vec![Value::Int(10), Value::Int(25), Value::Int(40)]);
    let def = PartialViewDef::new("offers_pmv", template.clone(), vec![None, Some(tiers)])?;
    let pmv = SharedPmv::new(
        def,
        // 2Q: the better policy of §3.5.
        PmvConfig::new(3, 10_000, pmv::cache::PolicyKind::TwoQ),
    );
    let edb = EpochDb::new(db);

    // A popular purchase: item 42. Gold-tier offer query: discount ≥ 10.
    let offer_query = |purchased: Vec<i64>, min_discount: i64| {
        template.bind(vec![
            Condition::Equality(purchased.into_iter().map(Value::Int).collect()),
            Condition::Intervals(vec![Interval::above(min_discount, true)]),
        ])
    };

    // The morning rush: many calls about item 42 warm the PMV (2Q needs
    // two appearances before caching).
    for _ in 0..3 {
        edb.query(&pmv, &offer_query(vec![42], 10)?)?;
    }

    // The next caller: offers pop out of the PMV immediately.
    let out = edb.query(&pmv, &offer_query(vec![42], 10)?)?;
    println!(
        "caller about item 42 (gold): {} offers served in {:?}, {} more after execution ({:?})",
        out.partial.len(),
        out.timings.o2,
        out.remaining.len(),
        out.timings.exec,
    );
    for t in &out.partial {
        println!("  offer now: item {} at {}% off", t.get(0), t.get(1));
    }

    // A silver-tier caller who bought items 42 and 77: the hot item-42
    // cells still serve immediately even though 77 is cold.
    let out = edb.query(&pmv, &offer_query(vec![42, 77], 25)?)?;
    println!(
        "caller about items 42+77 (silver): {} early offers, {} late, {} condition parts",
        out.partial.len(),
        out.remaining.len(),
        out.parts
    );
    assert_eq!(out.ds_leftover, 0);

    println!(
        "\nhit probability so far: {:.0}% over {} calls",
        pmv.stats().hit_probability() * 100.0,
        pmv.stats().queries
    );
    Ok(())
}
