//! Property test: the static verifier's verdict agrees with runtime
//! behaviour (ISSUE 3 satellite).
//!
//! For randomly generated divider lists (arbitrary order, duplicates
//! allowed — the raw material `Discretizer::from_raw` accepts
//! unchecked):
//!
//! - a **clean** verdict means the definition registers, serves interval
//!   queries through O1→O2→O3 without error, and passes the sharded
//!   store's `debug_validate` invariant check;
//! - a **denied** verdict means `EpochDb::register` rejects the
//!   definition *before* any store is built.
//!
//! Together these pin the verifier to the contract DESIGN.md §12 claims
//! for it: deny-by-default is not advisory, and clean is not vacuous.

use pmv_analysis::{verify_parts, VerifyOptions};
use pmv_cache::PolicyKind;
use pmv_core::{Discretizer, EpochDb, PartialViewDef, PmvConfig, SharedPmv};
use pmv_index::IndexDef;
use pmv_query::{Condition, Database, Interval, QueryTemplate, TemplateBuilder};
use pmv_storage::{tuple, Column, ColumnType, Schema, Value};
use proptest::collection::vec as prop_vec;
use proptest::prelude::*;
use std::sync::Arc;

fn setup_db() -> Database {
    let mut db = Database::new();
    db.create_relation(Schema::new(
        "r",
        vec![
            Column::new("a", ColumnType::Int),
            Column::new("f", ColumnType::Int),
        ],
    ))
    .unwrap();
    for i in 0..120i64 {
        db.insert("r", tuple![i, i % 40 - 20]).unwrap();
    }
    db.create_index(IndexDef::btree("r", vec![1])).unwrap();
    db
}

fn interval_template(db: &Database) -> Arc<QueryTemplate> {
    TemplateBuilder::new("range_f")
        .relation(db.schema("r").unwrap())
        .select("r", "a")
        .unwrap()
        .cond_interval("r", "f")
        .unwrap()
        .build()
        .unwrap()
}

/// One generated scenario: verify, then confirm the runtime does what
/// the verdict promised.
fn check_agreement(raw: Vec<i64>, lo: i64, width: i64) -> Result<(), TestCaseError> {
    let db = setup_db();
    let t = interval_template(&db);
    let edb = EpochDb::new(db);
    let dividers: Vec<Value> = raw.into_iter().map(Value::Int).collect();
    let d = Discretizer::from_raw(dividers);
    let config = PmvConfig::new(2, 16, PolicyKind::Clock);

    let report = verify_parts(&t, &[Some(d.clone())], &config, &VerifyOptions::default());
    let def = PartialViewDef::new("v", t.clone(), vec![Some(d)]).unwrap();

    let res = edb.register(def.clone(), config.clone(), None);

    if report.denied() {
        prop_assert!(
            res.is_err(),
            "verifier denied ({}) but register accepted",
            report.codes().join(",")
        );
        prop_assert!(
            edb.views().is_empty(),
            "denied def must not leave a view behind"
        );
        return Ok(());
    }

    if let Err(e) = res {
        return Err(TestCaseError::fail(format!(
            "verifier clean but register rejected: {e}"
        )));
    }
    let q = t
        .bind(vec![Condition::Intervals(vec![Interval::half_open(
            lo,
            lo + width,
        )])])
        .unwrap();
    // O1 decompose → O2 probe → O3 fill, twice so the second pass also
    // exercises the warm path.
    let view = edb.view_for(&t).expect("registered");
    for _ in 0..2 {
        let out = edb.query(&view, &q);
        prop_assert!(out.is_ok(), "clean def errored at runtime: {out:?}");
    }

    // Same definition through the sharded store, then invariant check.
    let shared = SharedPmv::with_shards(def, config, 4);
    let out = edb.query(&shared, &q);
    prop_assert!(out.is_ok(), "clean def errored in SharedPmv: {out:?}");
    shared.debug_validate();
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Raw (unsorted, duplicate-prone) divider lists: mostly denied by
    /// PMV002, occasionally clean when the draw happens to be sorted.
    #[test]
    fn raw_dividers_verdict_agrees_with_runtime(
        raw in prop_vec(-30i64..30, 1..7),
        lo in -40i64..40,
        width in 1i64..30,
    ) {
        check_agreement(raw, lo, width)?;
    }

    /// Normalized divider lists: must always be clean and must always
    /// work end to end.
    #[test]
    fn normalized_dividers_always_clean(
        raw in prop_vec(-30i64..30, 1..7),
        lo in -40i64..40,
        width in 1i64..30,
    ) {
        let mut sorted = raw;
        sorted.sort_unstable();
        sorted.dedup();
        let db = setup_db();
        let t = interval_template(&db);
        let d = Discretizer::from_raw(sorted.iter().copied().map(Value::Int).collect());
        prop_assert!(d.is_normalized());
        let report = verify_parts(
            &t,
            &[Some(d)],
            &PmvConfig::default(),
            &VerifyOptions::default(),
        );
        prop_assert!(!report.denied(), "normalized dividers denied: {report}");
        check_agreement(sorted, lo, width)?;
    }
}
