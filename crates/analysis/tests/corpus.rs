//! Verifier corpus: one invalid template per diagnostic code
//! PMV001–PMV006 (each must be denied under the default policy), plus a
//! valid suite modelled on the repo's examples and bench templates
//! (each must verify clean).
//!
//! This is the ISSUE 3 acceptance criterion for the template verifier:
//! ≥6 invalid definitions rejected, while every template the repo
//! actually ships keeps registering.

use std::sync::Arc;

use pmv_analysis::{verify_parts, DiagCode, FilterSpec, VerifyOptions};
use pmv_cache::PolicyKind;
use pmv_core::{Discretizer, PmvConfig};
use pmv_query::{Interval, QueryTemplate, TemplateBuilder};
use pmv_storage::{Column, ColumnType, Schema, Value};

fn schema_r() -> Schema {
    Schema::new(
        "r",
        vec![
            Column::new("a", ColumnType::Int),
            Column::new("f", ColumnType::Int),
            Column::new("s", ColumnType::Str),
        ],
    )
}

fn schema_s() -> Schema {
    Schema::new(
        "s",
        vec![
            Column::new("d", ColumnType::Int),
            Column::new("e", ColumnType::Int),
        ],
    )
}

/// `SELECT r.a FROM r WHERE r.f IN <interval>` — the paper's
/// form-based-UI range template.
fn interval_template() -> Arc<QueryTemplate> {
    TemplateBuilder::new("range_f")
        .relation(schema_r())
        .select("r", "a")
        .unwrap()
        .cond_interval("r", "f")
        .unwrap()
        .build()
        .unwrap()
}

fn verify_default(t: &Arc<QueryTemplate>, d: &[Option<Discretizer>]) -> pmv_analysis::VerifyReport {
    verify_parts(t, d, &PmvConfig::default(), &VerifyOptions::default())
}

// ---------------------------------------------------------------------------
// Invalid corpus — one denial per code
// ---------------------------------------------------------------------------

#[test]
fn invalid_pmv001_interval_without_discretizer() {
    // `PartialViewDef::new` would reject this too; the verifier exists
    // so the mismatch is reported as a typed diagnostic pre-construction.
    let report = verify_default(&interval_template(), &[None]);
    assert!(report.denied(), "{report}");
    assert!(report.has(DiagCode::NonDiscretizablePredicate));
}

#[test]
fn invalid_pmv002_descending_dividers() {
    let d = Discretizer::from_raw(vec![Value::Int(20), Value::Int(10)]);
    let report = verify_default(&interval_template(), &[Some(d)]);
    assert!(report.denied(), "{report}");
    assert!(report.has(DiagCode::OverlappingBasicIntervals));
}

#[test]
fn invalid_pmv002_duplicate_dividers() {
    let d = Discretizer::from_raw(vec![Value::Int(10), Value::Int(10), Value::Int(30)]);
    let report = verify_default(&interval_template(), &[Some(d)]);
    assert!(report.denied(), "{report}");
    assert!(report.has(DiagCode::OverlappingBasicIntervals));
}

#[test]
fn invalid_pmv003_off_domain_divider() {
    // A string divider on the Int column `r.f`: every basic interval
    // boundary comparison is cross-type, so the grid has gaps.
    let d = Discretizer::from_raw(vec![Value::str("x")]);
    let report = verify_default(&interval_template(), &[Some(d)]);
    assert!(report.denied(), "{report}");
    assert!(report.has(DiagCode::GridGapOnDimension));
}

#[test]
fn invalid_pmv004_storage_bound_exceeded() {
    let d = vec![Some(Discretizer::int_grid(0, 100, 10))];
    // L=10_000 × F=4 × At(est.) comfortably exceeds a 1 KiB budget.
    let config = PmvConfig::new(4, 10_000, PolicyKind::Clock);
    let opts = VerifyOptions {
        byte_budget: Some(1024),
        ..Default::default()
    };
    let report = verify_parts(&interval_template(), &d, &config, &opts);
    assert!(report.denied(), "{report}");
    assert!(report.has(DiagCode::StorageBoundExceeded));
}

#[test]
fn invalid_pmv005_unsound_maintenance_filter() {
    let t = interval_template();
    let mut tampered = FilterSpec::for_template(&t);
    // Drop one keyed column from relation 0: deletes matching on that
    // column would slip past the filter, leaving stale view tuples.
    tampered.per_relation[0].0.pop();
    tampered.per_relation[0].1.pop();
    let opts = VerifyOptions {
        filter: Some(tampered),
        ..Default::default()
    };
    let d = vec![Some(Discretizer::int_grid(0, 100, 10))];
    let report = verify_parts(&t, &d, &PmvConfig::default(), &opts);
    assert!(report.denied(), "{report}");
    assert!(report.has(DiagCode::UnsoundMaintFilter));
}

#[test]
fn invalid_pmv006_fixed_pred_pins_condition_attr() {
    // `r.f = 5` in Cjoin while `r.f` is also the interval condition
    // attribute: every basic interval not containing 5 is dead weight.
    let t = TemplateBuilder::new("pinned")
        .relation(schema_r())
        .select("r", "a")
        .unwrap()
        .fixed("r", "f", 5i64)
        .unwrap()
        .cond_interval("r", "f")
        .unwrap()
        .build()
        .unwrap();
    let d = vec![Some(Discretizer::int_grid(0, 100, 10))];
    let report = verify_default(&t, &d);
    assert!(report.denied(), "{report}");
    assert!(report.has(DiagCode::DeadBcp));
}

/// Every code in the protocol is exercised by the corpus above.
#[test]
fn corpus_covers_all_codes() {
    let codes: Vec<&str> = DiagCode::ALL.iter().map(|c| c.code()).collect();
    assert_eq!(
        codes,
        ["PMV001", "PMV002", "PMV003", "PMV004", "PMV005", "PMV006"]
    );
}

// ---------------------------------------------------------------------------
// Valid suite — templates the repo actually ships must verify clean
// ---------------------------------------------------------------------------

fn assert_clean(report: &pmv_analysis::VerifyReport) {
    assert!(!report.denied(), "{report}");
    assert!(report.diagnostics.is_empty(), "{report}");
}

#[test]
fn valid_equality_template() {
    // The manager-test / example shape: equality condition, no
    // discretizer slot filled.
    let t = TemplateBuilder::new("by_f")
        .relation(schema_r())
        .select("r", "a")
        .unwrap()
        .cond_eq("r", "f")
        .unwrap()
        .build()
        .unwrap();
    assert_clean(&verify_default(&t, &[None]));
}

#[test]
fn valid_interval_template_with_int_grid() {
    let d = vec![Some(Discretizer::int_grid(0, 100, 64))];
    assert_clean(&verify_default(&interval_template(), &d));
}

#[test]
fn valid_interval_template_with_learned_dividers() {
    // Dividers learned from a workload trace are normalized by
    // construction (the PR 3 `learn_from_trace` satellite).
    let trace = vec![
        Interval::half_open(10i64, 20i64),
        Interval::open(15i64, 40i64),
        Interval::half_open(10i64, 20i64),
    ];
    let d = vec![Some(Discretizer::learn_from_trace(&trace, 8))];
    assert_clean(&verify_default(&interval_template(), &d));
}

#[test]
fn valid_join_template_with_fixed_pred() {
    // Bench-suite shape: two relations, join, a fixed pred on a
    // *non-condition* attribute, equality + interval conditions.
    let t = TemplateBuilder::new("join_rs")
        .relation(schema_r())
        .relation(schema_s())
        .join("r", "a", "s", "d")
        .unwrap()
        .fixed("r", "s", Value::str("live"))
        .unwrap()
        .select("r", "a")
        .unwrap()
        .select("s", "e")
        .unwrap()
        .cond_eq("r", "f")
        .unwrap()
        .cond_interval("s", "e")
        .unwrap()
        .build()
        .unwrap();
    let d = vec![None, Some(Discretizer::int_grid(0, 1000, 32))];
    assert_clean(&verify_default(&t, &d));
}

#[test]
fn json_rendering_is_well_formed_for_denials() {
    let report = verify_default(&interval_template(), &[None]);
    let json = pmv_analysis::sarif::verify_json(&report);
    assert_eq!(json["denied"], true);
    assert_eq!(json["diagnostics"][0]["code"], "PMV001");
    assert!(json["diagnostics"][0]["paper_section"].as_str().is_some());
}
