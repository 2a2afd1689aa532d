//! Corpus tests for the interprocedural analyzer: each rule must fire
//! on its minimal violating fixture and stay silent on the clean
//! variant, the real repo must analyze clean (with exactly the
//! documented escapes), and both binaries must distinguish "clean"
//! from "scanned nothing".

use std::path::PathBuf;
use std::process::Command;

use pmv_analysis::rules_ipa::analyze_tree;

fn corpus(rule: &str, kind: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/corpus/ipa")
        .join(rule)
        .join(kind)
}

/// The violating fixture yields ≥1 finding of `rule` and nothing else;
/// the clean fixture yields zero findings of any rule.
fn fires_and_clears(rule: &str) {
    let violate = analyze_tree(&[corpus(rule, "violate")]).unwrap();
    assert!(
        violate.findings.iter().any(|f| f.rule == rule),
        "{rule}: violating fixture produced no {rule} finding: {:?}",
        violate.findings
    );
    assert!(
        violate.findings.iter().all(|f| f.rule == rule),
        "{rule}: violating fixture tripped other rules: {:?}",
        violate.findings
    );
    let clean = analyze_tree(&[corpus(rule, "clean")]).unwrap();
    assert!(
        clean.findings.is_empty(),
        "{rule}: clean fixture is not clean: {:?}",
        clean.findings
    );
}

#[test]
fn write_guard_across_exec_interprocedural() {
    fires_and_clears("write_guard_across_exec");
}

#[test]
fn lock_in_catch_unwind_interprocedural() {
    fires_and_clears("lock_in_catch_unwind");
}

#[test]
fn lock_order_interprocedural() {
    fires_and_clears("lock_order");
}

#[test]
fn pin_reaches_blocking_lock_interprocedural() {
    fires_and_clears("pin_reaches_blocking_lock");
}

#[test]
fn dio_funnel_reach_interprocedural() {
    fires_and_clears("dio_funnel_reach");
}

#[test]
fn durable_before_visible_interprocedural() {
    fires_and_clears("durable_before_visible");
}

/// Whole-repo gate: zero unescaped findings, and exactly the escapes
/// the design documents — four fault-injection/publish sites in the
/// pin region (DESIGN.md §10: upquery refill and executor in
/// `serve::run_pinned_scratch`, the write-back fault point
/// `serve::run_pinned_fault`, and the shard-view publish in
/// `concurrent::Inner::run_pinned_write_shard`) and the checkpoint-durable
/// setup path (§16). A new escape anywhere must update this census.
#[test]
fn repo_is_clean_ipa() {
    let crates = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("crates");
    let report = analyze_tree(&[crates]).unwrap();
    assert!(
        report.findings.is_empty(),
        "repo has unescaped analyzer findings: {:#?}",
        report.findings
    );
    let pins = report
        .allows_used
        .iter()
        .filter(|a| a.rule == "pin_reaches_blocking_lock")
        .count();
    let durable = report
        .allows_used
        .iter()
        .filter(|a| a.rule == "durable_before_visible")
        .count();
    assert_eq!(
        (pins, durable, report.allows_used.len()),
        (4, 1, 5),
        "escape census drifted: {:?}",
        report.allows_used
    );
    assert!(report.fns_indexed > 500, "call graph looks truncated");
}

/// §16 statically confirmed: the group-commit winner (`combine`) passes
/// `durable_before_visible` *because of its shape*, not because the
/// rule never looks at it — the same scan indexes it and the rule fires
/// when the WAL append is absent (violate fixture above).
#[test]
fn combine_is_checked_not_skipped() {
    let core_src = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../core/src");
    let report = analyze_tree(&[core_src]).unwrap();
    let durable_findings: Vec<_> = report
        .findings
        .iter()
        .filter(|f| f.rule == "durable_before_visible")
        .collect();
    assert!(
        durable_findings.is_empty(),
        "combine / commit path fails §16: {durable_findings:?}"
    );
}

#[test]
fn binaries_exit_3_on_missing_or_empty_paths() {
    let empty = std::env::temp_dir().join(format!("pmv-empty-{}", std::process::id()));
    std::fs::create_dir_all(&empty).unwrap();
    let bin = env!("CARGO_BIN_EXE_pmv-analyze");
    let out = Command::new(bin)
        .arg("/nonexistent/pmv/path")
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(3), "{bin} on missing path");
    let out = Command::new(bin).arg(&empty).output().unwrap();
    assert_eq!(out.status.code(), Some(3), "{bin} on dir with no .rs files");
    std::fs::remove_dir_all(&empty).ok();
}

#[test]
fn analyze_emits_sarif_with_locations() {
    let out = Command::new(env!("CARGO_BIN_EXE_pmv-analyze"))
        .arg("--json")
        .arg(corpus("pin_reaches_blocking_lock", "violate"))
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(1),
        "violating fixture must fail the run"
    );
    let doc = String::from_utf8(out.stdout).unwrap();
    assert!(doc.contains("\"version\":\"2.1.0\""), "not SARIF: {doc}");
    assert!(doc.contains("\"ruleId\":\"pin_reaches_blocking_lock\""));
    assert!(doc.contains("\"startLine\""));
}

/// Baseline mode tolerates known debt but fails on new debt.
#[test]
fn baseline_diff_mode() {
    let dir = std::env::temp_dir().join(format!("pmv-base-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let baseline = dir.join("baseline.tsv");
    let violate = corpus("durable_before_visible", "violate");
    let bin = env!("CARGO_BIN_EXE_pmv-analyze");

    let out = Command::new(bin)
        .arg("--write-baseline")
        .arg(&baseline)
        .arg(&violate)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0), "--write-baseline must exit 0");
    let recorded = std::fs::read_to_string(&baseline).unwrap();
    assert!(recorded.contains("durable_before_visible"), "{recorded}");

    // Same tree against its own baseline: tolerated.
    let out = Command::new(bin)
        .arg("--baseline")
        .arg(&baseline)
        .arg(&violate)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0), "baselined debt must pass");

    // Empty baseline: the same findings now count as new debt.
    std::fs::write(&baseline, "").unwrap();
    let out = Command::new(bin)
        .arg("--baseline")
        .arg(&baseline)
        .arg(&violate)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "new debt must fail");
    std::fs::remove_dir_all(&dir).ok();
}
