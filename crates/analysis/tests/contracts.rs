//! The analyzer's one corpus and its one driver.
//!
//! `tests/corpus/<rule>/{clean,violate}` holds one source tree per
//! contract and verdict. The trees say what they expect themselves: a
//! line ending in `//~ <rule>` must produce exactly that finding, a
//! line carrying `pmv::allow(` must be counted as a used escape, and
//! nothing else may be reported. Every region contract has a violating
//! file whose offending site is *in* the region and one where it is a
//! call away. The real tree is the last fixture: it must be clean, with
//! exactly the documented escapes and declared pin regions.

use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::process::Command;

use pmv_analysis::contracts::{analyze_workspace, Level, CONTRACTS};
use pmv_analysis::graph::Workspace;

fn corpus(rule: &str, kind: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/corpus")
        .join(rule)
        .join(kind)
}

#[test]
fn every_contract_fires_and_clears_on_its_corpus() {
    let ids: BTreeSet<&str> = CONTRACTS.iter().map(|c| c.id).collect();
    assert_eq!(ids.len(), CONTRACTS.len(), "rule ids must be distinct");
    for row in &CONTRACTS {
        for kind in ["clean", "violate"] {
            let ws = Workspace::scan(&[corpus(row.id, kind)]).unwrap();
            let report = analyze_workspace(&ws);
            let (mut want, mut escapes) = (BTreeSet::new(), BTreeSet::new());
            for file in &ws.files {
                for (i, text) in file.source.lines().enumerate() {
                    if text.ends_with(&format!("//~ {}", row.id)) {
                        want.insert((file.path.clone(), i + 1));
                    }
                    if text.contains("pmv::allow(") {
                        escapes.insert((file.path.clone(), i + 1));
                    }
                }
            }
            assert_eq!(want.is_empty(), kind == "clean", "{}/{kind}", row.id);
            let got: BTreeSet<_> = report
                .findings
                .iter()
                .map(|f| {
                    assert_eq!((f.rule, f.level), (row.id, row.level), "{f}");
                    (f.file.clone(), f.line)
                })
                .collect();
            assert_eq!(got, want, "{}/{kind}: {:#?}", row.id, report.findings);
            let used: BTreeSet<_> = report
                .allows_used
                .iter()
                .map(|a| (a.file.clone(), a.line))
                .collect();
            assert_eq!(used, escapes, "{}/{kind}: escapes", row.id);
            // A warning alone fails the run only under --deny-warnings.
            let fails = kind == "violate";
            assert_eq!(report.failed(true), fails, "{}/{kind}", row.id);
            assert_eq!(
                report.failed(false),
                fails && row.level == Level::Error,
                "{}/{kind}",
                row.id
            );
        }
    }
}

/// Whole-repo gate: zero unescaped findings, and exactly the escapes
/// the design documents — four fault-injection/publish sites in the
/// pin region (DESIGN.md §10: upquery refill and executor in
/// `serve::query_with_scratch`, the write-back fault point
/// `serve::write_back_fault`, and the shard-view publish in
/// `concurrent::Inner::try_write_shard`) and the checkpoint-durable
/// setup path (§16); no other rule carries an escape — real violations
/// get fixed, not allow-listed. The declared pin regions are pinned
/// too: a dropped `// pmv::pin_region` would otherwise read as "clean".
#[test]
fn repo_is_clean() {
    let crates = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..");
    let ws = Workspace::scan(&[crates]).unwrap();
    let report = analyze_workspace(&ws);
    assert!(report.files_scanned > 50, "expected to scan the whole tree");
    assert!(report.fns_indexed > 500, "call graph looks truncated");
    assert!(!report.failed(true), "{:#?}", report.findings);

    let mut census: BTreeMap<&str, usize> = BTreeMap::new();
    for a in &report.allows_used {
        *census.entry(a.rule).or_default() += 1;
    }
    let documented = [
        ("durable_before_visible", 1),
        ("pin_reaches_blocking_lock", 4),
    ];
    assert_eq!(
        census,
        BTreeMap::from(documented),
        "escape census drifted: {:?}",
        report.allows_used
    );

    let mut regions: Vec<String> = (0..ws.fns.len())
        .filter(|&id| ws.fns[id].pin_region)
        .map(|id| format!("{}:{}", ws.files[ws.fns[id].file].stem, ws.fn_name(id)))
        .collect();
    regions.sort();
    assert_eq!(
        regions,
        [
            "concurrent:Inner::probe_shard",
            "concurrent:Inner::try_write_shard",
            "concurrent:SharedPmv::run_pinned",
            "serve:query",
            "serve:query_with_scratch",
            "serve:write_back",
            "serve:write_back_fault",
        ]
    );
    // §16 is confirmed because the group-commit winner has the shape,
    // not because the dominance check never looks at it.
    assert!(ws.fns.iter().any(|f| f.name == "combine" && !f.is_test));
}

#[test]
fn binary_exit_codes() {
    let empty = std::env::temp_dir().join(format!("pmv-empty-{}", std::process::id()));
    std::fs::create_dir_all(&empty).unwrap();
    let bin = env!("CARGO_BIN_EXE_pmv-analyze");
    let code = |args: &[&str]| Command::new(bin).args(args).output().unwrap().status.code();
    assert_eq!(code(&["/nonexistent/pmv/path"]), Some(3), "missing path");
    assert_eq!(code(&[empty.to_str().unwrap()]), Some(3), "no .rs files");
    assert_eq!(code(&["--baseline", "x"]), Some(2), "retired flag");
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
    assert_eq!(doc.matches("\"shortDescription\"").count(), CONTRACTS.len());
    assert!(doc.contains("\"ruleId\":\"pin_reaches_blocking_lock\""));
    assert!(doc.contains("\"startLine\""));
}
