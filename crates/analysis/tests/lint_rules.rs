//! Integration tests for the file-local lint rules, driven the way
//! `pmv-analyze` drives them — through `rules_ipa::analyze_tree`, whose
//! depth-0 pass they are — plus the acceptance criterion that the
//! repository itself carries no escape for any of them.

use std::path::{Path, PathBuf};

use pmv_analysis::lint::{lint_source, Level, LintReport, RULES};
use pmv_analysis::rules_ipa::{analyze_tree, AnalyzeReport};

fn lint_str(src: &str) -> LintReport {
    let mut report = LintReport::default();
    lint_source(Path::new("snippet.rs"), src, &mut report);
    report
}

/// One snippet analyzed as a one-file tree, as `pmv-analyze <file>` would.
fn analyze_str(name: &str, src: &str) -> AnalyzeReport {
    let file = std::env::temp_dir().join(format!("pmv-lint-{}-{name}.rs", std::process::id()));
    std::fs::write(&file, src).unwrap();
    let report = analyze_tree(std::slice::from_ref(&file)).unwrap();
    std::fs::remove_file(&file).ok();
    report
}

/// The repo's own `crates/` tree must analyze clean, and no file-local
/// rule may be escaped — real violations get fixed, not allow-listed
/// (ISSUE 3 acceptance criterion). The interprocedural escapes are
/// pinned by `corpus_ipa::repo_is_clean_ipa`.
#[test]
fn repo_is_clean_with_zero_allow_entries() {
    let crates_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..");
    let report = analyze_tree(&[crates_dir]).expect("analyze_tree over crates/");
    assert!(report.files_scanned > 50, "expected to scan the whole tree");
    assert!(!report.failed(true), "{:#?}", report.findings);
    let local: Vec<_> = report
        .allows_used
        .iter()
        .filter(|a| RULES.iter().any(|(rule, _)| *rule == a.rule))
        .collect();
    assert!(
        local.is_empty(),
        "repo must carry zero pmv::allow entries for file-local rules, found {local:?}"
    );
}

#[test]
fn all_shipped_rules_have_distinct_names() {
    let mut names: Vec<&str> = RULES.iter().map(|(n, _)| *n).collect();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), RULES.len());
}

#[test]
fn deny_warnings_promotes_warning_findings() {
    let report = analyze_str(
        "relaxed",
        "fn f(c: &AtomicU64) { c.load(Ordering::Relaxed); }\n",
    );
    assert_eq!(report.findings.len(), 1);
    assert_eq!(report.findings[0].level, Level::Warning);
    assert!(!report.failed(false), "warning alone must not fail");
    assert!(report.failed(true), "warning must fail under deny-warnings");
}

#[test]
fn error_findings_fail_without_deny_warnings() {
    let report = analyze_str(
        "guard",
        r#"
fn bad(db: &Database) {
    let mut store = self.shards[si].write();
    let (rows, _) = execute(db, &q).unwrap();
}
"#,
    );
    assert!(report.failed(false));
}

#[test]
fn the_real_revalidate_shape_passes() {
    // The two-phase shape `SharedPmv::revalidate` was refactored into:
    // snapshot keys under a read guard, run the executor guard-free,
    // then re-acquire the write guard for removal.
    let report = lint_str(
        r#"
fn revalidate(&self, db: &Database) {
    let keys: Vec<BcpKey> = {
        let store = shard.read();
        store.keys().cloned().collect()
    };
    let truths = bcp_truths(db, &inner.def, &keys).unwrap();
    let mut store = shard.write();
    for (bcp, mut budget) in truths {
        remove_stale(&mut store, &bcp, &mut budget);
    }
}
"#,
    );
    assert!(report.findings.is_empty(), "{:?}", report.findings);
}

#[test]
fn the_pre_refactor_revalidate_shape_is_flagged() {
    // The shape this PR removed: shard write guard held across the
    // executor-driven ground-truth reads.
    let report = lint_str(
        r#"
fn revalidate(&self, db: &Database) {
    let mut store = shard.write();
    let truths = bcp_truths(db, &inner.def, &keys).unwrap();
    let (rows, _) = execute(db, &q).unwrap();
    for (bcp, mut budget) in truths {
        remove_stale(&mut store, &bcp, &mut budget);
    }
}
"#,
    );
    assert!(report
        .findings
        .iter()
        .any(|f| f.rule == "write_guard_across_exec"));
}

#[test]
fn upquery_refill_counts_as_executor_work() {
    // A targeted upquery is a keyed executor run: refilling a drained
    // bcp while holding the shard write guard is the same hazard as a
    // full `execute` under the guard.
    let report = lint_str(
        r#"
fn refill_under_guard(&self, view: &DataView, qi: &QueryInstance) {
    let mut store = shard.write();
    let (rows, _) = upquery_fill(view, qi, budget).unwrap();
    for t in rows {
        store.push_arc(&bcp, t);
    }
}
"#,
    );
    assert!(
        report
            .findings
            .iter()
            .any(|f| f.rule == "write_guard_across_exec"),
        "{:?}",
        report.findings
    );
}
