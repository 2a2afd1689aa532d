//! `pmv-analyze` — whole-program verification of the PMV lock/pin/
//! durability contracts over a source tree.
//!
//! ```text
//! pmv-analyze [--json] [--sarif FILE] [--deny-warnings] [paths…]
//! ```
//!
//! Checks every row of `pmv_analysis::contracts::CONTRACTS` — locks,
//! executor entry points and raw filesystem writes in or reachable from
//! the regions that forbid them, and the durable-before-visible publish
//! check. With no paths, analyzes `crates/` under the current directory.
//!
//! `--json` prints a SARIF 2.1.0 document to stdout; `--sarif FILE`
//! writes the same document to a file (CI uploads it as an artifact).
//!
//! Exit status: 0 clean, 1 findings fail the run, 2 usage or I/O
//! errors, 3 when a path does not exist or zero `.rs` files matched.

use std::path::PathBuf;
use std::process::ExitCode;

use pmv_analysis::contracts::{analyze_tree, AnalyzeReport, Level, CONTRACTS};
use pmv_analysis::sarif::{to_sarif, SarifResult, SarifRule};

fn main() -> ExitCode {
    let mut json = false;
    let mut deny_warnings = false;
    let mut sarif_out: Option<PathBuf> = None;
    let mut paths: Vec<PathBuf> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--deny-warnings" => deny_warnings = true,
            "--sarif" => match args.next() {
                Some(f) => sarif_out = Some(PathBuf::from(f)),
                None => {
                    eprintln!("pmv-analyze: --sarif requires a file argument");
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                println!("usage: pmv-analyze [--json] [--sarif FILE] [--deny-warnings] [paths...]");
                println!("whole-program verification of the PMV lock/pin/durability contracts");
                return ExitCode::SUCCESS;
            }
            other if other.starts_with('-') => {
                eprintln!("pmv-analyze: unknown flag `{other}`");
                return ExitCode::from(2);
            }
            other => paths.push(PathBuf::from(other)),
        }
    }
    if paths.is_empty() {
        paths.push(PathBuf::from("crates"));
    }
    for path in &paths {
        if !path.exists() {
            eprintln!("pmv-analyze: path does not exist: {}", path.display());
            return ExitCode::from(3);
        }
    }

    let report = match analyze_tree(&paths) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("pmv-analyze: {e}");
            return ExitCode::from(2);
        }
    };
    if report.files_scanned == 0 {
        eprintln!(
            "pmv-analyze: no .rs files found under {}",
            paths
                .iter()
                .map(|p| p.display().to_string())
                .collect::<Vec<_>>()
                .join(", ")
        );
        return ExitCode::from(3);
    }

    let sarif = render_sarif(&report);
    if let Some(path) = &sarif_out {
        if let Err(e) = std::fs::write(path, &sarif) {
            eprintln!("pmv-analyze: write sarif {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    if json {
        println!("{sarif}");
    } else {
        print_human(&report, deny_warnings);
    }

    if report.failed(deny_warnings) {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn print_human(report: &AnalyzeReport, deny_warnings: bool) {
    for f in &report.findings {
        println!("{f}");
    }
    for a in &report.allows_used {
        println!(
            "note: pmv::allow({}) in effect at {}:{}",
            a.rule,
            a.file.display(),
            a.line
        );
    }
    let errors = report
        .findings
        .iter()
        .filter(|f| f.level == Level::Error || deny_warnings)
        .count();
    let warnings = report.findings.len() - errors;
    println!(
        "pmv-analyze: {} file(s) scanned, {} fn(s) indexed, {} error(s), {} warning(s), \
         {} allow entrie(s)",
        report.files_scanned,
        report.fns_indexed,
        errors,
        warnings,
        report.allows_used.len()
    );
}

fn render_sarif(report: &AnalyzeReport) -> String {
    let rules: Vec<SarifRule> = CONTRACTS
        .iter()
        .map(|c| SarifRule {
            id: c.id.to_string(),
            short: c.short.to_string(),
        })
        .collect();
    let results: Vec<SarifResult> = report
        .findings
        .iter()
        .map(|f| SarifResult {
            rule_id: f.rule.to_string(),
            level: match f.level {
                Level::Error => "error",
                Level::Warning => "warning",
            },
            message: f.message.clone(),
            file: Some(f.file.display().to_string()),
            line: Some(f.line),
        })
        .collect();
    to_sarif("pmv-analyze", &rules, &results)
}
