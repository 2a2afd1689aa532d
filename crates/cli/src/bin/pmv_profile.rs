//! `pmv-profile` — offline profile reports from flight-recorder spools.
//!
//! ```text
//! pmv-profile [--json] <path>...
//! ```
//!
//! Each path is a flight-recorder spool directory (its `flight-*.json`
//! dumps are read in sequence order) or a single dump file. Each view's
//! latest dump parses back into its metrics, and the report is derived
//! from them exactly as the live `profile` command derives it:
//! contention sites by total lock wait, templates by serving +
//! maintenance cost, pipeline stages by total recorded time.
//!
//! Exit codes: 0 on a report, 1 when an input is unreadable or nothing
//! parses, 2 for usage errors.

use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: pmv-profile [--json] <spool-dir|dump.json>...";

fn main() -> ExitCode {
    let mut json = false;
    let mut paths: Vec<PathBuf> = Vec::new();
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--json" => json = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other if other.starts_with('-') => {
                eprintln!("unknown option '{other}'\n{USAGE}");
                return ExitCode::from(2);
            }
            other => paths.push(PathBuf::from(other)),
        }
    }
    if paths.is_empty() {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    }
    match pmv_cli::profile::report_from_paths(&paths) {
        Ok(report) => {
            if json {
                println!("{}", pmv_cli::profile::profile_json(&report));
            } else {
                print!("{}", report.render_human());
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("pmv-profile: {e}");
            ExitCode::from(1)
        }
    }
}
