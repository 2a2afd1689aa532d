//! The `pmv-cli` binary on a data directory: queries go through
//! `EpochDb::query`, so an armed flight recorder actually dumps, and a
//! second process on the same directory recovers the data and
//! re-attaches the checkpointed view.

use std::path::Path;
use std::process::{Command, Output};

const SETUP: &str = "\
load tpcr 0.001
template t1 SELECT * FROM orders, lineitem WHERE orders.orderkey = lineitem.orderkey \
AND orders.orderdate = ? AND lineitem.suppkey = ?
pmv t1 f=3 l=1000
query t1 [100] [1]
query t1 [100] [1]
checkpoint
";

const REOPEN: &str = "\
query t1 [100] [1]
stats
health
";

fn run_script(data_dir: &Path, name: &str, script: &str) -> Output {
    let path = data_dir.with_file_name(name);
    std::fs::write(&path, script).unwrap();
    Command::new(env!("CARGO_BIN_EXE_pmv-cli"))
        .env("PMV_FLIGHT_LATENCY_MS", "0")
        .arg("--data-dir")
        .arg(data_dir)
        .arg(&path)
        .output()
        .unwrap()
}

#[test]
fn durable_cli_session_spools_flight_dumps_and_reopens() {
    let root = std::env::temp_dir().join(format!("pmv-durable-cli-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).unwrap();
    let data_dir = root.join("data");

    let out = run_script(&data_dir, "setup.pmv", SETUP);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");

    // A zero latency threshold trips the recorder on every query; the
    // dumps must be on disk and parse back through `pmv-profile`.
    let profile = Command::new(env!("CARGO_BIN_EXE_pmv-profile"))
        .arg(data_dir.join("flight"))
        .output()
        .unwrap();
    let report = String::from_utf8_lossy(&profile.stdout);
    let stderr = String::from_utf8_lossy(&profile.stderr);
    assert_eq!(profile.status.code(), Some(0), "{stderr}");
    let dumps: u64 = report
        .lines()
        .find_map(|l| l.trim().strip_prefix("- ")?.split(" flight dump(s)").next())
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("no flight-dump note in:\n{report}"));
    assert!(dumps >= 1, "{report}");

    // Second process, same directory: recovery + view re-attach.
    let out = run_script(&data_dir, "reopen.pmv", REOPEN);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(stderr.contains("1 view(s) re-registered"), "{stderr}");
    assert!(stdout.contains("hit="), "{stdout}");
    assert!(stdout.contains("t1: 1 queries"), "{stdout}");

    let _ = std::fs::remove_dir_all(&root);
}
