//! `pmv-cli` — interactive shell for the PMV system.
//!
//! ```bash
//! cargo run --release -p pmv-cli              # interactive
//! cargo run --release -p pmv-cli script.pmv   # run a command script
//! cargo run --release -p pmv-cli -- --fault-plan 'seed=42;exec-row:error@0.01' script.pmv
//! cargo run --release -p pmv-cli -- --data-dir ./pmvdata    # durable: WAL + checkpoints
//! ```
//!
//! A session is a command shell over the library's host: one
//! `pmv_core::EpochDb`, which owns every view (see
//! [`pmv_cli::Session`]). Every query is `EpochDb::query` — it pins the
//! published copy-on-write snapshot through the per-thread pin cache and
//! reads the view's published table wait-free. Without `--data-dir` the host is
//! `EpochDb::new` (no WAL, no fsync, zero durability overhead). With it,
//! `EpochDb::open_durable` recovers the newest checkpoint plus the WAL
//! tail at startup, the checkpointed views are re-registered, and the
//! `checkpoint` command (`EpochDb::checkpoint`) persists the current
//! state.
//!
//! Exit codes (script mode): 0 success, 1 I/O, 2 usage, 3 storage error,
//! 4 query error, 5 PMV error, 6 durability error — see
//! [`pmv_cli::CliError`].

use std::io::{BufRead, Write};

use pmv_cli::{CliError, Session};

fn main() {
    let mut script_path: Option<String> = None;
    let mut fault_plan: Option<String> = None;
    let mut data_dir: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if let Some(dir) = arg.strip_prefix("--data-dir=") {
            data_dir = Some(dir.to_string());
        } else if arg == "--data-dir" {
            match args.next() {
                Some(dir) => data_dir = Some(dir),
                None => {
                    eprintln!("--data-dir needs a directory path");
                    std::process::exit(2);
                }
            }
        } else if let Some(spec) = arg.strip_prefix("--fault-plan=") {
            fault_plan = Some(spec.to_string());
        } else if arg == "--fault-plan" {
            match args.next() {
                Some(spec) => fault_plan = Some(spec),
                None => {
                    eprintln!("--fault-plan needs a spec, e.g. 'seed=42;exec-row:error@0.01'");
                    std::process::exit(2);
                }
            }
        } else if arg == "--snapshot-mode" || arg.starts_with("--snapshot-mode=") {
            eprintln!(
                "unknown flag '{arg}': --snapshot-mode was removed; every session serves \
                 pinned snapshots (what 'epoch' selected)"
            );
            std::process::exit(2);
        } else if arg.starts_with("--") {
            eprintln!("unknown flag '{arg}'");
            std::process::exit(2);
        } else {
            script_path = Some(arg);
        }
    }

    // Keep the guard alive for the whole process: the plan stays
    // installed until exit.
    let _fault_guard = fault_plan.map(|spec| {
        let plan = pmv_faultinject::FaultPlan::parse(&spec).unwrap_or_else(|e| {
            eprintln!("bad --fault-plan: {e}");
            std::process::exit(2);
        });
        eprintln!("fault injection active: {spec}");
        pmv_faultinject::install(std::sync::Arc::new(plan))
    });
    if _fault_guard.is_some() {
        // Injected panics are caught by the serving path; keep the
        // default hook from printing a backtrace for each one.
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .map(|s| s.starts_with(pmv_faultinject::PANIC_PREFIX))
                .or_else(|| {
                    info.payload()
                        .downcast_ref::<&str>()
                        .map(|s| s.starts_with(pmv_faultinject::PANIC_PREFIX))
                })
                .unwrap_or(false);
            if !injected {
                default(info);
            }
        }));
    }

    let mut session = match data_dir {
        Some(dir) => {
            let (session, banner) = Session::with_data_dir(std::path::Path::new(&dir))
                .unwrap_or_else(|e| {
                    eprintln!("error: {e}");
                    std::process::exit(e.exit_code());
                });
            eprintln!("{banner}");
            session
        }
        None => Session::new(),
    };

    if let Some(path) = script_path {
        // Script mode: run each line, echoing commands and output.
        let script = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            eprintln!("cannot read {path}: {e}");
            std::process::exit(1);
        });
        for line in script.lines() {
            if line.trim().is_empty() || line.trim_start().starts_with('#') {
                continue;
            }
            println!("pmv> {line}");
            match session.execute(line) {
                Ok(out) if out.is_empty() => {}
                Ok(out) => println!("{out}"),
                Err(CliError::Quit) => return,
                Err(e) => {
                    eprintln!("error: {e}");
                    std::process::exit(e.exit_code());
                }
            }
        }
        return;
    }

    println!("pmv-cli — Partial Materialized Views (type `help`)");
    let stdin = std::io::stdin();
    loop {
        print!("pmv> ");
        std::io::stdout().flush().ok();
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break, // EOF
            Ok(_) => {}
            Err(e) => {
                eprintln!("read error: {e}");
                break;
            }
        }
        match session.execute(&line) {
            Ok(out) if out.is_empty() => {}
            Ok(out) => println!("{out}"),
            Err(CliError::Quit) => break,
            Err(e) => println!("error: {e}"),
        }
    }
}
