//! The repo benchmark. One invocation runs one workload:
//!
//! ```text
//! pmv-benchmark --workload read_hot --seed 7 --seconds 30 --trace 0
//! ```
//!
//! A run is: set-up (several times; `setup_s` is the median) → warm-up
//! trials, discarded → measured trials until `--seconds` have passed →
//! end-of-run checks. Every trial replays the same seeded op sequence
//! with fixed op counts against the same logical state; each metric's
//! run value is the median of its per-trial values. `--trace 1` turns
//! the program's observability on for every second trial, records spans
//! around each call into a layer, runs the cost ladder and prints the
//! per-layer metrics instead of the end-to-end ones; timed values then
//! come from the untraced half of the trials.
//!
//! The last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! The exit code is 0 only if every check passed.

mod fixture;
mod host;
mod ladder;
mod layers;
mod metrics;
mod ops;
mod report;
mod stats;
mod trace;
mod trial;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use pmv_core::{EpochDb, ObsRegistry};

use fixture::{population_fingerprint, survey, Fixture, SetupTimes, ShadowRow};
use layers::{counters, explained_shares, per_layer_of};
use report::{json_line, print_table, push, ratio, Series, Values};
use stats::{drift_pct, median, percentile_ns};
use trace::Tracer;
use trial::Trial;

/// Discarded trials before measuring. The first is the priming trial
/// that is part of every set-up.
const WARMUP_TRIALS: usize = 3;
/// Fewest measured trials (drift needs thirds).
const MIN_TRIALS: usize = 3;
/// Fewest trials for the state-drift check to mean anything.
const MIN_TRIALS_FOR_DRIFT: usize = 12;
/// Drift of a state gauge beyond this is a failed check: state grew.
const MAX_STATE_DRIFT_PCT: f64 = 10.0;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    /// Measure exactly this many trials instead of stopping on time;
    /// two runs of one seed then do identical work.
    trials: Option<usize>,
    out: PathBuf,
}

fn usage() -> String {
    format!(
        "usage: pmv-benchmark --workload <{}> --seed <n> --seconds <s> --trace <0|1> \
         [--trials <n>] [--smoke] [--out <dir>]",
        fixture::workload_names().join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 30.0,
        trace: false,
        smoke: false,
        trials: None,
        out: PathBuf::from("benchmark/out"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                }
            }
            "--out" => args.out = PathBuf::from(value()?),
            "--trials" => {
                args.trials = Some(value()?.parse().map_err(|e| format!("--trials: {e}"))?)
            }
            "--smoke" => args.smoke = true,
            // A typo must not silently run the default workload.
            other => return Err(format!("unknown argument '{other}'\n{}", usage())),
        }
    }
    if args.workload.is_empty() {
        return Err(usage());
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_string());
    }
    Ok(args)
}

/// The timed and counted user-visible values of one trial, as the wall
/// clock measured them. A percentile the trial's sample does not support
/// is left out: on `mixed_2t` the commit count is the writer's luck.
fn end_to_end_of(t: &mut Trial, series: &mut Series) {
    let mut pct = |name: &'static str, sample: &mut [u32], q: f64| match percentile_ns(sample, q) {
        Some(ns) => push(series, name, ns / 1e3),
        None => eprintln!("WARN: {name}: {} samples are too few", sample.len()),
    };
    pct("query_p50_us", &mut t.query_lat, 0.5);
    pct("query_p99_us", &mut t.query_lat, 0.99);
    pct("ttfr_p50_us", &mut t.ttfr, 0.5);
    pct("commit_p50_us", &mut t.commit_lat, 0.5);
    // Rates use the busy time of their own op class.
    let rate = |n: u64, busy_ns: u64| ratio(n as f64, busy_ns as f64 / 1e9);
    push(series, "query_qps", rate(t.queries, t.query_ns));
    push(series, "commit_tps", rate(t.commits, t.commit_ns));
    push(series, "hit_ratio", ratio(t.hits as f64, t.queries as f64));
}

/// Reopen the durable fixture's directory and compare the recovered
/// heap with the shadow at the acked LSN. Returns `(ok, recovery ms)`.
fn recovery_check(dir: &Path, shadow: &[ShadowRow], acked_lsn: Option<u64>) -> (bool, f64) {
    let t0 = Instant::now();
    let Ok((edb, _)) = EpochDb::open_durable(dir, Arc::new(ObsRegistry::new())) else {
        return (false, 0.0);
    };
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    let db = edb.read();
    let mut ok = edb.durable_lsn() == acked_lsn && db.len("lineitem").ok() == Some(shadow.len());
    for s in shadow {
        let int = |t: &pmv_storage::Tuple, i: usize| t.get(i).as_int();
        ok &= db.get("lineitem", s.row).is_ok_and(|t| {
            int(&t, 0) == Some(s.orderkey)
                && int(&t, 1) == Some(s.suppkey)
                && int(&t, 2) == Some(s.quantity)
                && int(&t, 3) == Some(s.extendedprice)
        });
    }
    (ok, ms)
}

fn run(args: &Args) -> Result<bool, String> {
    let spec = fixture::spec(&args.workload, args.smoke).ok_or(format!(
        "unknown workload '{}'\n{}",
        args.workload,
        usage()
    ))?;
    let threads = if spec.writer_thread { 2 } else { 1 };
    if threads > host::nproc() {
        return Err(format!(
            "{} needs {threads} CPUs, host has {}",
            spec.name,
            host::nproc()
        ));
    }
    let dir = args
        .out
        .join(format!("wal-{}-{}", spec.name, std::process::id()));
    let run_trial = if spec.writer_thread {
        trial::run_mixed
    } else {
        trial::run_single
    };
    println!(
        "workload {} seed {} seconds {} trace {} smoke {} | nproc {} | {}",
        spec.name,
        args.seed,
        args.seconds,
        args.trace as u8,
        args.smoke,
        host::nproc(),
        spec.why
    );

    // ---- set-up, several times over; the last one is kept ----
    let mut fx = Fixture::build(&spec, &dir)?;
    let (initial_shadow, universe) = survey(&fx.edb.pin(), spec.scale)?;
    let mut ops = ops::generate(&spec, &universe, &fx.template, args.seed)?;
    let mut shadow = initial_shadow.clone();
    let mut setups = Vec::new();
    loop {
        fx.set_obs(false);
        let t = Instant::now();
        let primed = run_trial(&fx, &ops, &mut shadow, None, 0);
        fx.times.prime_s = t.elapsed().as_secs_f64();
        if primed.failed != 0 {
            return Err(format!("{} failed ops while priming", primed.failed));
        }
        setups.push(fx.times);
        if setups.len() == spec.setups {
            break;
        }
        drop(fx);
        fx = Fixture::build(&spec, &dir)?;
        ops.bind(&fx.template)?;
        shadow.clone_from(&initial_shadow);
    }
    drop(initial_shadow);
    let fingerprint = population_fingerprint(&fx.edb.pin())?;
    for i in 1..WARMUP_TRIALS {
        run_trial(&fx, &ops, &mut shadow, None, i as u32);
    }

    // ---- measured trials ----
    let origin = Instant::now();
    // Room for every span of a traced run (40 B each), or none.
    let mut tracer = Tracer::new(origin, if args.trace { 1 << 19 } else { 0 });
    let mut e2e = Series::new();
    // Query rate of the traced trials, for the tracing overhead.
    let mut traced_qps = Vec::new();
    let mut layer = Series::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let steal0 = host::steal_ticks();
    let (cpu0, wait0) = host::thread_schedstat();
    let mut trials = 0usize;
    let more = |done: usize| match args.trials {
        Some(n) => done < n.max(MIN_TRIALS),
        None => done < MIN_TRIALS || origin.elapsed().as_secs_f64() < args.seconds,
    };
    while more(trials) {
        // A traced run alternates plain and traced trials, so the pair
        // gives the tracing overhead on one process and one state.
        let traced = args.trace && trials % 2 == 1;
        let before = counters(&fx);
        if traced {
            fx.pmv.obs().reset();
            fx.edb.obs().reset();
            fx.edb.reset_pipeline_obs();
        }
        fx.set_obs(traced);
        let no = (WARMUP_TRIALS + trials) as u32;
        let mut t = run_trial(&fx, &ops, &mut shadow, traced.then_some(&mut tracer), no);
        fx.set_obs(false);
        attempted += t.queries + t.commits + 1;
        failed += t.failed;
        if traced {
            per_layer_of(&fx, &t, &before, &mut layer);
            traced_qps.push(ratio(t.queries as f64, t.query_ns as f64 / 1e9));
        } else {
            end_to_end_of(&mut t, &mut e2e);
        }
        push(&mut e2e, "view_bytes", fx.pmv.byte_size() as f64);
        // Trial boundary: same cardinalities, same bcp populations.
        if population_fingerprint(&fx.edb.pin())? != fingerprint {
            failed += 1;
        }
        trials += 1;
    }
    let measured_s = origin.elapsed().as_secs_f64();
    let steal = host::steal_ticks() - steal0;
    let (cpu1, wait1) = host::thread_schedstat();

    // ---- run values ----
    let mut values = Values::new();
    for (name, s) in e2e.iter().chain(layer.iter()) {
        values.insert(name, median(s));
    }
    for name in [
        "query_p50_us",
        "query_p99_us",
        "ttfr_p50_us",
        "commit_p50_us",
    ] {
        if !values.contains_key(name) {
            return Err(format!("{name}: no trial had the samples for it"));
        }
    }
    // The view's size is a state, read at the end; its trial series
    // only feeds the drift gauge.
    values.insert("view_bytes", fx.pmv.byte_size() as f64);
    let setup_totals: Vec<f64> = setups.iter().map(|s| s.total_s()).collect();
    values.insert("setup_s", median(&setup_totals));
    let med = |f: fn(&SetupTimes) -> f64| median(&setups.iter().map(f).collect::<Vec<_>>());
    values.insert("index.build_s", med(|s| s.index_build_s));
    values.insert("wal.checkpoint_ms", med(|s| s.checkpoint_s * 1e3));
    values.insert("workload.gen_ns_per_op", ops.gen_ns_per_op);
    values.insert("query.bind_ns", ops.bind_ns);

    // On `mixed_2t` the view is still filling during the first few
    // measured trials (fills race the writer), so a run too short for
    // its first third to reach past them proves nothing about growth.
    let gauges: &[&str] = if args.smoke || trials < MIN_TRIALS_FOR_DRIFT {
        &[]
    } else {
        &["view_bytes", "core.store_entries"]
    };
    for gauge in gauges {
        let drift = e2e
            .get(gauge)
            .or(layer.get(gauge))
            .map_or(0.0, |s| drift_pct(s));
        if drift.abs() > MAX_STATE_DRIFT_PCT {
            eprintln!("FAIL: {gauge} drifted {drift:.1}% across the run: state is growing");
            failed += 1;
        }
    }
    for (name, s) in e2e.iter().filter(|_| !args.smoke) {
        let drift = drift_pct(s);
        if drift.abs() > MAX_STATE_DRIFT_PCT {
            eprintln!("WARN: {name} drifted {drift:.1}% (last third vs first third of trials)");
        }
    }

    if args.trace {
        let ladder = ladder::run(&fx, &spec, &universe, &ops, &shadow, &mut tracer)?;
        values.extend(ladder);
        let traced = median(&traced_qps);
        values.insert("obs.traced_query_qps", traced);
        let overhead = 1.0 - ratio(traced, values["query_qps"]);
        values.insert("obs.trace_overhead_pct", overhead * 100.0);
        let (q, c) = explained_shares(&spec, &values);
        values.insert("core.query_explained_share", q);
        values.insert("core.commit_explained_share", c);
    }

    // ---- end-of-run checks ----
    if population_fingerprint(&fx.edb.pin())? != fingerprint {
        failed += 1;
    }
    attempted += 1;
    if let Some(dir) = fx.dir.clone() {
        let acked = fx.edb.durable_lsn();
        drop(fx);
        let (ok, ms) = recovery_check(&dir, &shadow, acked);
        values.insert("wal.recovery_ms", ms);
        attempted += 1;
        if !ok {
            eprintln!("FAIL: recovered heap differs from the shadow at lsn {acked:?}");
            failed += 1;
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
    values.insert("peak_rss_mb", host::peak_rss_mb());

    // ---- report ----
    print_table("end to end", &metrics::END_TO_END, &values, &e2e);
    // User-visible metrics this host is too noisy to bound: every run
    // prints them, `BENCHMARK.json` lists them per layer.
    let (layered, demoted): (Vec<_>, Vec<_>) = metrics::PER_LAYER
        .into_iter()
        .partition(|(name, _)| name.contains('.'));
    print_table("end to end, not bounded", &demoted, &values, &e2e);
    if args.trace {
        print_table("per layer (traced trials)", &layered, &values, &layer);
        println!("--- span self-times ---");
        for (name, t) in trace::self_times(&tracer.spans) {
            println!(
                "{name:<40} calls {:>9} total_ms {:>12.3} self_ms {:>12.3}",
                t.count,
                t.total_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6
            );
        }
        let header = json_line(attempted, failed, &metrics::PER_LAYER, &values);
        let path = args.out.join(format!("{}.trace.json", spec.name));
        trace::write_file(&path, &header, &tracer.spans).map_err(|e| e.to_string())?;
        println!("trace: {} spans -> {}", tracer.spans.len(), path.display());
    }
    println!(
        "noise: trials {trials} measured_s {measured_s:.2} steal_ticks {steal} \
         runqueue_wait_pct {:.3} on_cpu_s {:.2}{}",
        ratio((wait1 - wait0) as f64, (cpu1 - cpu0 + wait1 - wait0) as f64) * 100.0,
        (cpu1 - cpu0) as f64 / 1e9,
        if args.smoke {
            " | SMOKE RUN: numbers are not comparable"
        } else {
            ""
        }
    );
    let list: &[(&str, &str)] = if args.trace {
        &metrics::PER_LAYER
    } else {
        &metrics::END_TO_END
    };
    println!("{}", json_line(attempted, failed, list, &values));
    Ok(failed == 0)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::from(2)
        }
    }
}
