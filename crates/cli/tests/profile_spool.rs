//! A real session's flight dumps parse back exactly, and `pmv-profile`
//! derives from them the report the live assembly derives from the same
//! views: two views, a commit with a delete, and a degraded query.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use pmv_cache::PolicyKind;
use pmv_core::{EpochDb, PartialViewDef, PmvConfig, SharedPmv};
use pmv_index::IndexDef;
use pmv_obs::profile::SPANNING_PHASES;
use pmv_obs::{FlightDump, FlightRecorder, ProfileReport, SpoolSink, ViewMetrics};
use pmv_query::{Condition, Database, TemplateBuilder, Transaction};
use pmv_storage::{tuple, Column, ColumnType, RowId, Schema, Value};
use pmv_wal::DiskSpool;

/// Spools through a [`DiskSpool`] and keeps what it was handed: the
/// metrics each view had at dump time.
struct Tee(DiskSpool, Arc<Mutex<Vec<FlightDump>>>);

impl SpoolSink for Tee {
    fn spool_dump(&self, dump: &FlightDump) -> std::io::Result<PathBuf> {
        self.1.lock().unwrap().push(dump.clone());
        self.0.spool_dump(dump)
    }
}

struct Session {
    edb: EpochDb,
    /// `pmv_t1`, and `pmv_t4` with a row budget that a three-value query
    /// exceeds.
    views: [SharedPmv; 2],
    dumps: Arc<Mutex<Vec<FlightDump>>>,
}

/// Every query trips a zero-threshold recorder; one commit deletes a
/// cached row; the last query on `pmv_t4` degrades.
fn run_session(dir: &Path) -> Session {
    let mut db = Database::new();
    let int = |name: &str| Column::new(name, ColumnType::Int);
    db.create_relation(Schema::new("p", vec![int("a"), int("f")]))
        .unwrap();
    for i in 0..32i64 {
        db.insert("p", tuple![i, i % 4]).unwrap();
    }
    db.create_index(IndexDef::btree("p", vec![1])).unwrap();
    let view = |template: &str, config: PmvConfig| {
        let template = TemplateBuilder::new(template)
            .relation(db.schema("p").unwrap())
            .select("p", "a")
            .unwrap()
            .cond_eq("p", "f")
            .unwrap()
            .build()
            .unwrap();
        let def =
            PartialViewDef::all_equality(format!("pmv_{}", template.name()), template).unwrap();
        SharedPmv::new(def, config)
    };
    let config = PmvConfig::new(8, 16, PolicyKind::Clock);
    let views = [
        view("t1", config.clone()),
        view("t4", config.with_row_budget(12)),
    ];
    let dumps = Arc::new(Mutex::new(Vec::new()));
    let spool = DiskSpool::open(dir, 1 << 20).unwrap();
    let fr = Arc::new(FlightRecorder::new(
        Box::new(Tee(spool, Arc::clone(&dumps))),
        64,
    ));
    fr.set_latency_threshold(Some(Duration::ZERO));
    for v in &views {
        v.attach_flight(Arc::clone(&fr));
    }
    let s = Session {
        edb: EpochDb::new(db),
        views,
        dumps,
    };
    for v in &s.views {
        s.query(v, &[0]);
    }
    s.edb
        .commit(&[&s.views[0], &s.views[1]], |db| {
            let mut txn = Transaction::begin(db);
            txn.delete("p", RowId(0))?;
            Ok(((), txn.commit()))
        })
        .unwrap();
    for v in &s.views {
        s.query(v, &[0]);
    }
    let degraded = s.query(&s.views[1], &[1, 2, 3]);
    assert!(degraded, "the row budget must degrade the wide query");
    s
}

impl Session {
    /// Query `view` for `f ∈ fs`; whether the outcome degraded.
    fn query(&self, view: &SharedPmv, fs: &[i64]) -> bool {
        let values = fs.iter().map(|&f| Value::Int(f)).collect();
        let q = (view.def().template())
            .bind(vec![Condition::Equality(values)])
            .unwrap();
        self.edb.query(view, &q).unwrap().degraded.is_some()
    }

    /// Each view's latest dump, by view name.
    fn latest_dumps(&self) -> Vec<FlightDump> {
        let mut dumps = self.dumps.lock().unwrap().clone();
        dumps.sort_by(|a, b| (&a.metrics.name, b.seq).cmp(&(&b.metrics.name, a.seq)));
        dumps.dedup_by(|later, first| later.metrics.name == first.metrics.name);
        dumps
    }
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pmv-profile-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn dumps_parse_back_and_pmv_profile_matches_the_live_report() {
    let dir = scratch("spool");
    let s = run_session(&dir);
    let latest = s.latest_dumps();
    assert_eq!(latest.len(), 2, "one dump per view at least");

    for dump in &latest {
        let path = dir.join(format!("flight-{:06}.json", dump.seq));
        let doc = serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap();
        let back = pmv_wal::telemetry::view_from_json(&doc["metrics"]).unwrap();
        for ((name, h), (_, parsed)) in dump.metrics.phases.iter().zip(&back.phases) {
            assert_eq!(h.buckets(), parsed.buckets(), "{name} bucket for bucket");
        }
        assert_eq!(back, dump.metrics);
    }

    let live: Vec<ViewMetrics> = latest.iter().map(|d| d.metrics.clone()).collect();
    let live = ProfileReport::from_views("live", &live);
    let offline = pmv_cli::profile::report_from_paths(std::slice::from_ref(&dir)).unwrap();
    assert_eq!(offline.contention, live.contention);
    assert_eq!(offline.templates, live.templates);
    assert_eq!(offline.pipeline, live.pipeline);
    assert_eq!(live.templates.len(), 2, "{:?}", live.templates);

    let profile = |json: bool| {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_pmv-profile"));
        if json {
            cmd.arg("--json");
        }
        let out = cmd.arg(&dir).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "json={json}: {stderr}");
        String::from_utf8(out.stdout).unwrap()
    };
    let human = profile(false);
    assert!(human.contains("flight dump(s)"), "{human}");
    assert!(human.contains("top contention site:"), "{human}");
    let printed: serde_json::Value = serde_json::from_str(&profile(true)).unwrap();
    let expected = pmv_cli::profile::profile_json(&live);
    for rows in ["contention", "templates", "pipeline"] {
        assert_eq!(printed[rows], expected[rows], "{rows}");
    }

    let _ = std::fs::remove_dir_all(&dir);
}

/// `maint_join`, `commit_drain` and `degraded` contain other phases, so
/// they take no share; the other stages' shares are their part of the
/// time those stages recorded, and sum to 100 %.
#[test]
fn stage_shares_count_no_time_twice() {
    let dir = scratch("shares");
    let s = run_session(&dir);
    let mut views: Vec<ViewMetrics> = s.views.iter().map(SharedPmv::metrics).collect();
    views.push(s.edb.metrics());
    let report = ProfileReport::from_views("live", &views);

    let stages: Vec<&str> = report.pipeline.iter().map(|s| s.stage.as_str()).collect();
    for spanning in ["maint_join", "commit_drain", "degraded", "full", "ttfr"] {
        assert!(stages.contains(&spanning), "{spanning} missing: {stages:?}");
    }
    let leaves: u64 = (report.pipeline.iter())
        .filter(|s| !SPANNING_PHASES.contains(&s.stage.as_str()))
        .map(|s| s.total_us)
        .sum();
    let mut sum = 0.0;
    for stage in &report.pipeline {
        if SPANNING_PHASES.contains(&stage.stage.as_str()) {
            assert_eq!(stage.share_pct, None, "{}", stage.stage);
        } else {
            let share = stage.share_pct.unwrap();
            assert_eq!(share, stage.total_us as f64 * 100.0 / leaves as f64);
            sum += share;
        }
    }
    assert!((sum - 100.0).abs() < 1e-9, "shares sum to {sum}");

    let _ = std::fs::remove_dir_all(&dir);
}
