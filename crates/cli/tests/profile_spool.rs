//! A real flight-recorder spool parses back through the `pmv-profile`
//! binary: the dump format `pmv_obs::spool::compose_dump` writes and the
//! one `pmv_cli::profile` reads are checked against each other end to end.

use std::process::Command;
use std::sync::Arc;
use std::time::Duration;

use pmv_cache::PolicyKind;
use pmv_core::{EpochDb, PartialViewDef, PmvConfig, SharedPmv};
use pmv_index::IndexDef;
use pmv_obs::FlightRecorder;
use pmv_query::{Condition, Database, TemplateBuilder, Transaction};
use pmv_storage::{tuple, Column, ColumnType, Schema, Value};
use pmv_wal::DiskSpool;

#[test]
fn flight_spool_round_trips_through_pmv_profile() {
    let dir = std::env::temp_dir().join(format!("pmv-profile-spool-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let mut db = Database::new();
    let int = |name: &str| Column::new(name, ColumnType::Int);
    db.create_relation(Schema::new("p", vec![int("a"), int("f")]))
        .unwrap();
    let rows: Vec<_> = (0..32i64)
        .map(|i| db.insert("p", tuple![i, i % 4]).unwrap().row())
        .collect();
    db.create_index(IndexDef::btree("p", vec![1])).unwrap();
    let template = TemplateBuilder::new("by_f")
        .relation(db.schema("p").unwrap())
        .select("p", "a")
        .unwrap()
        .cond_eq("p", "f")
        .unwrap()
        .build()
        .unwrap();
    let edb = EpochDb::new(db);
    let def = PartialViewDef::all_equality("spool_pmv", template.clone()).unwrap();
    let shared = SharedPmv::with_shards(def, PmvConfig::new(8, 16, PolicyKind::Clock), 4);

    // Zero threshold: every query trips the recorder until its dump
    // budget is spent.
    let spool = DiskSpool::open(&dir, 256 * 1024).unwrap();
    let fr = Arc::new(FlightRecorder::new(Box::new(spool), 4));
    fr.set_latency_threshold(Some(Duration::ZERO));
    shared.attach_flight(Arc::clone(&fr));

    let query = |f: i64| {
        let q = template
            .bind(vec![Condition::Equality(vec![Value::Int(f)])])
            .unwrap();
        edb.query(&shared, &q).unwrap();
    };
    // Fill a bcp, evict from it through maintenance, then query again so
    // a later dump carries both the fill and the maintenance lock sites.
    query(0);
    let victim = rows[0];
    edb.commit(&[&shared], move |db| {
        let mut txn = Transaction::begin(db);
        txn.delete("p", victim)?;
        Ok(((), txn.commit()))
    })
    .unwrap();
    query(0);
    query(1);
    assert!(fr.dumps_written() >= 1, "no dump was spooled");

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
    let parsed: serde_json::Value = serde_json::from_str(&profile(true)).unwrap();
    let sites = parsed.get("contention").and_then(|c| c.as_array()).unwrap();
    assert!(!sites.is_empty(), "{parsed}");

    let _ = std::fs::remove_dir_all(&dir);
}
