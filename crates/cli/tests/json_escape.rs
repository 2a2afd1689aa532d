//! Every JSON document is a `serde_json::Value` printed by the shim's
//! writer: a name holding a tab, a carriage return and a raw control
//! byte comes out as legal JSON and parses back unchanged, in the
//! metrics document, a flight dump and its traces, the profile report,
//! the verifier's `analyze … json` and `analyze … sarif` documents, and
//! `pmv-analyze`'s SARIF. The byte check matters — `shims/serde_json`
//! accepts raw control bytes inside strings, a conforming parser does
//! not.

use std::sync::Arc;
use std::time::Duration;

use pmv_cache::PolicyKind;
use pmv_core::{EpochDb, PartialViewDef, PmvConfig, SharedPmv, VerifyOptions};
use pmv_obs::{FlightRecorder, ProfileReport};
use pmv_query::{Condition, Database, TemplateBuilder};
use pmv_storage::{tuple, Column, ColumnType, Schema, Value};
use pmv_wal::DiskSpool;
use serde_json::Value as Json;

const NAME: &str = "a\tb\r\u{1}";

fn parse_strict(doc: &str) -> Json {
    assert!(
        doc.bytes().all(|b| b >= 0x20),
        "raw control byte in JSON output: {doc:?}"
    );
    serde_json::from_str(doc).unwrap_or_else(|e| panic!("{e}: {doc}"))
}

fn scratch(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("pmv-hostile-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn hostile_names_render_as_legal_json_and_parse_back() {
    let mut db = Database::new();
    let int = |name: &str| Column::new(name, ColumnType::Int);
    db.create_relation(Schema::new("r", vec![int("a"), int("f")]))
        .unwrap();
    db.insert("r", tuple![1i64, 2i64]).unwrap();
    let template = TemplateBuilder::new(NAME)
        .relation(db.schema("r").unwrap())
        .select("r", "a")
        .unwrap()
        .cond_eq("r", "f")
        .unwrap()
        .build()
        .unwrap();
    let def = PartialViewDef::all_equality(NAME, template.clone()).unwrap();
    let view = SharedPmv::new(def, PmvConfig::new(2, 8, PolicyKind::Clock));
    let spool_dir = scratch("spool");
    let fr = Arc::new(FlightRecorder::new(
        Box::new(DiskSpool::open(&spool_dir, 1 << 20).unwrap()),
        1,
    ));
    fr.set_latency_threshold(Some(Duration::ZERO));
    view.attach_flight(fr);
    let q = template
        .bind(vec![Condition::Equality(vec![Value::Int(2)])])
        .unwrap();
    EpochDb::new(db).query(&view, &q).unwrap();

    let metrics = parse_strict(&pmv_wal::telemetry::metrics_json(&[view.metrics()]).to_string());
    assert_eq!(metrics["views"][0]["name"], NAME);
    assert_eq!(metrics["views"][0]["template"], NAME);

    let dump_path = std::fs::read_dir(&spool_dir).unwrap().next().unwrap();
    let dump = parse_strict(&std::fs::read_to_string(dump_path.unwrap().path()).unwrap());
    assert_eq!(dump["view"], NAME);
    assert_eq!(dump["metrics"]["name"], NAME);
    assert_eq!(dump["metrics"]["template"], NAME);
    assert_eq!(dump["traces"][0]["template"], NAME);

    let mut report = ProfileReport::from_views(NAME, &[view.metrics()]);
    report.notes.push(NAME.to_string());
    let profile = parse_strict(&pmv_cli::profile::profile_json(&report).to_string());
    assert_eq!(profile["source"], NAME);
    assert_eq!(profile["templates"][0]["template"], NAME);
    assert_eq!(profile["notes"][0], NAME);

    // One discretizer slot too many: PMV001 names the template.
    let report = pmv_core::verify_parts(
        &template,
        &[None, None],
        &PmvConfig::default(),
        &VerifyOptions::default(),
    );
    let named = |text: &Json| text.as_str().is_some_and(|t| t.contains(NAME));
    let json = parse_strict(&pmv_analysis::sarif::verify_json(&report).to_string());
    assert!(named(&json["diagnostics"][0]["message"]), "{json}");
    let sarif = parse_strict(&pmv_analysis::sarif::verifier_sarif(&report).to_string());
    assert!(named(&sarif["runs"][0]["results"][0]["message"]["text"]));

    let _ = std::fs::remove_dir_all(&spool_dir);
}

#[test]
fn pmv_analyze_sarif_carries_a_hostile_file_name() {
    let dir = scratch("analyze");
    let file = dir.join(format!("{NAME}.rs"));
    std::fs::write(
        &file,
        "fn fx_peek(c: &AtomicU64) {\n    c.load(Ordering::Relaxed);\n}\n",
    )
    .unwrap();
    let report = pmv_analysis::contracts::analyze_tree(std::slice::from_ref(&dir)).unwrap();
    let sarif = parse_strict(&pmv_analysis::sarif::analyzer_sarif(&report).to_string());
    let location = &sarif["runs"][0]["results"][0]["locations"][0]["physicalLocation"];
    assert_eq!(location["artifactLocation"]["uri"], file.to_str().unwrap());
    let _ = std::fs::remove_dir_all(&dir);
}
