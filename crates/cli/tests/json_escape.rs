//! Every hand-rolled JSON document goes through the one RFC 8259
//! escaper (`pmv_obs::json_escape`): a name holding a tab, a carriage
//! return and a raw control byte comes out as legal JSON and parses back
//! unchanged. The byte check matters — `shims/serde_json` accepts raw
//! control bytes inside strings, a conforming parser does not.

use pmv_cache::PolicyKind;
use pmv_core::{EpochDb, PartialViewDef, PmvConfig, SharedPmv};
use pmv_obs::{ProfileReport, TemplateCost};
use pmv_query::{Condition, Database, TemplateBuilder};
use pmv_storage::{tuple, Column, ColumnType, Schema, Value};
use serde_json::Value as Json;

const NAME: &str = "a\tb\r\u{1}";

fn parse_strict(doc: &str) -> Json {
    assert!(
        doc.bytes().all(|b| b >= 0x20),
        "raw control byte in JSON output: {doc:?}"
    );
    serde_json::from_str(doc).unwrap_or_else(|e| panic!("{e}: {doc}"))
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
    let view = SharedPmv::with_shards(def, PmvConfig::new(2, 8, PolicyKind::Clock), 1);
    let q = template
        .bind(vec![Condition::Equality(vec![Value::Int(2)])])
        .unwrap();
    EpochDb::new(db).query(&view, &q).unwrap();

    let metrics = parse_strict(&pmv_obs::to_json(&[view.metrics()]));
    let views = metrics.get("views").and_then(Json::as_array).unwrap();
    assert_eq!(views[0].get("name").and_then(Json::as_str), Some(NAME));

    let trace = parse_strict(&view.obs().trace().tail(1)[0].to_json());
    assert_eq!(trace.get("template").and_then(Json::as_str), Some(NAME));

    let cost: TemplateCost = view.template_cost();
    assert_eq!(cost.template, NAME);
    let report = ProfileReport {
        source: NAME.to_string(),
        templates: vec![cost],
        notes: vec![NAME.to_string()],
        ..Default::default()
    };
    let profile = parse_strict(&report.to_json());
    assert_eq!(profile.get("source").and_then(Json::as_str), Some(NAME));
    let templates = profile.get("templates").and_then(Json::as_array).unwrap();
    assert_eq!(
        templates[0].get("template").and_then(Json::as_str),
        Some(NAME)
    );
    let notes = profile.get("notes").and_then(Json::as_array).unwrap();
    assert_eq!(notes[0].as_str(), Some(NAME));
}
