//! Snapshot checkpoints: a full, RowId-preserving image of the
//! database plus everything the WAL does not carry.
//!
//! The WAL logs DML deltas only; DDL (schemas, index definitions),
//! registered view specs (template SQL, F/L/policy, dividers), and the
//! analyzed-statistics flag live here. A checkpoint is serialized from
//! a *pinned immutable* [`DbSnapshot`] — writers are never blocked —
//! into a temp file, fsynced, and atomically renamed into place, so a
//! crash mid-checkpoint leaves either the old checkpoint or the new
//! one, never a half-written hybrid.
//!
//! **RowId preservation.** Logged deltas name their victims by
//! [`RowId`], so recovery must rebuild the exact slot layout the log
//! was written against — an equal multiset of tuples is not enough.
//! Rows are therefore stored as `[rowid, [values…]]` pairs and loaded
//! with [`Database::apply_delta_exact`], which reconstructs interior
//! holes as free slots (trailing holes are immaterial: the log after
//! this checkpoint can only reference slots it re-creates).

use std::path::Path;

use pmv_index::{IndexDef, IndexShape};
use pmv_query::{Database, DbSnapshot};
use pmv_storage::{Column, ColumnType, Delta, RowId, Schema, Tuple, Value};
use serde_json::{Map as JsonMap, Value as Json};

use crate::dio;
use crate::{WalError, WalResult};
use pmv_faultinject::Site;

/// Checkpoint document format version.
pub const FORMAT_VERSION: u32 = 1;

/// A registered view's re-creation recipe, persisted alongside the
/// data. The WAL layer treats this as opaque configuration: the CLI (or
/// any other host) records what it needs to re-register the view after
/// recovery — template SQL, PMV shape, and the learned dividers per
/// condition slot (`None` for equality slots).
#[derive(Clone, Debug, PartialEq)]
pub struct ViewSpec {
    /// Template name (registration key).
    pub name: String,
    /// Template SQL text, re-parsed against the recovered catalog.
    pub sql: String,
    /// PMV F parameter (results per bcp).
    pub f: usize,
    /// PMV L parameter (cache capacity in bcps).
    pub l: usize,
    /// Replacement policy name (`clock` or `2q`).
    pub policy: String,
    /// Shard count (0 = implementation default).
    pub shards: usize,
    /// Divider points per condition slot; `None` for equality slots.
    pub dividers: Vec<Option<Vec<Value>>>,
}

/// Everything a checkpoint stores beyond the data pages.
#[derive(Clone, Debug, Default)]
pub struct CheckpointMeta {
    /// All commits with `lsn <= lsn` are reflected in the snapshot;
    /// recovery replays strictly greater LSNs.
    pub lsn: u64,
    /// The snapshot's database version (epoch), for diagnostics.
    pub epoch: u64,
    /// Whether `analyze` had been run (statistics are recomputed on
    /// load rather than serialized — they are derived state).
    pub analyzed: bool,
    /// Registered views to re-create after recovery.
    pub views: Vec<ViewSpec>,
}

fn err(msg: impl Into<String>) -> WalError {
    WalError::Checkpoint(msg.into())
}

/// Encode a tuple [`Value`] as its externally-tagged JSON form:
/// `"n"` for NULL, `{"i": …}` / `{"d": …}` / `{"s": …}` otherwise.
/// Non-finite doubles, which JSON cannot carry as numbers, are tagged
/// strings under `"d"`.
fn value_to_json(v: &Value) -> Json {
    let tagged = |tag: &str, inner: Json| obj(vec![(tag, inner)]);
    match v {
        Value::Null => Json::from("n"),
        Value::Int(i) => tagged("i", Json::from(*i)),
        Value::Double(d) if d.is_finite() => tagged("d", Json::from(*d)),
        Value::Double(d) if d.is_nan() => tagged("d", Json::from("nan")),
        Value::Double(d) if *d > 0.0 => tagged("d", Json::from("inf")),
        Value::Double(_) => tagged("d", Json::from("-inf")),
        Value::Str(s) => tagged("s", Json::from(s.to_string())),
    }
}

/// Decode a [`value_to_json`] encoding back into a [`Value`].
fn value_from_json(j: &Json) -> WalResult<Value> {
    if j.as_str() == Some("n") {
        return Ok(Value::Null);
    }
    let o = as_obj(j, "value")?;
    if let Some(i) = o.get("i") {
        return i
            .as_i64()
            .map(Value::Int)
            .ok_or_else(|| err(format!("invalid int encoding {j}")));
    }
    if let Some(d) = o.get("d") {
        if let Some(f) = d.as_f64() {
            return Ok(Value::Double(f));
        }
        return match d.as_str() {
            Some("nan") => Ok(Value::Double(f64::NAN)),
            Some("inf") => Ok(Value::Double(f64::INFINITY)),
            Some("-inf") => Ok(Value::Double(f64::NEG_INFINITY)),
            _ => Err(err(format!("invalid double encoding {j}"))),
        };
    }
    if let Some(s) = o.get("s") {
        return s
            .as_str()
            .map(Value::str)
            .ok_or_else(|| err(format!("invalid string encoding {j}")));
    }
    Err(err(format!("unknown value tag in {j}")))
}

fn ty_to_str(t: ColumnType) -> &'static str {
    match t {
        ColumnType::Int => "int",
        ColumnType::Double => "double",
        ColumnType::Str => "str",
    }
}

fn ty_from_str(s: &str) -> WalResult<ColumnType> {
    match s {
        "int" => Ok(ColumnType::Int),
        "double" => Ok(ColumnType::Double),
        "str" => Ok(ColumnType::Str),
        other => Err(err(format!("unknown column type '{other}'"))),
    }
}

fn obj(fields: Vec<(&str, Json)>) -> Json {
    let mut m = JsonMap::new();
    for (k, v) in fields {
        m.insert(k.to_string(), v);
    }
    Json::Object(m)
}

fn get<'a>(o: &'a JsonMap, key: &str, ctx: &str) -> WalResult<&'a Json> {
    o.get(key)
        .ok_or_else(|| err(format!("checkpoint {ctx} missing field '{key}'")))
}

fn get_str(o: &JsonMap, key: &str, ctx: &str) -> WalResult<String> {
    get(o, key, ctx)?
        .as_str()
        .map(str::to_owned)
        .ok_or_else(|| err(format!("checkpoint {ctx} field '{key}' must be a string")))
}

fn get_u64(o: &JsonMap, key: &str, ctx: &str) -> WalResult<u64> {
    get(o, key, ctx)?
        .as_u64()
        .ok_or_else(|| err(format!("checkpoint {ctx} field '{key}' must be an integer")))
}

fn get_arr<'a>(o: &'a JsonMap, key: &str, ctx: &str) -> WalResult<&'a Vec<Json>> {
    get(o, key, ctx)?
        .as_array()
        .ok_or_else(|| err(format!("checkpoint {ctx} field '{key}' must be an array")))
}

fn as_obj<'a>(j: &'a Json, ctx: &str) -> WalResult<&'a JsonMap> {
    j.as_object()
        .ok_or_else(|| err(format!("checkpoint {ctx} must be an object")))
}

/// Serialize a checkpoint document to JSON.
pub fn to_json(snap: &DbSnapshot, meta: &CheckpointMeta) -> WalResult<Json> {
    use pmv_query::DataView;
    let mut rel_docs = Vec::new();
    for name in snap.relation_names() {
        let rel = snap
            .relation_version(&name)
            .map_err(|e| err(format!("snapshot lost relation '{name}': {e}")))?;
        let columns: Vec<Json> = rel
            .schema()
            .columns()
            .iter()
            .map(|c| {
                obj(vec![
                    ("name", Json::from(c.name.clone())),
                    ("ty", Json::from(ty_to_str(c.ty))),
                ])
            })
            .collect();
        let rows: Vec<Json> = rel
            .iter()
            .map(|(row, t)| {
                Json::Array(vec![
                    Json::from(row.0 as i64),
                    Json::Array(t.values().iter().map(value_to_json).collect()),
                ])
            })
            .collect();
        rel_docs.push(obj(vec![
            ("name", Json::from(name)),
            ("columns", Json::Array(columns)),
            ("rows", Json::Array(rows)),
        ]));
    }
    let idx_docs: Vec<Json> = snap
        .index_defs()
        .iter()
        .map(|def| {
            obj(vec![
                ("relation", Json::from(def.relation.clone())),
                (
                    "columns",
                    Json::Array(def.columns.iter().map(|&c| Json::from(c)).collect()),
                ),
                (
                    "shape",
                    Json::from(match def.shape {
                        IndexShape::BTree => "btree",
                        IndexShape::Hash => "hash",
                    }),
                ),
            ])
        })
        .collect();
    let view_docs: Vec<Json> = meta
        .views
        .iter()
        .map(|v| {
            let dividers: Vec<Json> = v
                .dividers
                .iter()
                .map(|d| match d {
                    None => Json::Null,
                    Some(vals) => Json::Array(vals.iter().map(value_to_json).collect()),
                })
                .collect();
            obj(vec![
                ("name", Json::from(v.name.clone())),
                ("sql", Json::from(v.sql.clone())),
                ("f", Json::from(v.f)),
                ("l", Json::from(v.l)),
                ("policy", Json::from(v.policy.clone())),
                ("shards", Json::from(v.shards)),
                ("dividers", Json::Array(dividers)),
            ])
        })
        .collect();
    Ok(obj(vec![
        ("format_version", Json::from(FORMAT_VERSION as i64)),
        ("lsn", Json::from(meta.lsn)),
        ("epoch", Json::from(meta.epoch)),
        ("analyzed", Json::from(meta.analyzed)),
        ("relations", Json::Array(rel_docs)),
        ("indexes", Json::Array(idx_docs)),
        ("views", Json::Array(view_docs)),
    ]))
}

/// Write a checkpoint atomically: serialize into `<final>.tmp` (under
/// [`Site::CkptWrite`]), fsync, rename into place (under
/// [`Site::CkptRename`]), fsync the directory.
pub fn save(snap: &DbSnapshot, meta: &CheckpointMeta, final_path: &Path) -> WalResult<()> {
    let doc = to_json(snap, meta)?;
    let text = serde_json::to_string(&doc).map_err(|e| err(format!("serialize: {e}")))?;
    let tmp = final_path.with_extension("json.tmp");
    let mut file = dio::create(&tmp)?;
    dio::write_all(&mut file, Site::CkptWrite, text.as_bytes())?;
    dio::fsync(&file, Site::CkptWrite)?;
    drop(file);
    dio::rename(&tmp, final_path)?;
    if let Some(dir) = final_path.parent() {
        dio::fsync_dir(dir)?;
    }
    Ok(())
}

/// Parse a checkpoint document into a fresh [`Database`] (RowId layout
/// preserved, indexes rebuilt, statistics recomputed when `analyzed`)
/// plus its metadata.
pub fn load(path: &Path) -> WalResult<(Database, CheckpointMeta)> {
    let text = std::fs::read_to_string(path)?;
    let doc = serde_json::from_str(&text).map_err(|e| err(format!("parse: {e}")))?;
    let doc = as_obj(&doc, "document")?;
    let version = get_u64(doc, "format_version", "document")?;
    if version != FORMAT_VERSION as u64 {
        return Err(err(format!(
            "unsupported checkpoint format {version} (expected {FORMAT_VERSION})"
        )));
    }
    let mut meta = CheckpointMeta {
        lsn: get_u64(doc, "lsn", "document")?,
        epoch: get_u64(doc, "epoch", "document")?,
        analyzed: get(doc, "analyzed", "document")?.as_bool().unwrap_or(false),
        views: Vec::new(),
    };
    let mut db = Database::new();
    for rel in get_arr(doc, "relations", "document")? {
        let rel = as_obj(rel, "relation")?;
        let name = get_str(rel, "name", "relation")?;
        let columns = get_arr(rel, "columns", "relation")?
            .iter()
            .map(|c| {
                let c = as_obj(c, "column")?;
                Ok(Column::new(
                    &get_str(c, "name", "column")?,
                    ty_from_str(&get_str(c, "ty", "column")?)?,
                ))
            })
            .collect::<WalResult<Vec<_>>>()?;
        db.create_relation(Schema::new(name.clone(), columns))
            .map_err(|e| err(format!("create relation '{name}': {e}")))?;
        for row in get_arr(rel, "rows", "relation")? {
            let pair = row
                .as_array()
                .filter(|p| p.len() == 2)
                .ok_or_else(|| err("row must be a [rowid, values] pair"))?;
            let rowid = pair[0]
                .as_u64()
                .and_then(|v| u32::try_from(v).ok())
                .ok_or_else(|| err("rowid must be a u32"))?;
            let cells = pair[1]
                .as_array()
                .ok_or_else(|| err("row values must be an array"))?;
            let tuple = Tuple::new(
                cells
                    .iter()
                    .map(value_from_json)
                    .collect::<WalResult<Vec<_>>>()?,
            );
            db.apply_delta_exact(
                &name,
                &Delta::Insert {
                    row: RowId(rowid),
                    tuple,
                },
            )
            .map_err(|e| err(format!("restore row {rowid} of '{name}': {e}")))?;
        }
    }
    for idx in get_arr(doc, "indexes", "document")? {
        let idx = as_obj(idx, "index")?;
        let relation = get_str(idx, "relation", "index")?;
        let columns = get_arr(idx, "columns", "index")?
            .iter()
            .map(|c| {
                c.as_u64()
                    .map(|v| v as usize)
                    .ok_or_else(|| err("index column must be an integer"))
            })
            .collect::<WalResult<Vec<_>>>()?;
        let def = match get_str(idx, "shape", "index")?.as_str() {
            "btree" => IndexDef::btree(relation, columns),
            "hash" => IndexDef::hash(relation, columns),
            other => return Err(err(format!("unknown index shape '{other}'"))),
        };
        db.create_index(def)
            .map_err(|e| err(format!("rebuild index: {e}")))?;
    }
    for view in get_arr(doc, "views", "document")? {
        let v = as_obj(view, "view")?;
        let dividers = get_arr(v, "dividers", "view")?
            .iter()
            .map(|d| match d {
                Json::Null => Ok(None),
                Json::Array(vals) => Ok(Some(
                    vals.iter()
                        .map(value_from_json)
                        .collect::<WalResult<Vec<_>>>()?,
                )),
                _ => Err(err("divider entry must be null or an array")),
            })
            .collect::<WalResult<Vec<_>>>()?;
        meta.views.push(ViewSpec {
            name: get_str(v, "name", "view")?,
            sql: get_str(v, "sql", "view")?,
            f: get_u64(v, "f", "view")? as usize,
            l: get_u64(v, "l", "view")? as usize,
            policy: get_str(v, "policy", "view")?,
            shards: get_u64(v, "shards", "view")? as usize,
            dividers,
        });
    }
    if meta.analyzed {
        db.analyze()
            .map_err(|e| err(format!("recompute statistics: {e}")))?;
    }
    Ok((db, meta))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_roundtrip_including_null_and_non_finite_doubles() {
        for v in [
            Value::Null,
            Value::Int(-7),
            Value::Double(1.5),
            Value::Double(f64::INFINITY),
            Value::Double(f64::NEG_INFINITY),
            Value::str("it's"),
        ] {
            assert_eq!(value_from_json(&value_to_json(&v)).unwrap(), v);
        }
        let nan = value_from_json(&value_to_json(&Value::Double(f64::NAN))).unwrap();
        assert!(matches!(nan, Value::Double(d) if d.is_nan()));
        for bad in [r#"{"x":1}"#, r#"{"d":"big"}"#, "3"] {
            assert!(value_from_json(&serde_json::from_str(bad).unwrap()).is_err());
        }
    }
}
