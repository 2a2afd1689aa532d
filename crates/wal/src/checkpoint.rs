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
//! Rows are therefore stored as `row:u32 packed` pairs and loaded with
//! [`Database::apply_delta_exact`], which reconstructs interior holes as
//! free slots. Each schema carries the relation's slot count, which the
//! loader reserves ([`Database::reserve_slots`], allocating nothing): the
//! log after the checkpoint may name a hole past the last row, and
//! replay ([`Database::replay_delta`]) refuses a row id past both the
//! next slot and the reserved count. A row at or past the slot count is
//! an error, so a row id damaged under a valid CRC cannot make the
//! loader allocate slots up to it.
//!
//! **Image format.** An image is a sequence of [`record`] frames — the
//! WAL's own length-prefixed, CRC-32 framing — every one stamped with
//! the checkpoint LSN. Payloads use [`codec`]'s `str` and `packed`
//! productions (little-endian throughout); a tuple or a divider list is
//! a row in [`pmv_storage::packed`]'s encoding, as in the WAL:
//!
//! ```text
//! image    := header rows* trailer                (one record frame each)
//! header   := 0x00 version:u32 epoch:u64 analyzed:u8
//!             rel_count:u32 schema* idx_count:u32 index* view_count:u32 view*
//! schema   := str(relation) heap_slots:u32 col_count:u32 (str(column) type:u8)*
//!                                                 (type: 0 int, 1 double, 2 str)
//! index    := str(relation) shape:u8 col_count:u32 column:u32*
//!                                                 (shape: 0 btree, 1 hash)
//! view     := str(name) str(sql) f:u64 l:u64 str(policy) shards:u64
//!             slot_count:u32 (0x00 | 0x01 packed)* (dividers; 0x00 = equality slot)
//! rows     := 0x01 str(relation) row_count:u32 (row:u32 packed)*
//! trailer  := 0x02 frame_count:u32 row_count:u64  (frames before the trailer)
//! ```
//!
//! `version` is [`FORMAT_VERSION`]. An image of another version is a
//! [`WalError::Format`], which recovery refuses the directory on; it is
//! never skipped as corrupt. A row frame holds at most
//! [`ROWS_PER_FRAME`] rows. [`load`] accepts only a whole image: a torn
//! or corrupt frame, a frame stamped with another LSN, a missing
//! trailer, counts that disagree with the frames read, or bytes after
//! the trailer are all errors.
//!
//! [`record`]: crate::record
//! [`codec`]: crate::codec

use std::collections::HashMap;
use std::path::Path;

use pmv_index::{IndexDef, IndexShape};
use pmv_query::{DataView, Database, DbSnapshot};
use pmv_storage::{packed, Column, ColumnType, Delta, RowId, Schema, Tuple, Value};

use crate::codec::{put_str, Cursor};
use crate::{dio, record};
use crate::{WalError, WalResult, FORMAT_VERSION};
use pmv_faultinject::Site;

/// Most rows one row frame carries.
pub const ROWS_PER_FRAME: usize = 1024;

const HEADER: u8 = 0x00;
const ROWS: u8 = 0x01;
const TRAILER: u8 = 0x02;

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
    /// Replacement policy, spelled the way the host parses it back
    /// (`clock` or `2q` in the CLI). The image stores the string as-is,
    /// so a name the host no longer knows fails the view's
    /// re-registration after recovery, not the checkpoint load.
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

fn put_u32(out: &mut Vec<u8>, n: usize) {
    out.extend_from_slice(&(n as u32).to_le_bytes());
}

fn expect_tag(c: &mut Cursor<'_>, tag: u8, what: &str) -> WalResult<()> {
    match c.u8()? {
        t if t == tag => Ok(()),
        t => Err(err(format!("expected a {what} frame, found tag {t:#x}"))),
    }
}

/// Append one frame holding `payload` to `out`, then clear `payload`.
fn push_frame(out: &mut Vec<u8>, lsn: u64, payload: &mut Vec<u8>) {
    out.extend_from_slice(&record::encode(lsn, payload));
    payload.clear();
}

/// Serialize a checkpoint image (see the module docs for the grammar).
/// Deterministic: the same snapshot and metadata always encode to the
/// same bytes.
pub fn encode(snap: &DbSnapshot, meta: &CheckpointMeta) -> WalResult<Vec<u8>> {
    let relations = snap
        .relation_names()
        .iter()
        .map(|name| {
            snap.relation_version(name)
                .map_err(|e| err(format!("snapshot lost relation '{name}': {e}")))
        })
        .collect::<WalResult<Vec<_>>>()?;

    let mut p = vec![HEADER];
    p.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    p.extend_from_slice(&meta.epoch.to_le_bytes());
    p.push(meta.analyzed as u8);
    put_u32(&mut p, relations.len());
    for rel in &relations {
        let columns = rel.schema().columns();
        put_str(&mut p, rel.name());
        put_u32(&mut p, rel.slot_count());
        put_u32(&mut p, columns.len());
        for c in columns {
            put_str(&mut p, &c.name);
            p.push(match c.ty {
                ColumnType::Int => 0,
                ColumnType::Double => 1,
                ColumnType::Str => 2,
            });
        }
    }
    let defs = snap.index_defs();
    put_u32(&mut p, defs.len());
    for def in &defs {
        put_str(&mut p, &def.relation);
        p.push(match def.shape {
            IndexShape::BTree => 0,
            IndexShape::Hash => 1,
        });
        put_u32(&mut p, def.columns.len());
        for &c in &def.columns {
            put_u32(&mut p, c);
        }
    }
    put_u32(&mut p, meta.views.len());
    for v in &meta.views {
        put_str(&mut p, &v.name);
        put_str(&mut p, &v.sql);
        p.extend_from_slice(&(v.f as u64).to_le_bytes());
        p.extend_from_slice(&(v.l as u64).to_le_bytes());
        put_str(&mut p, &v.policy);
        p.extend_from_slice(&(v.shards as u64).to_le_bytes());
        put_u32(&mut p, v.dividers.len());
        for d in &v.dividers {
            match d {
                None => p.push(0x00),
                Some(points) => {
                    p.push(0x01);
                    packed::put_row(&mut p, points);
                }
            }
        }
    }
    let mut out = Vec::new();
    push_frame(&mut out, meta.lsn, &mut p);

    let (mut frames, mut rows) = (1usize, 0u64);
    for rel in &relations {
        let live: Vec<_> = rel.iter().collect();
        for chunk in live.chunks(ROWS_PER_FRAME) {
            p.push(ROWS);
            put_str(&mut p, rel.name());
            put_u32(&mut p, chunk.len());
            for (row, t) in chunk {
                p.extend_from_slice(&row.0.to_le_bytes());
                packed::put_row(&mut p, t.values());
            }
            push_frame(&mut out, meta.lsn, &mut p);
            frames += 1;
            rows += chunk.len() as u64;
        }
    }
    p.push(TRAILER);
    put_u32(&mut p, frames);
    p.extend_from_slice(&rows.to_le_bytes());
    push_frame(&mut out, meta.lsn, &mut p);
    Ok(out)
}

/// Write a checkpoint atomically: encode the whole image, write it into
/// `<final>.tmp` (under [`Site::CkptWrite`]), fsync, rename into place
/// (under [`Site::CkptRename`]), fsync the directory.
pub fn save(snap: &DbSnapshot, meta: &CheckpointMeta, final_path: &Path) -> WalResult<()> {
    let image = encode(snap, meta)?;
    let tmp = final_path.with_extension("img.tmp");
    let mut file = dio::create(&tmp)?;
    dio::write_all(&mut file, Site::CkptWrite, &image)?;
    dio::fsync(&file, Site::CkptWrite)?;
    drop(file);
    dio::rename(&tmp, final_path)?;
    if let Some(dir) = final_path.parent() {
        dio::fsync_dir(dir)?;
    }
    Ok(())
}

/// Read and [`decode`] the checkpoint image at `path`.
pub fn load(path: &Path) -> WalResult<(Database, CheckpointMeta)> {
    decode(&std::fs::read(path)?).map_err(|e| match e {
        WalError::Format { kind, version, .. } => WalError::Format {
            path: path.to_path_buf(),
            kind,
            version,
        },
        e => e,
    })
}

/// Rebuild a fresh [`Database`] (RowId layout preserved, indexes
/// rebuilt, statistics recomputed when `analyzed`) plus its metadata
/// from a whole checkpoint image.
pub fn decode(image: &[u8]) -> WalResult<(Database, CheckpointMeta)> {
    let scan = record::scan(image);
    if scan.torn {
        let at = scan.clean_len;
        return Err(err(format!("torn or corrupt frame at byte {at}")));
    }
    let (header, rest) = scan
        .records
        .split_first()
        .ok_or_else(|| err("empty image"))?;
    let (trailer, row_frames) = rest.split_last().ok_or_else(|| err("missing trailer"))?;
    if let Some(f) = rest.iter().find(|f| f.lsn != header.lsn) {
        return Err(err(format!(
            "frame stamped lsn {} in a checkpoint at lsn {}",
            f.lsn, header.lsn
        )));
    }

    let mut c = Cursor::new(&header.payload);
    expect_tag(&mut c, HEADER, "header")?;
    let version = c.u32()?;
    if version != FORMAT_VERSION {
        return Err(WalError::Format {
            path: Default::default(),
            kind: "checkpoint",
            version,
        });
    }
    let mut meta = CheckpointMeta {
        lsn: header.lsn,
        epoch: c.u64()?,
        analyzed: match c.u8()? {
            0 => false,
            1 => true,
            b => return Err(err(format!("invalid analyzed flag {b:#x}"))),
        },
        views: Vec::new(),
    };
    let mut db = Database::new();
    let mut slots = HashMap::new();
    for _ in 0..c.count()? {
        let name = c.str()?;
        slots.insert(name.clone(), c.u32()?);
        let columns = (0..c.count()?)
            .map(|_| {
                let column = c.str()?;
                match c.u8()? {
                    0 => Ok(Column::new(column, ColumnType::Int)),
                    1 => Ok(Column::new(column, ColumnType::Double)),
                    2 => Ok(Column::new(column, ColumnType::Str)),
                    t => Err(err(format!("unknown column type {t:#x}"))),
                }
            })
            .collect::<WalResult<Vec<_>>>()?;
        for (i, column) in columns.iter().enumerate() {
            if columns[..i].iter().any(|c| c.name == column.name) {
                return Err(err(format!("column '{}' twice in '{name}'", column.name)));
            }
        }
        db.create_relation(Schema::new(name.clone(), columns))
            .and_then(|()| db.reserve_slots(&name, slots[&name]))
            .map_err(|e| err(format!("create relation '{name}': {e}")))?;
    }
    let defs = (0..c.count()?)
        .map(|_| {
            let relation = c.str()?;
            let shape = c.u8()?;
            let columns = (0..c.count()?)
                .map(|_| Ok(c.u32()? as usize))
                .collect::<WalResult<Vec<_>>>()?;
            match shape {
                0 => Ok(IndexDef::btree(relation, columns)),
                1 => Ok(IndexDef::hash(relation, columns)),
                s => Err(err(format!("unknown index shape {s:#x}"))),
            }
        })
        .collect::<WalResult<Vec<_>>>()?;
    for _ in 0..c.count()? {
        // Struct fields evaluate in the order written: the `view` order.
        meta.views.push(ViewSpec {
            name: c.str()?,
            sql: c.str()?,
            f: c.u64()? as usize,
            l: c.u64()? as usize,
            policy: c.str()?,
            shards: c.u64()? as usize,
            dividers: (0..c.count()?)
                .map(|_| match c.u8()? {
                    0x00 => Ok(None),
                    0x01 => Ok(Some(c.row()?)),
                    t => Err(err(format!("unknown divider tag {t:#x}"))),
                })
                .collect::<WalResult<_>>()?,
        });
    }
    c.finish("header")?;

    let mut rows = 0u64;
    for frame in row_frames {
        let mut c = Cursor::new(&frame.payload);
        expect_tag(&mut c, ROWS, "row")?;
        let relation = c.str()?;
        let bound = *slots
            .get(&relation)
            .ok_or_else(|| err(format!("rows of unknown relation '{relation}'")))?;
        for _ in 0..c.count()? {
            let row = RowId(c.u32()?);
            if row.0 >= bound {
                return Err(err(format!(
                    "row {} of '{relation}' is past its {bound} slots",
                    row.0
                )));
            }
            let tuple = Tuple::new(c.row()?);
            db.apply_delta_exact(&relation, &Delta::Insert { row, tuple })
                .map_err(|e| err(format!("restore row {} of '{relation}': {e}", row.0)))?;
            rows += 1;
        }
        c.finish("row frame")?;
    }
    let mut c = Cursor::new(&trailer.payload);
    expect_tag(&mut c, TRAILER, "trailer")?;
    let (want_frames, want_rows) = (c.u32()? as usize, c.u64()?);
    c.finish("trailer")?;
    if (want_frames, want_rows) != (1 + row_frames.len(), rows) {
        return Err(err(format!(
            "trailer expects {want_frames} frames and {want_rows} rows, image has {} and {rows}",
            1 + row_frames.len()
        )));
    }

    for def in defs {
        db.create_index(def)
            .map_err(|e| err(format!("rebuild index: {e}")))?;
    }
    if meta.analyzed {
        db.analyze()
            .map_err(|e| err(format!("recompute statistics: {e}")))?;
    }
    Ok((db, meta))
}
