//! Property tests for the durability layer.
//!
//! 1. **Codec totality**: arbitrary delta batches — any value mix
//!    including NaN/±∞ doubles and unicode strings of 0–40 bytes, on
//!    both sides of `Str`'s 12-byte inline edge — round-trip through the
//!    WAL payload codec bit-exactly.
//! 2. **Committed-prefix recovery**: a real WAL built through
//!    [`Durability`], then *prefix-truncated at an arbitrary byte* or
//!    *corrupted at an arbitrary byte*, recovers to exactly the
//!    in-memory oracle at the surviving record count — never a torn
//!    record applied, never a trusted record dropped — and keeps
//!    accepting commits afterwards.
//! 3. **Checkpoint images**: random catalogs (every value shape, RowId
//!    holes, both index shapes, view specs with dividers) round-trip
//!    through `save` → `load` RowId for RowId, encode deterministically,
//!    and every strict prefix and every single-bit flip of an image is
//!    rejected.
//! 4. **Damage under a valid CRC**: the payload decoders (`pmv_storage::
//!    packed`'s checked decoder behind both) meet bytes a CRC would pass
//!    — every single-bit flip of a WAL payload, arbitrary bytes where a
//!    packed row should be, bit flips in an image's frames re-CRC'd —
//!    and return an error or a value, never panic. Every strict prefix of
//!    a payload is an error; whatever does decode encodes and decodes
//!    again to itself.

use std::path::PathBuf;

use pmv_index::IndexDef;
use pmv_query::{Database, DbSnapshot};
use pmv_storage::{Column, ColumnType, Delta, DeltaBatch, RowId, Schema, Tuple, Value};
use pmv_wal::{checkpoint, codec, record, CheckpointMeta, Durability, ViewSpec};
use proptest::prelude::*;

fn value_strategy() -> impl Strategy<Value = Value> {
    prop_oneof![
        1 => Just(Value::Null),
        3 => any::<i64>().prop_map(Value::Int),
        2 => any::<f64>().prop_map(Value::from),
        1 => Just(Value::from(f64::NAN)),
        3 => string_strategy().prop_map(Value::from),
    ]
}

/// Strings of 0–40 bytes mixing 1- to 4-byte characters, so both of
/// `Str`'s layouts (inline up to 12 bytes, heap beyond) and multibyte
/// characters across that edge reach the codec.
fn string_strategy() -> impl Strategy<Value = String> {
    // Short and long runs, so lengths cluster around the edge as well
    // as past it.
    prop_oneof!["[a_é€𝄞]{0,8}", "[a_é€𝄞]{0,20}"].prop_map(|s: String| {
        let mut end = s.len().min(40);
        while !s.is_char_boundary(end) {
            end -= 1;
        }
        s[..end].to_string()
    })
}

fn tuple_strategy() -> impl Strategy<Value = Tuple> {
    proptest::collection::vec(value_strategy(), 0..4).prop_map(Tuple::new)
}

fn delta_strategy() -> impl Strategy<Value = Delta> {
    prop_oneof![
        2 => (any::<u32>(), tuple_strategy()).prop_map(|(r, t)| Delta::Insert {
            row: RowId(r),
            tuple: t,
        }),
        1 => (any::<u32>(), tuple_strategy()).prop_map(|(r, t)| Delta::Delete {
            row: RowId(r),
            tuple: t,
        }),
        1 => (any::<u32>(), tuple_strategy(), tuple_strategy()).prop_map(|(r, old, new)| {
            Delta::Update {
                row: RowId(r),
                old,
                new,
            }
        }),
    ]
}

fn batch_strategy() -> impl Strategy<Value = DeltaBatch> {
    (
        "[a-z]{1,8}",
        proptest::collection::vec(delta_strategy(), 0..6),
    )
        .prop_map(|(relation, deltas)| {
            let mut b = DeltaBatch::new(relation);
            for d in deltas {
                b.push(d);
            }
            b
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn codec_roundtrips_arbitrary_batches(
        batches in proptest::collection::vec(batch_strategy(), 0..5)
    ) {
        let bytes = codec::encode_batches(&batches);
        let back = codec::decode_batches(&bytes).unwrap();
        prop_assert_eq!(back, batches);
    }

    #[test]
    fn record_stream_scan_recovers_exact_prefix(
        payload_sizes in proptest::collection::vec(0usize..64, 1..8),
        cut_frac in 0.0f64..1.0,
    ) {
        // Build a contiguous record stream, then cut it at an arbitrary
        // byte: scan must return exactly the records that fit wholly
        // before the cut.
        let mut bytes = Vec::new();
        let mut ends = Vec::new();
        for (i, sz) in payload_sizes.iter().enumerate() {
            let payload = vec![i as u8; *sz];
            bytes.extend_from_slice(&record::encode(i as u64 + 1, &payload));
            ends.push(bytes.len());
        }
        let cut = ((bytes.len() as f64) * cut_frac.abs().min(1.0)) as usize;
        let scan = record::scan(&bytes[..cut]);
        let expect = ends.iter().filter(|&&e| e <= cut).count();
        prop_assert_eq!(scan.records.len(), expect);
        prop_assert_eq!(scan.clean_len as usize, if expect == 0 { 0 } else { ends[expect - 1] });
        for (i, rec) in scan.records.iter().enumerate() {
            prop_assert_eq!(rec.lsn, i as u64 + 1);
            prop_assert_eq!(rec.payload.len(), payload_sizes[i]);
        }
    }
}

/// One insert of row 0 into `t` whose tuple is `row`, a packed row of
/// any bytes under a length that fits them.
fn payload_with_row(row: &[u8]) -> Vec<u8> {
    assert!(row.len() < 0x80, "a one-byte LEB128 length");
    let mut out = 1u32.to_le_bytes().to_vec();
    out.extend_from_slice(&1u32.to_le_bytes());
    out.push(b't');
    out.extend_from_slice(&1u32.to_le_bytes());
    out.push(0x00);
    out.extend_from_slice(&0u32.to_le_bytes());
    out.push(row.len() as u8);
    out.extend_from_slice(row);
    out
}

/// `image` with bit `bit` of frame `frame`'s payload flipped and that
/// frame's CRC recomputed, so the damage reaches the payload decoder.
fn reframed(image: &[u8], frame: usize, bit: usize) -> Vec<u8> {
    record::scan(image)
        .records
        .iter()
        .enumerate()
        .flat_map(|(i, r)| {
            let mut payload = r.payload.clone();
            if i == frame {
                payload[bit / 8] ^= 1 << (bit % 8);
            }
            record::encode(r.lsn, &payload)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn damaged_wal_payloads_error_or_decode_never_panic(
        batches in proptest::collection::vec(batch_strategy(), 0..4),
        noise in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let bytes = codec::encode_batches(&batches);
        for cut in 0..bytes.len() {
            prop_assert!(codec::decode_batches(&bytes[..cut]).is_err(), "prefix {} decoded", cut);
        }
        let mut damaged = bytes.clone();
        damaged.extend_from_slice(&noise);
        prop_assert_eq!(codec::decode_batches(&damaged).is_err(), !noise.is_empty());
        let mut damaged = bytes.clone();
        for bit in 0..bytes.len() * 8 {
            damaged[bit / 8] ^= 1 << (bit % 8);
            if let Ok(back) = codec::decode_batches(&damaged) {
                let again = codec::decode_batches(&codec::encode_batches(&back));
                prop_assert_eq!(again.unwrap(), back, "bit {}", bit);
            }
            damaged[bit / 8] ^= 1 << (bit % 8);
        }
        for payload in [noise.clone(), payload_with_row(&noise)] {
            if let Ok(back) = codec::decode_batches(&payload) {
                let again = codec::decode_batches(&codec::encode_batches(&back));
                prop_assert_eq!(again.unwrap(), back);
            }
        }
    }

    #[test]
    fn damaged_image_frames_error_or_decode_never_panic(
        rels in proptest::collection::vec(rel_strategy(), 0..4),
        views in proptest::collection::vec(view_strategy(), 0..3),
        flips in proptest::collection::vec((any::<u32>(), any::<u32>()), 16),
    ) {
        let snap = build_db(&rels, false).snapshot();
        let meta = CheckpointMeta { lsn: 1, views, ..CheckpointMeta::default() };
        let image = checkpoint::encode(&snap, &meta).unwrap();
        let frames = record::scan(&image).records;
        for (frame, bit) in flips {
            let frame = frame as usize % frames.len();
            let bit = bit as usize % (frames[frame].payload.len() * 8);
            if let Ok((db, meta)) = checkpoint::decode(&reframed(&image, frame, bit)) {
                let again = checkpoint::encode(&db.snapshot(), &meta).unwrap();
                prop_assert!(checkpoint::decode(&again).is_ok(), "frame {} bit {}", frame, bit);
            }
        }
    }
}

/// The end-to-end oracle harness: run `n_commits` single-insert commits
/// through a real `Durability`, damage the log with `damage`, reopen,
/// and assert the recovered database equals the oracle at exactly the
/// surviving record count (which `expected_survivors` computes from the
/// record layout).
fn run_damage_case(
    name: &str,
    n_commits: usize,
    damage: impl FnOnce(&mut Vec<u8>, &[usize]) -> usize,
) {
    let dir: PathBuf = std::env::temp_dir().join("pmv_prop_wal").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    let rec = Durability::open(&dir).unwrap();
    let mut db = rec.db;
    db.create_relation(Schema::new("t", vec![Column::new("v", ColumnType::Int)]))
        .unwrap();
    let snap = db.snapshot();
    rec.durability
        .checkpoint(
            &snap,
            &CheckpointMeta {
                lsn: 0,
                epoch: snap.epoch(),
                analyzed: false,
                views: Vec::new(),
            },
        )
        .unwrap();

    // `states[k]` = sorted heap content after k commits.
    let mut states: Vec<Vec<(u32, i64)>> = vec![Vec::new()];
    for i in 0..n_commits {
        let mut b = DeltaBatch::new("t");
        let delta = Delta::Insert {
            row: RowId(i as u32),
            tuple: Tuple::new(vec![Value::Int(i as i64 * 7)]),
        };
        b.push(delta.clone());
        rec.durability.append_commit(&[b]).unwrap();
        db.apply_delta_exact("t", &delta).unwrap();
        let mut s = states.last().unwrap().clone();
        s.push((i as u32, i as i64 * 7));
        states.push(s);
    }
    drop(rec.durability);

    // Locate the (single) active segment and damage it.
    let seg = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .find(|p| p.extension().is_some_and(|x| x == "log"))
        .unwrap();
    let mut bytes = std::fs::read(&seg).unwrap();
    let scan = record::scan(&bytes);
    assert_eq!(scan.records.len(), n_commits);
    let mut ends = Vec::new();
    let mut off = 0usize;
    for r in &scan.records {
        off += 16 + r.payload.len();
        ends.push(off);
    }
    let expected = damage(&mut bytes, &ends);
    std::fs::write(&seg, &bytes).unwrap();

    let rec2 = Durability::open(&dir).unwrap();
    let info = rec2.durability.recovery_info();
    assert_eq!(
        info.durable_lsn as usize, expected,
        "{name}: wrong surviving prefix"
    );
    let rel = rec2.db.relation("t").unwrap();
    let mut got: Vec<(u32, i64)> = rel
        .iter()
        .map(|(row, t)| match t.get(0) {
            Value::Int(v) => (row.0, *v),
            other => panic!("unexpected value {other:?}"),
        })
        .collect();
    got.sort_by_key(|(r, _)| *r);
    assert_eq!(got, states[expected], "{name}: heap != oracle prefix");

    // Recovery leaves a writable log.
    let mut b = DeltaBatch::new("t");
    b.push(Delta::Insert {
        row: RowId(1000),
        tuple: Tuple::new(vec![Value::Int(-1)]),
    });
    assert_eq!(
        rec2.durability.append_commit(&[b]).unwrap(),
        expected as u64 + 1
    );
    std::fs::remove_dir_all(&dir).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn truncated_log_recovers_committed_prefix(
        n in 1usize..12,
        frac in 0.0f64..1.0,
    ) {
        run_damage_case(&format!("trunc_{n}_{}", (frac * 1e6) as u64), n, |bytes, ends| {
            let cut = ((bytes.len() as f64) * frac) as usize;
            bytes.truncate(cut);
            ends.iter().filter(|&&e| e <= cut).count()
        });
    }

    #[test]
    fn corrupted_log_recovers_committed_prefix(
        n in 1usize..12,
        pos_frac in 0.0f64..1.0,
        mask in 1u8..255,
    ) {
        run_damage_case(
            &format!("corrupt_{n}_{}_{mask}", (pos_frac * 1e6) as u64),
            n,
            |bytes, ends| {
                let pos = (((bytes.len() - 1) as f64) * pos_frac) as usize;
                bytes[pos] ^= mask;
                // Records wholly before the corrupted byte survive; the
                // record containing it — and everything after — do not.
                ends.iter().filter(|&&e| e <= pos).count()
            },
        );
    }
}

fn int_strategy() -> impl Strategy<Value = i64> {
    prop_oneof![
        1 => Just(i64::MIN),
        1 => Just(i64::MAX),
        1 => Just(0i64),
        3 => any::<i64>(),
    ]
}

fn double_strategy() -> impl Strategy<Value = f64> {
    prop_oneof![
        1 => Just(f64::NAN),
        1 => Just(f64::INFINITY),
        1 => Just(f64::NEG_INFINITY),
        1 => Just(-0.0f64),
        3 => any::<f64>(),
    ]
}

/// Empty, ASCII and multi-byte strings.
const STR_PATTERN: &str = "[a-zé€π😀 ]{0,6}";

/// Raw material for one cell; [`cell`] picks the part its column's type
/// needs (the shim has no dependent strategies).
type CellSeed = (u8, i64, f64, String);

fn cell_strategy() -> impl Strategy<Value = CellSeed> {
    (0u8..6, int_strategy(), double_strategy(), STR_PATTERN)
}

fn cell(ty: ColumnType, (null, i, d, s): &CellSeed) -> Value {
    match ty {
        _ if *null == 0 => Value::Null,
        ColumnType::Int => Value::Int(*i),
        ColumnType::Double => Value::from(*d),
        ColumnType::Str => Value::str(s.as_str()),
    }
}

/// One relation: column types, rows as (slot gap, cells), and an
/// optional index (shape, column).
type RelSeed = (Vec<u8>, Vec<(u32, Vec<CellSeed>)>, Option<(bool, usize)>);

fn rel_strategy() -> impl Strategy<Value = RelSeed> {
    (
        proptest::collection::vec(0u8..3, 1..4),
        proptest::collection::vec(
            (
                prop_oneof![3 => Just(0u32), 1 => 1u32..4],
                proptest::collection::vec(cell_strategy(), 3),
            ),
            0..6,
        ),
        prop_oneof![
            1 => Just(None),
            2 => (any::<bool>(), 0usize..3).prop_map(Some),
        ],
    )
}

fn view_strategy() -> impl Strategy<Value = ViewSpec> {
    (
        (STR_PATTERN, STR_PATTERN, STR_PATTERN),
        (0usize..64, 0usize..1024, 0usize..8),
        proptest::collection::vec(
            prop_oneof![
                1 => Just(None),
                2 => proptest::collection::vec(value_strategy(), 0..4).prop_map(Some),
            ],
            0..3,
        ),
    )
        .prop_map(|((name, sql, policy), (f, l, shards), dividers)| ViewSpec {
            name,
            sql,
            f,
            l,
            policy,
            shards,
            dividers,
        })
}

/// Build the database a catalog seed describes. Gaps between row slots
/// become interior holes.
fn build_db(rels: &[RelSeed], analyzed: bool) -> Database {
    let mut db = Database::new();
    for (r, (types, rows, index)) in rels.iter().enumerate() {
        let types: Vec<ColumnType> = types
            .iter()
            .map(|t| [ColumnType::Int, ColumnType::Double, ColumnType::Str][*t as usize])
            .collect();
        let name = format!("r{r}");
        let columns = types
            .iter()
            .enumerate()
            .map(|(c, ty)| Column::new(format!("c{c}é"), *ty))
            .collect();
        db.create_relation(Schema::new(name.clone(), columns))
            .unwrap();
        let mut slot = 0u32;
        for (gap, cells) in rows {
            slot += gap;
            let tuple = Tuple::new(
                types
                    .iter()
                    .zip(cells)
                    .map(|(ty, seed)| cell(*ty, seed))
                    .collect::<Vec<_>>(),
            );
            db.apply_delta_exact(
                &name,
                &Delta::Insert {
                    row: RowId(slot),
                    tuple,
                },
            )
            .unwrap();
            slot += 1;
        }
        if let Some((hash, col)) = index {
            let cols = vec![col % types.len()];
            db.create_index(if *hash {
                IndexDef::hash(name.clone(), cols)
            } else {
                IndexDef::btree(name.clone(), cols)
            })
            .unwrap();
        }
    }
    if analyzed {
        db.analyze().unwrap();
    }
    db
}

/// Every relation's schema and rows, RowId for RowId.
fn contents(snap: &DbSnapshot) -> Vec<(Schema, Vec<(u32, Tuple)>)> {
    use pmv_query::DataView;
    snap.relation_names()
        .iter()
        .map(|name| {
            let rel = snap.relation_version(name).unwrap();
            let rows = rel.iter().map(|(row, t)| (row.0, t.clone())).collect();
            (rel.schema().clone(), rows)
        })
        .collect()
}

fn ckpt_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("pmv_prop_wal")
        .join(format!("{name}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn checkpoint_image_roundtrips_and_rejects_damage(
        rels in proptest::collection::vec(rel_strategy(), 0..4),
        analyzed in any::<bool>(),
        views in proptest::collection::vec(view_strategy(), 0..3),
        (lsn, epoch) in (any::<u64>(), any::<u64>()),
    ) {
        let db = build_db(&rels, analyzed);
        let snap = db.snapshot();
        let meta = CheckpointMeta { lsn, epoch, analyzed, views };
        let image = checkpoint::encode(&snap, &meta).unwrap();
        prop_assert_eq!(&checkpoint::encode(&snap, &meta).unwrap(), &image);

        let path = ckpt_dir("image").join("ckpt.img");
        checkpoint::save(&snap, &meta, &path).unwrap();
        prop_assert_eq!(&std::fs::read(&path).unwrap(), &image);
        let (back, back_meta) = checkpoint::load(&path).unwrap();
        let back_snap = back.snapshot();
        prop_assert_eq!(contents(&back_snap), contents(&snap));
        prop_assert_eq!(back_snap.index_defs(), snap.index_defs());
        prop_assert_eq!(back.table_stats().is_some(), analyzed);
        prop_assert_eq!((back_meta.lsn, back_meta.epoch, back_meta.analyzed), (lsn, epoch, analyzed));
        prop_assert_eq!(&back_meta.views, &meta.views);
        // Bit-exact, NaN payloads and -0.0 included: the loaded image
        // re-encodes to the same bytes.
        prop_assert_eq!(&checkpoint::encode(&back_snap, &back_meta).unwrap(), &image);

        for cut in 0..image.len() {
            prop_assert!(checkpoint::decode(&image[..cut]).is_err(), "prefix {cut} loaded");
        }
        let mut flipped = image.clone();
        for bit in 0..image.len() * 8 {
            flipped[bit / 8] ^= 1 << (bit % 8);
            prop_assert!(checkpoint::decode(&flipped).is_err(), "bit {bit} flip loaded");
            flipped[bit / 8] ^= 1 << (bit % 8);
        }
    }
}

/// A relation larger than one row frame splits across frames; the image
/// still round-trips, and cutting it at any frame boundary (a whole,
/// valid frame sequence without its trailer) is rejected.
#[test]
fn multi_frame_image_roundtrips_and_needs_its_trailer() {
    let n = checkpoint::ROWS_PER_FRAME * 2 + 7;
    let mut db = Database::new();
    db.create_relation(Schema::new(
        "big",
        vec![
            Column::new("k", ColumnType::Int),
            Column::new("s", ColumnType::Str),
        ],
    ))
    .unwrap();
    for i in 0..n {
        db.insert(
            "big",
            Tuple::new(vec![Value::Int(i as i64), Value::str("v")]),
        )
        .unwrap();
    }
    db.delete("big", RowId(5)).unwrap();
    let snap = db.snapshot();
    let meta = CheckpointMeta {
        lsn: 3,
        ..CheckpointMeta::default()
    };
    let image = checkpoint::encode(&snap, &meta).unwrap();
    let (back, _) = checkpoint::decode(&image).unwrap();
    assert_eq!(contents(&back.snapshot()), contents(&snap));

    let scan = record::scan(&image);
    assert_eq!(
        scan.records.len(),
        1 + 3 + 1,
        "header, three row frames, trailer"
    );
    let mut end = 0;
    for frame in &scan.records {
        end += 16 + frame.payload.len();
        if end < image.len() {
            assert!(checkpoint::decode(&image[..end]).is_err(), "cut at {end}");
        }
    }
    // Frames restamped with another LSN are rejected too.
    let mut restamped = Vec::new();
    for (i, frame) in scan.records.iter().enumerate() {
        let lsn = if i == 2 { 4 } else { 3 };
        restamped.extend_from_slice(&record::encode(lsn, &frame.payload));
    }
    assert!(checkpoint::decode(&restamped).is_err());
    // So are bytes after the trailer: a whole frame, or a torn one.
    for tail in [record::encode(3, b""), vec![0x55; 3]] {
        let mut trailing = image.clone();
        trailing.extend_from_slice(&tail);
        assert!(checkpoint::decode(&trailing).is_err());
    }
}
