//! A store entry is one byte string: its bcp's key framed as a row is,
//! the fill epochs, then its rows front-coded back to back — each a
//! header `LEB128(suffix_len << 1 | s)`, the count of leading bytes it
//! shares with the row before when `s = 1`, and the rest of its packed
//! bytes. Random scripts of fills, delta-key index removals, bridge-join
//! removals of an entry's first, middle or last row, evictions,
//! revalidations and quarantines run against a `PmvStore` of full rows
//! with its `DeltaKeyIndex` and against a model holding, per bcp, a
//! `Vec<(row values, fill epoch)>`. After every step:
//!
//! * every entry holds the model's rows, in the model's order, each with
//!   its epoch, and no other entry exists: the keys read back from the
//!   entries are the model's;
//! * the charge is exactly `HANDLE_BYTES` per entry (the handle of its
//!   bytes) plus its key's frame and each row's frame, replayed here from
//!   the rule: a row shares its common prefix with the row before it in
//!   the model's order (the first row nothing) when that costs no more
//!   than its unshared frame, `LEB128(len << 1)` and its bytes — so a
//!   removal must re-base the row that followed the removed one;
//! * `check()` — which walks every entry's frames checked and compares
//!   the index's postings with the cached rows — finds no violation.
//!
//! Rows are drawn from a small pool of shared prefixes — every row opens
//! with a one-byte integer's tag, and its string is one of pairs that
//! part only in their last byte — so most rows share, some a byte, some
//! more than 127 (a two-byte count), some leave a suffix of 64 B or more
//! (a two-byte header); entries hold equal rows (multiplicity), and
//! strings of 130 and 300 bytes make rows of 128 B or more.

use std::collections::HashMap;

use pmv_cache::PolicyKind;
use pmv_core::{BcpDim, BcpKey, DeltaKeyIndex, PmvConfig, PmvStore, Residency, HANDLE_BYTES};
use pmv_query::{QueryTemplate, TemplateBuilder};
use pmv_storage::{packed, Column, ColumnType, PackedRow, Schema, Tuple, Value};
use proptest::prelude::*;

const F: usize = 3;
const L: usize = 3;
/// Distinct bcps a script names: twice `L`, so admissions evict.
const BCPS: i64 = 6;

/// `r(a Int, s Str, f Int)`, `select a, s`, equality on `f`: a view row
/// is `(a, s, f)`, all of `r`, and its bcp is `f`.
fn template() -> std::sync::Arc<QueryTemplate> {
    TemplateBuilder::new("rows")
        .relation(Schema::new(
            "r",
            vec![
                Column::new("a", ColumnType::Int),
                Column::new("s", ColumnType::Str),
                Column::new("f", ColumnType::Int),
            ],
        ))
        .select("r", "a")
        .unwrap()
        .select("r", "s")
        .unwrap()
        .cond_eq("r", "f")
        .unwrap()
        .build()
        .unwrap()
}

fn bcp(f: i64) -> BcpKey {
    BcpKey::new(vec![BcpDim::Eq(Value::Int(f))])
}

/// A row of bcp `f`: `a` from a few one-byte values, `s` empty, short,
/// or one of a pair that parts in its last byte — 63 bytes, so a row
/// after its twin keeps only that byte and `f`, or long enough that the
/// row passes 127 bytes.
fn row(f: i64, (a, s): (i64, usize)) -> Vec<Value> {
    let (stem, n, last) = [
        ("", 0, ""),
        ("x", 1, ""),
        ("q", 62, "a"),
        ("q", 62, "b"),
        ("y", 130, ""),
        ("y", 129, "z"),
        ("z", 300, ""),
        ("z", 299, "w"),
    ][s];
    let s = stem.repeat(n) + last;
    vec![Value::Int(a), Value::str(s), Value::Int(f)]
}

fn shape() -> impl Strategy<Value = (i64, usize)> {
    (0i64..3, 0usize..8)
}

/// Where a bridge-join removal strikes an entry.
#[derive(Clone, Copy, Debug)]
enum Pos {
    First,
    Middle,
    Last,
}

#[derive(Clone, Debug)]
enum Op {
    /// Count bcp `b` `seen` times, admit it and fill `rows` at `epoch`.
    Fill {
        b: i64,
        seen: usize,
        rows: Vec<(i64, usize)>,
        epoch: u64,
    },
    /// Delete the base tuple equal to the `k`-th cached row of `b` (or a
    /// row of that shape when `b` holds none), resolved by the index.
    IndexRemove {
        b: i64,
        k: usize,
        shape: (i64, usize),
    },
    /// Remove one occurrence of the row of `b` at `at`, as a bridge
    /// join's result.
    JoinRemove {
        b: i64,
        at: Pos,
    },
    /// Revalidate `b` against a truth holding the cached rows `keep`
    /// names, plus one row that is not cached.
    Revalidate {
        b: i64,
        keep: Vec<bool>,
        extra: (i64, usize),
    },
    Quarantine,
    Lift,
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        6 => (0..BCPS, 0usize..3, proptest::collection::vec(shape(), 1..5), 0u64..4)
            .prop_map(|(b, seen, rows, epoch)| Op::Fill { b, seen, rows, epoch }),
        2 => (0..BCPS, 0usize..4, shape()).prop_map(|(b, k, shape)| Op::IndexRemove { b, k, shape }),
        3 => (0..BCPS, prop_oneof![Just(Pos::First), Just(Pos::Middle), Just(Pos::Last)])
            .prop_map(|(b, at)| Op::JoinRemove { b, at }),
        1 => (0..BCPS, proptest::collection::vec(any::<bool>(), F), shape())
            .prop_map(|(b, keep, extra)| Op::Revalidate { b, keep, extra }),
        1 => Just(Op::Quarantine),
        1 => Just(Op::Lift),
    ]
}

/// Per bcp, its cached rows and their fill epochs, in order.
type Model = HashMap<i64, Vec<(Vec<Value>, u64)>>;

fn packed(values: &[Value]) -> Vec<u8> {
    PackedRow::pack(values).as_bytes().to_vec()
}

fn leb128_len(n: usize) -> usize {
    (1..).find(|k| n >> (7 * k) == 0).unwrap()
}

/// What the rows of an entry, in order, are charged by the rule.
fn rows_charge(rows: &[(Vec<Value>, u64)]) -> usize {
    let mut prev: Vec<u8> = Vec::new();
    let mut total = 0;
    for (values, _) in rows {
        let bytes = packed(values);
        let alone = leb128_len(bytes.len() << 1) + bytes.len();
        let shared = bytes.iter().zip(&prev).take_while(|(a, b)| a == b).count();
        let suffix = bytes.len() - shared;
        let coded = leb128_len(suffix << 1 | 1) + leb128_len(shared) + suffix;
        total += if shared > 0 && coded <= alone {
            coded
        } else {
            alone
        };
        prev = bytes;
    }
    total
}

/// The store against the model: same entries, rows, order and epochs;
/// the charge by the rule; no invariant violated.
fn agrees(store: &PmvStore, model: &Model, quarantined: bool) -> Result<(), TestCaseError> {
    prop_assert_eq!(store.is_quarantined(), quarantined);
    let mut charge = 0;
    for b in 0..BCPS {
        let key = bcp(b);
        let want = model.get(&b);
        match (store.rows(&key), want) {
            (None, None) => {}
            (Some(rows), Some(want)) => {
                let (mut row, mut got) = (Vec::new(), Vec::new());
                let mut cursor = rows.iter(&mut row);
                while let Some((r, e)) = cursor.next_row() {
                    got.push((r.unpack().values().to_vec(), e));
                }
                prop_assert_eq!(&got, want, "bcp {}", b);
                prop_assert_eq!(rows.len(), want.len());
                prop_assert_eq!(store.lookup(&key).unwrap(), rows.bytes());
                let framed = rows_charge(want);
                prop_assert_eq!(rows.bytes().len(), framed);
                // No row takes more than it would alone.
                let alone: usize = want
                    .iter()
                    .map(|(v, _)| packed::entry_frame_len(packed::row_len(v)))
                    .sum();
                prop_assert!(framed <= alone);
                let key_frame = packed::framed_len(key.as_bytes().len());
                charge += HANDLE_BYTES + key_frame + framed;
            }
            (got, want) => prop_assert!(false, "bcp {}: store {:?}, model {:?}", b, got, want),
        }
    }
    // The keys the entries hold, read back from them, are the model's.
    let mut keys: Vec<BcpKey> = store.iter().map(|(k, _)| k).collect();
    keys.sort();
    let mut want: Vec<BcpKey> = model.keys().map(|&b| bcp(b)).collect();
    want.sort();
    prop_assert_eq!(keys, want);
    prop_assert_eq!(store.entry_count(), model.len());
    prop_assert_eq!(
        store.tuple_count(),
        model.values().map(Vec::len).sum::<usize>()
    );
    prop_assert_eq!(store.byte_size(), charge);
    let violations = store.check();
    prop_assert!(violations.is_empty(), "{:?}", violations);
    Ok(())
}

/// The `k`-th cached row of `b`, if it holds any.
fn nth(model: &Model, b: i64, k: usize) -> Option<Vec<Value>> {
    let rows = model.get(&b)?;
    Some(rows[k % rows.len()].0.clone())
}

/// Drop the model's entry of `b` once it holds nothing.
fn prune(model: &mut Model, b: i64) {
    if model.get(&b).is_some_and(Vec::is_empty) {
        model.remove(&b);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn entry_rows_follow_the_model(ops in proptest::collection::vec(op(), 1..40)) {
        let t = template();
        prop_assert_eq!(t.expanded_list().len(), 3);
        let mut store = PmvStore::new(&PmvConfig::new(F, L, PolicyKind::Clock));
        store.enable_index(DeltaKeyIndex::new(&t));
        let mut model = Model::new();
        let mut quarantined = false;
        for op in ops {
            match op {
                Op::Fill { b, seen, rows, epoch } => {
                    let key = bcp(b);
                    for _ in 0..seen {
                        store.note_access(&key);
                    }
                    let evictions = store.evictions();
                    let residency = store.admit(&key);
                    // An eviction drops a whole entry, nothing else.
                    let gone: Vec<i64> = model
                        .keys()
                        .copied()
                        .filter(|&m| store.rows(&bcp(m)).is_none() && !quarantined)
                        .collect();
                    prop_assert_eq!(store.evictions() - evictions, gone.len() as u64);
                    prop_assert!(gone.len() <= 1);
                    for m in gone {
                        model.remove(&m);
                    }
                    let rows: Vec<Tuple> = rows.into_iter().map(|r| Tuple::new(row(b, r))).collect();
                    let filled = store.fill(&key, rows.iter().map(|r| r.values().iter()), epoch);
                    let room = if quarantined || residency != Residency::Resident {
                        0
                    } else {
                        F - model.get(&b).map_or(0, Vec::len)
                    };
                    prop_assert_eq!(filled, rows.len().min(room));
                    if filled > 0 {
                        let entry = model.entry(b).or_default();
                        entry.extend(rows[..filled].iter().map(|r| (r.values().to_vec(), epoch)));
                    }
                }
                Op::IndexRemove { b, k, shape } => {
                    let doomed = nth(&model, b, k).unwrap_or_else(|| row(b, shape));
                    let postings = store.supported(0, &Tuple::new(doomed.clone())).unwrap();
                    let removed: usize = postings.iter().map(|p| store.remove_filed(p)).sum();
                    // Every copy of the row goes, and only its copies.
                    let want = model.get(&b).map_or(0, |rows| {
                        rows.iter().filter(|(v, _)| *v == doomed).count()
                    });
                    prop_assert_eq!(removed, want);
                    if let Some(rows) = model.get_mut(&b) {
                        rows.retain(|(v, _)| *v != doomed);
                    }
                    prune(&mut model, b);
                }
                Op::JoinRemove { b, at } => {
                    let Some(rows) = model.get(&b) else {
                        continue;
                    };
                    let k = match at {
                        Pos::First => 0,
                        Pos::Middle => rows.len() / 2,
                        Pos::Last => rows.len() - 1,
                    };
                    let doomed = rows[k].0.clone();
                    let bytes = PackedRow::pack(&doomed);
                    prop_assert!(store.remove_tuple(&bcp(b), bytes.row()));
                    let rows = model.get_mut(&b).unwrap();
                    let at = rows.iter().position(|(v, _)| *v == doomed).unwrap();
                    rows.remove(at);
                    prune(&mut model, b);
                }
                Op::Revalidate { b, keep, extra } => {
                    // The truth: the cached rows `keep` names, and one more.
                    let cached = model.get(&b).cloned().unwrap_or_default();
                    let mut budget: HashMap<Vec<u8>, usize> = HashMap::new();
                    for ((v, _), kept) in cached.iter().zip(&keep) {
                        if *kept {
                            *budget.entry(packed(v)).or_default() += 1;
                        }
                    }
                    *budget.entry(packed(&row(b, extra))).or_default() += 1;
                    let mut model_budget = budget.clone();
                    let removed = store.retain(&bcp(b), |r| match budget.get_mut(r.as_bytes()) {
                        Some(n) if *n > 0 => {
                            *n -= 1;
                            true
                        }
                        _ => false,
                    });
                    let before = cached.len();
                    if let Some(rows) = model.get_mut(&b) {
                        rows.retain(|(v, _)| match model_budget.get_mut(&packed(v)) {
                            Some(n) if *n > 0 => {
                                *n -= 1;
                                true
                            }
                            _ => false,
                        });
                    }
                    prop_assert_eq!(removed, before - model.get(&b).map_or(0, Vec::len));
                    prune(&mut model, b);
                }
                Op::Quarantine => {
                    store.quarantine();
                    model.clear();
                    quarantined = true;
                }
                Op::Lift => {
                    store.lift_quarantine();
                    quarantined = false;
                }
            }
            agrees(&store, &model, quarantined)?;
        }
    }
}
