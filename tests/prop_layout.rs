//! The stored layout (DESIGN.md "Value layout"): a cached tuple keeps only
//! the `Ls'` values its entry cannot derive — no equality column the bcp
//! fixes, no fixed-predicate column, no second side of a `Cjoin` edge —
//! while every cached and served row stays the row the executor produced.
//!
//! * T1 stores 7 of its 10 values — five integers and two empty fillers —
//!   packed into one row: four tag bytes, two 4-bit tags to a byte (the
//!   last closing the odd row), each integer the 1–3 bytes its value
//!   needs, each filler its tag alone; front-coded in its entry — a
//!   byte of header, and a byte of count for the leading bytes it shares
//!   with the row before, when it shares any — so at most 1 + 15 = 16 B
//!   per tuple, which `estimate_tuple_bytes` bounds from above, and per
//!   entry the 4-byte handle of its bytes and its key framed: a byte of
//!   length, a tag byte and two integers of the 1–2 bytes their values
//!   need;
//! * a double is canonical once built (`-0.0` is `0.0`, every NaN one
//!   NaN), so a `Double` equality column is derived from the bcp like any
//!   other: 8 B less per cached tuple, in the charge and in the estimate;
//! * a sign-only update of a zero is no change, and a row that reuses a
//!   freed slot ahead of a cached twin leaves DS on the right row: the
//!   answer is the executor's bit for bit;
//! * over random query, insert, delete and update scripts — a template with
//!   a bcp-derived, a join-derived, a fixed and a `Double` column, fed
//!   `±0.0` and a NaN with a payload — every answer equals the plain
//!   executor's bit for bit, every executor row survives its stored form
//!   bit for bit, every dumped row is full width and lies in its bcp, the
//!   view's invariants hold, and `revalidate` finds nothing stale.

use std::collections::HashMap;
use std::sync::Arc;

use pmv::core::verify::estimate_tuple_bytes;
use pmv::core::BcpKey;
use pmv::index::IndexDef;
use pmv::prelude::*;
use pmv::workload::queries::{t1_query, template_t1};
use pmv::workload::tpcr::{self, TpcrConfig};
use proptest::prelude::*;

/// A row's values with each double as its bit pattern, so that rows
/// compare bit for bit.
fn exact(t: &Tuple) -> String {
    let values: Vec<String> = t
        .values()
        .iter()
        .map(|v| match v {
            Value::Double(d) => format!("{:#018x}", d.to_bits()),
            other => format!("{other:?}"),
        })
        .collect();
    values.join(", ")
}

fn exact_sorted<'a>(rows: impl IntoIterator<Item = &'a Tuple>) -> Vec<String> {
    let mut out: Vec<String> = rows.into_iter().map(exact).collect();
    out.sort();
    out
}

#[test]
fn t1_is_charged_at_most_34_bytes_per_tuple() {
    let mut db = Database::new();
    let config = TpcrConfig {
        scale: 0.002,
        ..Default::default()
    };
    tpcr::generate(&mut db, &config).unwrap();
    tpcr::standard_indexes(&mut db).unwrap();
    let t1 = template_t1(&db).unwrap();
    let def = PartialViewDef::all_equality("t1", Arc::clone(&t1)).unwrap();
    assert_eq!((def.layout().arity(), def.layout().stored_arity()), (10, 7));
    // Four tag bytes, each integer's payload counted at 8 bytes, each
    // filler's at its inline bound, 1 + 12 bytes: 70 bytes behind a
    // header of two, 70 << 1 being past 127.
    assert_eq!(estimate_tuple_bytes(&t1), 2 + 4 + 5 * 8 + 2 * 13);
    assert!(estimate_tuple_bytes(&t1) >= 16);
    let stored = def.layout().stored_positions().to_vec();

    // The (orderdate, suppkey) bcps of the first lineitems.
    let dates: HashMap<i64, i64> = db
        .relation("orders")
        .unwrap()
        .iter()
        .map(|(_, o)| (o.get(0).as_int().unwrap(), o.get(2).as_int().unwrap()))
        .collect();
    let bcps: Vec<(i64, i64)> = db
        .relation("lineitem")
        .unwrap()
        .iter()
        .take(40)
        .map(|(_, l)| {
            let orderkey = l.get(0).as_int().unwrap();
            (dates[&orderkey], l.get(1).as_int().unwrap())
        })
        .collect();
    let pmv = SharedPmv::new(def, PmvConfig::new(3, 1_000, PolicyKind::Clock));
    let edb = EpochDb::new(db);
    for &(date, supp) in &bcps {
        let q = t1_query(&t1, &[date], &[supp]).unwrap();
        edb.query(&pmv, &q).unwrap();
        let out = edb.query(&pmv, &q).unwrap();
        assert!(out.bcp_hit && out.ds_leftover == 0);
    }
    let (entries, tuples) = (pmv.entry_count(), pmv.tuple_count());
    assert!(entries > 0 && tuples >= entries);
    // Each entry's rows in the order it holds them, charged by the
    // rule: a row that shares no leading byte with the row before it
    // (an entry's first row never does) takes a byte of header and its
    // packed bytes; one that shares `n` takes a byte of header, a byte
    // of count and the rest — never more, at these widths.
    let (mut charged, mut shared_rows) = (0, 0);
    for (bcp, _) in pmv.dump() {
        let key = bcp.as_bytes().len();
        assert!((3..=5).contains(&key), "{bcp:?} packs to {key} B");
        charged += 4 + 1 + key;
        let mut prev: Vec<u8> = Vec::new();
        for (row, _) in pmv.lookup(&bcp).unwrap() {
            assert_eq!(row.arity(), 10);
            let bytes = packed(stored.iter().map(|&p| row.get(p)));
            let shared = bytes.iter().zip(&prev).take_while(|(a, b)| a == b).count();
            let charge = match shared {
                0 => 1 + bytes.len(),
                n => 2 + bytes.len() - n,
            };
            assert!(
                charge <= 1 + bytes.len() && charge <= 16,
                "{row:?} charged {charge} B"
            );
            charged += charge;
            shared_rows += usize::from(shared > 0);
            prev = bytes;
            assert!(pmv.def().tuple_in_bcp(&row, &bcp));
            assert_eq!(row.get(0), row.get(5), "orderkey on both sides");
        }
    }
    assert!(shared_rows > 0, "some row shares its first bytes");
    assert_eq!(pmv.byte_size(), charged);
}

/// What T1's stored values pack to: per two values a tag byte — the
/// first's tag in its low nibble, the second's (or 15, "no field") in
/// its high one — then their payloads. An integer's tag is its width,
/// the fewest little-endian bytes that hold it as a signed number, its
/// payload; an empty filler is its tag (11) alone.
fn packed<'a>(values: impl Iterator<Item = &'a Value>) -> Vec<u8> {
    let values: Vec<&Value> = values.collect();
    let mut out = Vec::new();
    for pair in values.chunks(2) {
        let (tag_at, mut high) = (out.len(), 15u8);
        out.push(0);
        for (i, v) in pair.iter().enumerate() {
            let tag = match v {
                Value::Int(x) => {
                    let w = (1..=8usize)
                        .find(|w| matches!(x >> (8 * w - 1), -1 | 0))
                        .unwrap();
                    out.extend_from_slice(&x.to_le_bytes()[..w]);
                    w as u8
                }
                Value::Str(s) if s.as_str().is_empty() => 11,
                other => panic!("not a T1 stored value: {other:?}"),
            };
            match i {
                0 => out[tag_at] = tag,
                _ => high = tag,
            }
        }
        out[tag_at] |= high << 4;
    }
    out
}

/// `r(a Int, x Double)`.
fn int_double() -> Database {
    let mut db = Database::new();
    db.create_relation(Schema::new(
        "r",
        vec![
            Column::new("a", ColumnType::Int),
            Column::new("x", ColumnType::Double),
        ],
    ))
    .unwrap();
    db
}

/// Every served row of `out`, partial then remaining.
fn served(out: &QueryOutcome) -> Vec<Tuple> {
    out.partial_expanded
        .iter()
        .chain(&out.remaining_expanded)
        .map(|t| Tuple::clone(t))
        .collect()
}

#[test]
fn a_double_equality_column_is_derived() {
    let mut db = int_double();
    for (a, x) in [(1i64, -0.0f64), (2, 0.0), (3, -0.0), (4, 1.5)] {
        db.insert("r", tuple![a, x]).unwrap();
    }
    let t = TemplateBuilder::new("dbl")
        .relation(db.schema("r").unwrap())
        .select("r", "a")
        .unwrap()
        .cond_eq("r", "x")
        .unwrap()
        .build()
        .unwrap();
    let def = PartialViewDef::all_equality("dbl", Arc::clone(&t)).unwrap();
    // `x` comes from the bcp: one `Int` stored, estimated at a tag byte
    // and 8 B behind a byte of length. Stored, the `Double` would add
    // its 8 B to both the estimate and the charge, its tag sharing the
    // `Int`'s byte.
    let layout = def.layout();
    assert_eq!((layout.arity(), layout.stored_arity()), (2, 1));
    assert_eq!(estimate_tuple_bytes(&t), 1 + 1 + 8);
    let pmv = SharedPmv::new(def, PmvConfig::new(4, 8, PolicyKind::Clock));
    let edb = EpochDb::new(db);
    let q = t
        .bind(vec![Condition::Equality(vec![Value::from(-0.0)])])
        .unwrap();
    let (plain, _) = pmv::query::execute(&*edb.read(), &q).unwrap();
    let want = exact_sorted(&plain);
    assert_eq!(want.len(), 3);
    let zero = format!("{:#018x}", 0.0f64.to_bits());
    assert!(want.iter().all(|r| r.ends_with(&zero)), "{want:?}");
    edb.query(&pmv, &q).unwrap();
    let out = edb.query(&pmv, &q).unwrap();
    assert!(out.is_complete() || out.bcp_hit);
    assert_eq!(out.partial.len(), 3, "served from the view");
    assert_eq!(exact_sorted(&served(&out)), want);
    let dumped: Vec<Tuple> = pmv.dump().into_iter().flat_map(|(_, rows)| rows).collect();
    assert_eq!(exact_sorted(&dumped), want);
    // One entry, the 4 B handle of its bytes and its key framed — a
    // byte of length, the double's tag byte and 8 bytes — and three
    // tuples, each a byte of length and `a` (1, 2 or 3) in a tag byte
    // and one byte.
    assert_eq!(pmv.entry_count(), 1);
    assert_eq!(pmv.byte_size(), 4 + (1 + 9) + 3 * (1 + 2));
}

/// An update that only flips a zero's sign stores the same value: it is
/// no change, and the answer is still the executor's bit for bit.
#[test]
fn a_sign_only_update_is_no_change() {
    let mut db = int_double();
    let row = db.insert("r", tuple![1i64, 0.0f64]).unwrap().row();
    db.insert("r", tuple![1i64, 2.5f64]).unwrap();
    let t = TemplateBuilder::new("sign")
        .relation(db.schema("r").unwrap())
        .select("r", "x")
        .unwrap()
        .cond_eq("r", "a")
        .unwrap()
        .build()
        .unwrap();
    let def = PartialViewDef::all_equality("sign", Arc::clone(&t)).unwrap();
    let pmv = SharedPmv::new(def, PmvConfig::new(4, 8, PolicyKind::Clock));
    let edb = EpochDb::new(db);
    let q = t
        .bind(vec![Condition::Equality(vec![Value::Int(1)])])
        .unwrap();
    edb.query(&pmv, &q).unwrap();
    assert_eq!(pmv.tuple_count(), 2, "cached");
    edb.commit(&[&pmv], |db| {
        let mut txn = Transaction::begin(db);
        txn.update("r", row, tuple![1i64, -0.0f64])?;
        Ok(((), txn.commit()))
    })
    .unwrap();
    assert_eq!(pmv.stats().maint_updates_ignored, 1);
    assert_eq!(pmv.tuple_count(), 2, "still cached");
    let (plain, _) = pmv::query::execute(&*edb.read(), &q).unwrap();
    let out = edb.query(&pmv, &q).unwrap();
    assert_eq!(exact_sorted(&served(&out)), exact_sorted(&plain));
}

/// A delete frees slot 0, and an insert of `(1, -0.0)` reuses it, ahead
/// of the cached `(1, 0.0)` in slot 1. DS (the rows already served from
/// the view) removes the executor's rows equal to a served one: when
/// `-0.0` and `0.0` were two bit patterns under one equality, it removed
/// the `-0.0` row and the answer read `0.0` twice. A double is canonical
/// once built, so both rows are `(1, 0.0)` and the answer is the
/// executor's bit for bit.
#[test]
fn a_reused_slot_ahead_of_a_cached_zero_is_served_exactly() {
    let mut db = int_double();
    let first = db.insert("r", tuple![1i64, 5.0f64]).unwrap().row();
    db.insert("r", tuple![1i64, 0.0f64]).unwrap();
    let t = TemplateBuilder::new("reuse")
        .relation(db.schema("r").unwrap())
        .select("r", "x")
        .unwrap()
        .cond_eq("r", "a")
        .unwrap()
        .build()
        .unwrap();
    let def = PartialViewDef::all_equality("reuse", Arc::clone(&t)).unwrap();
    let pmv = SharedPmv::new(def, PmvConfig::new(4, 8, PolicyKind::Clock));
    let edb = EpochDb::new(db);
    let q = t
        .bind(vec![Condition::Equality(vec![Value::Int(1)])])
        .unwrap();
    edb.query(&pmv, &q).unwrap();
    assert_eq!(pmv.tuple_count(), 2, "cached");
    let write = |change: Change| {
        edb.commit(&[&pmv], |db| {
            let mut txn = Transaction::begin(db);
            change(&mut txn)?;
            Ok(((), txn.commit()))
        })
        .unwrap()
    };
    write(Box::new(move |txn| txn.delete("r", first).map(drop)));
    write(Box::new(move |txn| {
        let row = txn.insert("r", tuple![1i64, -0.0f64])?;
        assert_eq!(row, first, "the freed slot is reused");
        Ok(())
    }));
    let (plain, _) = pmv::query::execute(&*edb.read(), &q).unwrap();
    let out = edb.query(&pmv, &q).unwrap();
    assert!(out.bcp_hit && out.ds_leftover == 0);
    assert_eq!(out.partial.len(), 1, "one row served from the view");
    assert_eq!(exact_sorted(&served(&out)), exact_sorted(&plain));
}

/// `±0.0`, a number and a negative NaN with a payload.
const DOUBLES: [f64; 4] = [-0.0, 0.0, 0.5, f64::from_bits(0xfff0_0000_0000_0001)];

/// `r(a, c, f, x) ⋈ s(d, e, g, k)` on `r.c = s.d`, `select *`, equality
/// condition on `r.f`, interval condition on `s.g` and `s.k = 1` fixed:
/// `r.f` comes from the bcp, `s.d` from `r.c`, `s.k` from the template,
/// and `r.x` is a `Double` — five of eight values stored.
fn fixture() -> (Database, Arc<QueryTemplate>) {
    let mut db = Database::new();
    let int = |n: &str| Column::new(n, ColumnType::Int);
    db.create_relation(Schema::new(
        "r",
        vec![
            int("a"),
            int("c"),
            int("f"),
            Column::new("x", ColumnType::Double),
        ],
    ))
    .unwrap();
    db.create_relation(Schema::new(
        "s",
        vec![int("d"), int("e"), int("g"), int("k")],
    ))
    .unwrap();
    for i in 0..24i64 {
        db.insert(
            "r",
            tuple![i, i % 6, i % 4, DOUBLES[i as usize % DOUBLES.len()]],
        )
        .unwrap();
        db.insert("s", tuple![i % 6, 100 + i, (i * 7) % 40, i % 2])
            .unwrap();
    }
    for (rel, col) in [("r", 1), ("r", 2), ("s", 0)] {
        db.create_index(IndexDef::btree(rel, vec![col])).unwrap();
    }
    let t = TemplateBuilder::new("layout")
        .relation(db.schema("r").unwrap())
        .relation(db.schema("s").unwrap())
        .join("r", "c", "s", "d")
        .unwrap()
        .fixed("s", "k", 1i64)
        .unwrap()
        .select_star()
        .cond_eq("r", "f")
        .unwrap()
        .cond_interval("s", "g")
        .unwrap()
        .build()
        .unwrap();
    (db, t)
}

#[derive(Clone, Debug)]
enum Step {
    Query { fs: Vec<i64>, ivs: Vec<(i64, i64)> },
    InsertR { a: i64, c: i64, f: i64, x: usize },
    InsertS { d: i64, g: i64, k: i64 },
    DeleteNthR(usize),
    DeleteNthS(usize),
    UpdateNthR { nth: usize, f: i64, x: usize },
    UpdateNthS { nth: usize, g: i64 },
}

fn step_strategy() -> impl Strategy<Value = Step> {
    let fs = proptest::collection::btree_set(0i64..4, 1..3).prop_map(|s| s.into_iter().collect());
    // Disjoint intervals: consecutive pairs of distinct sorted points.
    let ivs = proptest::collection::btree_set(-5i64..50, 2..5).prop_map(|s| {
        let points: Vec<i64> = s.into_iter().collect();
        points.chunks_exact(2).map(|p| (p[0], p[1])).collect()
    });
    prop_oneof![
        4 => (fs, ivs).prop_map(|(fs, ivs)| Step::Query { fs, ivs }),
        1 => (0i64..1000, 0i64..6, 0i64..4, 0..DOUBLES.len())
            .prop_map(|(a, c, f, x)| Step::InsertR { a, c, f, x }),
        1 => (0i64..6, 0i64..40, 0i64..2).prop_map(|(d, g, k)| Step::InsertS { d, g, k }),
        1 => (0usize..1000).prop_map(Step::DeleteNthR),
        1 => (0usize..1000).prop_map(Step::DeleteNthS),
        1 => (0usize..1000, 0i64..4, 0..DOUBLES.len())
            .prop_map(|(nth, f, x)| Step::UpdateNthR { nth, f, x }),
        1 => (0usize..1000, 0i64..40).prop_map(|(nth, g)| Step::UpdateNthS { nth, g }),
    ]
}

/// One step's write, run inside a committed transaction.
type Change = Box<dyn FnOnce(&mut Transaction<'_>) -> pmv::query::Result<()>>;

/// The `nth` live row of `relation` (modulo its size), if any.
fn nth_row(edb: &EpochDb, relation: &str, nth: usize) -> Option<(pmv::storage::RowId, Tuple)> {
    let db = edb.read();
    let rows: Vec<_> = db
        .relation(relation)
        .unwrap()
        .iter()
        .map(|(r, t)| (r, t.clone()))
        .collect();
    (!rows.is_empty()).then(|| rows[nth % rows.len()].clone())
}

/// Every dumped row of `view` is a full `Ls'` row inside its bcp that
/// satisfies `Cjoin`, and the view's invariants hold.
fn check_view(view: &SharedPmv) -> Result<(), TestCaseError> {
    view.debug_validate();
    for (bcp, rows) in view.dump() {
        for row in &rows {
            prop_assert_eq!(row.arity(), 8);
            prop_assert!(in_bcp(view, row, &bcp), "{:?} outside {:?}", row, bcp);
            prop_assert_eq!(row.get(1), row.get(4), "r.c = s.d");
            prop_assert_eq!(row.get(7), &Value::Int(1), "s.k = 1");
        }
    }
    Ok(())
}

fn in_bcp(view: &SharedPmv, row: &Tuple, bcp: &BcpKey) -> bool {
    view.def().tuple_in_bcp(row, bcp)
}

fn run_script(steps: Vec<Step>) -> Result<(), TestCaseError> {
    let (db, t) = fixture();
    let def = PartialViewDef::new(
        "layout",
        Arc::clone(&t),
        vec![None, Some(Discretizer::int_grid(0, 10, 4))],
    )
    .unwrap();
    assert_eq!(def.layout().stored_arity(), 5);
    let view = SharedPmv::new(def, PmvConfig::new(3, 8, PolicyKind::Clock));
    let edb = EpochDb::new(db);
    for step in steps {
        let change: Option<Change> = match step {
            Step::Query { fs, ivs } => {
                let q = t
                    .bind(vec![
                        Condition::Equality(fs.iter().map(|&f| Value::Int(f)).collect()),
                        Condition::Intervals(
                            ivs.iter()
                                .map(|&(lo, hi)| Interval::half_open(lo, hi))
                                .collect(),
                        ),
                    ])
                    .unwrap();
                let (plain, _) = pmv::query::execute(&*edb.read(), &q).unwrap();
                let want = exact_sorted(&plain);
                let out = edb.query(&view, &q).unwrap();
                prop_assert_eq!(out.ds_leftover, 0);
                prop_assert_eq!(exact_sorted(&served(&out)), want);
                // What a fill stores and a hit rebuilds is the row.
                let (def, layout) = (view.def(), view.def().layout());
                for row in plain {
                    let bcp = def.bcp_of_tuple(&row);
                    let row = Arc::new(row);
                    let rebuilt = layout.rebuild(layout.store(&row).row(), &bcp);
                    prop_assert_eq!(exact(&rebuilt), exact(&row));
                }
                None
            }
            Step::InsertR { a, c, f, x } => Some(Box::new(move |txn| {
                txn.insert("r", tuple![a, c, f, DOUBLES[x]]).map(drop)
            })),
            Step::InsertS { d, g, k } => Some(Box::new(move |txn| {
                txn.insert("s", tuple![d, 500 + g, g, k]).map(drop)
            })),
            Step::DeleteNthR(nth) => nth_row(&edb, "r", nth).map(|(row, _)| {
                Box::new(move |txn: &mut Transaction<'_>| txn.delete("r", row).map(drop)) as _
            }),
            Step::DeleteNthS(nth) => nth_row(&edb, "s", nth).map(|(row, _)| {
                Box::new(move |txn: &mut Transaction<'_>| txn.delete("s", row).map(drop)) as _
            }),
            Step::UpdateNthR { nth, f, x } => nth_row(&edb, "r", nth).map(|(row, old)| {
                let new = tuple![old.get(0).clone(), old.get(1).clone(), f, DOUBLES[x]];
                Box::new(move |txn: &mut Transaction<'_>| txn.update("r", row, new).map(drop)) as _
            }),
            Step::UpdateNthS { nth, g } => nth_row(&edb, "s", nth).map(|(row, old)| {
                let mut values = old.values().to_vec();
                values[2] = Value::Int(g);
                let new = Tuple::new(values);
                Box::new(move |txn: &mut Transaction<'_>| txn.update("s", row, new).map(drop)) as _
            }),
        };
        if let Some(change) = change {
            edb.commit(&[&view], |db| {
                let mut txn = Transaction::begin(db);
                change(&mut txn)?;
                Ok(((), txn.commit()))
            })
            .unwrap();
            prop_assert_eq!(view.revalidate(&edb.read()).unwrap(), 0, "stale tuple kept");
        }
        check_view(&view)?;
    }
    Ok(())
}

proptest! {
    #[test]
    fn stored_layout_serves_and_maintains_full_rows(
        steps in proptest::collection::vec(step_strategy(), 1..40)
    ) {
        run_script(steps)?;
    }
}
