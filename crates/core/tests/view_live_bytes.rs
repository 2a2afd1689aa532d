//! The bytes a full view really holds, against what §3.2's bound charges
//! (`byte_size()`, the benchmark's `view_bytes`). A counting global
//! allocator sums the bytes requested net of those freed on this thread
//! while T1's shape — `orders ⋈ lineitem`, `select *` over six columns,
//! equality conditions on `orderdate` and `suppkey` — fills all
//! 40 dates × 40 suppliers = 1 600 bcps with F = 3 tuples each, in a
//! view of L = 2 000.
//!
//! * The fill leaves an exact number of live bytes, and passes of the
//!   same queries (every bcp resident and full) leave none more in the
//!   view; the first of them sizes the serving path's scratch once.
//! * Live bytes stand in a fixed ratio to the charge.
//! * The split, exact, and printed under `--nocapture`: the entries'
//!   bytes, each entry's key framed, its tuples' fill epochs and its
//!   tuples front-coded, as the store lays them in its chunks' bytes;
//!   the delta-key index's postings, filed afresh with the cached tuples;
//!   the replacement policy, admitting the bcps afresh; and the rest —
//!   the chunks' slots, the chunks, the spine, and the table readers
//!   still hold: the store's previous publish, with the copies of the
//!   chunks the last write-back touched. The admission sketch is
//!   allocated with the view, before the fill.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use pmv_cache::PolicyKind;
use pmv_core::{BcpKey, DeltaKeyIndex, EpochDb, PartialViewDef, PmvConfig, SharedPmv};
use pmv_index::IndexDef;
use pmv_query::{Condition, Database, QueryInstance, TemplateBuilder};
use pmv_storage::{packed, tuple, Column, ColumnType, PackedRow, Schema, Value};

thread_local! {
    // Net bytes requested on this thread. Const-initialised and without
    // a destructor: safe to touch from inside the allocator.
    static LIVE: Cell<isize> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System` (`realloc` and
// `alloc_zeroed` through their default bodies, which call `alloc` and
// `dealloc`); the counter is a plain thread-local cell that never
// allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = LIVE.try_with(|c| c.set(c.get() + layout.size() as isize));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        let _ = LIVE.try_with(|c| c.set(c.get() - layout.size() as isize));
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Net bytes `f` left allocated on this thread, and its result.
fn grown<T>(f: impl FnOnce() -> T) -> (T, isize) {
    let before = LIVE.with(Cell::get);
    let out = f();
    (out, LIVE.with(Cell::get) - before)
}

const F: usize = 3;
const L: usize = 2_000;
const DATES: i64 = 40;
const SUPPLIERS: i64 = 40;
/// Orders per date: each bcp `(date, supplier)` then holds exactly `F`
/// rows, one per order.
const ORDERS: i64 = 3;

fn fixture() -> (EpochDb, SharedPmv) {
    let mut db = Database::new();
    db.create_relation(Schema::new(
        "orders",
        vec![
            Column::new("orderkey", ColumnType::Int),
            Column::new("custkey", ColumnType::Int),
            Column::new("orderdate", ColumnType::Int),
        ],
    ))
    .unwrap();
    db.create_relation(Schema::new(
        "lineitem",
        vec![
            Column::new("orderkey", ColumnType::Int),
            Column::new("suppkey", ColumnType::Int),
            Column::new("quantity", ColumnType::Int),
        ],
    ))
    .unwrap();
    let mut orderkey = 0i64;
    for date in 0..DATES {
        for _ in 0..ORDERS {
            db.insert("orders", tuple![orderkey, orderkey % 7, date])
                .unwrap();
            for supp in 0..SUPPLIERS {
                db.insert("lineitem", tuple![orderkey, supp, 1 + orderkey % 50])
                    .unwrap();
            }
            orderkey += 1;
        }
    }
    db.create_index(IndexDef::btree("orders", vec![2])).unwrap();
    db.create_index(IndexDef::btree("lineitem", vec![0]))
        .unwrap();
    let template = TemplateBuilder::new("T1")
        .relation(db.schema("orders").unwrap())
        .relation(db.schema("lineitem").unwrap())
        .join("orders", "orderkey", "lineitem", "orderkey")
        .unwrap()
        .select_star()
        .cond_eq("orders", "orderdate")
        .unwrap()
        .cond_eq("lineitem", "suppkey")
        .unwrap()
        .build()
        .unwrap();
    let def = PartialViewDef::all_equality("pmv_t1", template).unwrap();
    let pmv = SharedPmv::new(def, PmvConfig::new(F, L, PolicyKind::Clock));
    let edb = EpochDb::new(db);
    pmv.set_obs_enabled(false);
    edb.obs().set_enabled(false);
    (edb, pmv)
}

/// One query per date over every supplier: `h = 40`.
fn queries(pmv: &SharedPmv) -> Vec<QueryInstance> {
    let suppliers = Condition::Equality((0..SUPPLIERS).map(Value::Int).collect());
    (0..DATES)
        .map(|date| {
            pmv.def()
                .template()
                .bind(vec![
                    Condition::Equality(vec![Value::Int(date)]),
                    suppliers.clone(),
                ])
                .unwrap()
        })
        .collect()
}

/// Live bytes after the fill and the charge: exact, and in a fixed
/// ratio; the second pass adds nothing.
#[test]
fn a_full_view_holds_an_exact_count_of_live_bytes() {
    let (edb, pmv) = fixture();
    let qs = queries(&pmv);
    let run = || {
        for q in &qs {
            edb.query(&pmv, q).unwrap();
        }
    };
    let ((), live) = grown(run);
    let ((), again) = grown(run);
    let ((), third) = grown(run);
    let bcps = (DATES * SUPPLIERS) as usize;
    assert_eq!((pmv.entry_count(), pmv.tuple_count()), (bcps, F * bcps));
    let charged = pmv.byte_size() as isize;

    // The split: what writing each entry's key, epochs and cached
    // tuples out, as the store lays them in its chunk's bytes — each
    // tuple front-coded against the one before it in the entry's order —
    // filing the tuples into a fresh index, and admitting the bcps into
    // a fresh policy, leaves allocated.
    let layout = pmv.def().layout();
    let cached: Vec<(BcpKey, Vec<PackedRow>)> = pmv
        .dump()
        .into_iter()
        .map(|(bcp, _)| {
            let rows = pmv.lookup(&bcp).unwrap();
            (bcp, rows.iter().map(|(r, _)| layout.store(r)).collect())
        })
        .collect();
    let mut entries = Vec::with_capacity(cached.len());
    let ((), rows_bytes) = grown(|| {
        for (bcp, rows) in &cached {
            let prev = |i: usize| i.checked_sub(1).map(|p| rows[p].row());
            let key = packed::framed_len(bcp.as_bytes().len());
            let epochs = key + 8 * rows.len();
            let len: usize = (0..rows.len())
                .map(|i| packed::entry_row_len(rows[i].row(), prev(i)))
                .sum();
            let mut bytes = vec![0u8; epochs + len].into_boxed_slice();
            packed::put_packed_frame(&mut bytes, bcp.row());
            let mut at = epochs;
            for (i, r) in rows.iter().enumerate() {
                at += packed::put_entry_row(&mut bytes[at..], r.row(), prev(i));
            }
            entries.push(bytes);
        }
    });
    let mut index = DeltaKeyIndex::for_view(pmv.def());
    let ((), index_bytes) = grown(|| {
        for (bcp, rows) in &cached {
            for row in rows {
                index.file(bcp, row.row());
            }
        }
    });
    let mut policy = PolicyKind::Clock.build::<BcpKey>(L);
    let ((), policy_bytes) = grown(|| {
        for (bcp, _) in &cached {
            policy.admit(bcp.clone());
        }
    });
    println!(
        "live {live} B, charged {charged} B, ratio {:.3}; entry rows {rows_bytes} B, \
         index postings {index_bytes} B, policy {policy_bytes} B, entries, chunks \
         and the rest {} B; passes 2 and 3 {again} B and {third} B",
        live as f64 / charged as f64,
        live - rows_bytes - index_bytes - policy_bytes,
    );

    // 1 600 entries of the 4-byte handle of their bytes (the slot's end
    // offset in its chunk's bytes) and a key framed in 4 B — a byte of
    // length, then `orderdate` and `suppkey` (< 128), one byte each
    // behind one tag byte — and 4 800 tuples of 6 framed bytes: a byte
    // of header, then `orderkey` (< 128) and `custkey` behind a tag
    // byte, and `quantity` behind another, each one byte — the rest
    // derived. A tuple after the first of its entry shares only the
    // first tag byte, and keeps it as a count: the same 6 bytes.
    assert_eq!(charged, 41_600, "the charge");
    // The fill also grows the store's scratch once, to three 5-byte
    // rows (16 B) and their ends and epochs (4 × 16 B), and the serving
    // path's pooled scratch by the 24-byte handle of its row buffer.
    assert_eq!(
        live,
        634_508 + (16 + 4 * 16) + 24,
        "live bytes after the fill"
    );
    assert_eq!(live * 100 / charged, 1_525, "live bytes per 100 B charged");
    // Per entry, in its chunk's bytes: its 4-byte key frame, three
    // 8-byte epochs and its 18 framed bytes of rows. Two postings per tuple, 24
    // B each (an inline key and the row's hash) in its projection's list,
    // which holds no room to grow; a map slot per projection, its 8-byte
    // hash and the list's 16-byte handle and a control byte, in a table
    // of a power of two slots and 16 control bytes more: 4 800
    // `lineitem` projections in 8 192 slots, 120 `orders` projections in
    // 256; the 8-byte scratch the projections are packed in. Admitting
    // an inline key into a policy sized for its capacity allocates
    // nothing.
    let postings = 2 * 4_800 * 24;
    let maps = (8_192 * 25 + 16) + (256 * 25 + 16);
    assert_eq!(
        (rows_bytes, index_bytes, policy_bytes),
        (1_600 * (4 + 3 * 8 + 18), postings + maps + 8, 0)
    );
    // The second pass is the first to serve from the view: the serving
    // path's per-thread scratch grows once, for the served rows (128 ×
    // 8 B), the entry's key fields (4 × 16 B) and the buffer a cached
    // row is rebuilt in (8 B). The view itself grows by nothing, and a
    // third pass by nothing at all.
    assert_eq!(again, 128 * 8 + 4 * 16 + 8, "only the hit path's scratch");
    assert_eq!(third, 0, "a third pass holds nothing more");
}
