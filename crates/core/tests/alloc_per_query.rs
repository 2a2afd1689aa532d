//! Exact companion to the benchmark's noisy clock on the read path: a
//! counting global allocator shows what one steady-state query
//! allocates. The executor needs two allocations per result row (the
//! row's values and the `Arc` around them) and the serving path a fixed
//! number per query; once every probed bcp is resident and full, nothing
//! is built per row to find that out — no `BcpKey`, no copy of a row
//! the user already gets. And the executor's interval drive allocates
//! nothing per index key in range.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use pmv_cache::PolicyKind;
use pmv_core::{EpochDb, PartialViewDef, PmvConfig, SharedPmv};
use pmv_index::IndexDef;
use pmv_query::{execute, Condition, Database, Interval, QueryInstance, TemplateBuilder};
use pmv_storage::{tuple, Column, ColumnType, Schema, Value};

thread_local! {
    // Per thread, so tests running side by side do not see each other.
    // Const-initialised and without a destructor: safe to touch from
    // inside the allocator.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System` (`realloc` and
// `alloc_zeroed` through their default bodies, which call `alloc`); the
// counter is a plain thread-local cell that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations on this thread while `f` ran.
fn counted<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

const F: usize = 3;
const SUPPLIERS: i64 = 4;
/// Orders per date: dates 0 and 1 are light, 2 and 3 twice as heavy.
const ORDERS: [i64; 4] = [6, 6, 12, 12];

/// T1's shape: `orders ⋈ lineitem` on `orderkey`, `select *`, equality
/// conditions on `orders.orderdate` and `lineitem.suppkey`. Every order
/// has one `lineitem` per supplier, so bcp `(date, supplier)` holds
/// `ORDERS[date]` rows — always more than `F`. The view holds `l` bcps
/// over `shards` shards.
fn fixture(l: usize, shards: usize) -> (EpochDb, SharedPmv) {
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
    for (date, &orders) in ORDERS.iter().enumerate() {
        for _ in 0..orders {
            db.insert("orders", tuple![orderkey, orderkey % 7, date as i64])
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
    let pmv = SharedPmv::with_shards(def, PmvConfig::new(F, l, PolicyKind::Clock), shards);
    let edb = EpochDb::new(db);
    // As in the benchmark's end-to-end runs: tracing would count too.
    pmv.set_obs_enabled(false);
    edb.obs().set_enabled(false);
    (edb, pmv)
}

/// `h = 4`: two dates × two suppliers.
fn query(pmv: &SharedPmv, dates: [i64; 2]) -> QueryInstance {
    let eq = |vs: [i64; 2]| Condition::Equality(vs.iter().map(|&v| Value::Int(v)).collect());
    pmv.def()
        .template()
        .bind(vec![eq(dates), eq([0, 1])])
        .unwrap()
}

/// `(result rows, allocations)` of one steady-state run of `q`: every
/// probed bcp resident and full, so all `F` tuples of each are served
/// from the view and O3 has nothing to add to it.
fn steady_state(edb: &EpochDb, pmv: &SharedPmv, q: &QueryInstance) -> (usize, usize) {
    for _ in 0..3 {
        edb.query(pmv, q).unwrap();
    }
    let (out, allocations) = counted(|| edb.query(pmv, q).unwrap());
    assert!(out.bcp_hit && out.is_complete());
    assert_eq!(out.partial.len(), 4 * F, "every probed bcp is full");
    assert_eq!(out.ds_leftover, 0);
    (out.partial.len() + out.remaining.len(), allocations)
}

#[test]
fn a_steady_state_query_allocates_per_query_not_per_row() {
    let (edb, pmv) = fixture(64, 4);
    let (light_rows, light) = steady_state(&edb, &pmv, &query(&pmv, [0, 1]));
    let (heavy_rows, heavy) = steady_state(&edb, &pmv, &query(&pmv, [2, 3]));
    assert_eq!((light_rows, heavy_rows), (24, 48));
    let admitted = pmv.stats().tuples_admitted;
    assert_eq!(admitted, (8 * F) as u64, "filled once, by the warm-up");

    // Two per row for the executor's output, the rest per query: 105
    // and 154 allocations, 57 and 58 beyond the rows' two each. (A bcp
    // key is built inline: O1 allocates nothing per condition part.)
    for (rows, allocations) in [(light_rows, light), (heavy_rows, heavy)] {
        assert!(
            allocations <= 2 * rows + 58,
            "{allocations} allocations for {rows} rows"
        );
    }
    // Twice the rows cost the executor's two per extra row and a few
    // doublings of the result vectors — nothing else scales with rows.
    assert!(
        heavy - light <= 2 * (heavy_rows - light_rows) + 8,
        "{light} allocations at {light_rows} rows, {heavy} at {heavy_rows}"
    );
}

/// `h = 1`: the one bcp `(date, supplier)`.
fn single(pmv: &SharedPmv, date: i64, supplier: i64) -> QueryInstance {
    let eq = |v: i64| Condition::Equality(vec![Value::Int(v)]);
    pmv.def()
        .template()
        .bind(vec![eq(date), eq(supplier)])
        .unwrap()
}

/// The slow path of the serving path: a miss on a full one-shard view
/// whose bcp out-counts its victim admits it, evicts the victim, fills
/// `F` tuples and publishes the shard: 58 allocations. The store copies
/// only the spine and the chunk it changes — its slots and its bytes —
/// and then grows that chunk's bytes in place, the publish is one
/// pointer copy, the entry's key, the `F` tuples and their epochs are
/// written straight into the chunk's bytes, the bcp key the policy and
/// each delta-index posting hold is inline — cloning it allocates
/// nothing — and a projection is keyed by the hash of its bytes, packed
/// into the index's scratch, where filing or unfiling a tuple built a
/// boxed key per relation before.
#[test]
fn a_cold_fill_that_evicts_allocates_a_bounded_count() {
    let (edb, pmv) = fixture(4, 1);
    for supplier in 0..4 {
        edb.query(&pmv, &single(&pmv, 0, supplier)).unwrap();
    }
    assert_eq!(pmv.entry_count(), 4, "the view is full");
    // Asked once, the cold bcp ties its victim and is declined; asked
    // again, it out-counts it.
    let cold = single(&pmv, 1, 0);
    edb.query(&pmv, &cold).unwrap();
    assert_eq!(pmv.stats().admissions_declined, 1);
    let (out, allocations) = counted(|| edb.query(&pmv, &cold).unwrap());
    assert!(!out.bcp_hit && out.remaining.len() == ORDERS[1] as usize);
    assert_eq!((pmv.entry_count(), pmv.evictions()), (4, 1));
    assert_eq!(pmv.stats().tuples_admitted, (5 * F) as u64);
    assert!(allocations <= 58, "{allocations} allocations");
}

/// An interval drive collects row ids, not a copy of the index
/// (`AnyIndex::range` clones every key and posting list in range; the
/// executor drives through `range_rows`): what a range-driven query
/// allocates does not depend on how many distinct keys its interval
/// covers.
#[test]
fn interval_drive_allocations_do_not_grow_with_keys_in_range() {
    // 4 000 distinct keys, one row each; `flag = 1` on keys 0, 1 and 2
    // only, and fixed in the template, so every query below returns the
    // same three rows however wide its interval is.
    let mut db = Database::new();
    db.create_relation(Schema::new(
        "r",
        vec![
            Column::new("k", ColumnType::Int),
            Column::new("flag", ColumnType::Int),
        ],
    ))
    .unwrap();
    db.load("r", (0..4000i64).map(|k| tuple![k, (k < 3) as i64]))
        .unwrap();
    db.create_index(IndexDef::btree("r", vec![0])).unwrap();
    let t = TemplateBuilder::new("range")
        .relation(db.schema("r").unwrap())
        .fixed("r", "flag", 1i64)
        .unwrap()
        .select_star()
        .cond_interval("r", "k")
        .unwrap()
        .build()
        .unwrap();
    let run = |keys: i64| {
        let q = t
            .bind(vec![Condition::Intervals(vec![Interval::half_open(
                0i64, keys,
            )])])
            .unwrap();
        let ((rows, stats), allocations) = counted(|| execute(&db, &q).unwrap());
        assert_eq!(rows.len(), 3);
        assert_eq!(stats.range_scans, 1);
        assert_eq!(stats.tuples_examined as i64, keys);
        allocations
    };
    let (narrow, wide) = (run(40), run(4000));
    // 100× the keys in range: the candidate vector doubles a few more
    // times, and that is all. (Cloning keys and postings cost one
    // allocation per key: 3 960 more.)
    assert!(
        wide <= narrow + 8,
        "{narrow} allocations over 40 keys, {wide} over 4 000"
    );
}
