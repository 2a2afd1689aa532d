//! Exact companion to the benchmark's noisy clock: a counting global
//! allocator shows that the heap's share of a commit is O(|Δ|), not
//! O(|R|). What a write after a snapshot allocates, and what dropping
//! the retired snapshot frees, is the same at 6 k and at 120 k rows; and
//! an insert-only commit stream does not allocate more per commit as the
//! relation grows (finding 2 of `benchmark/README.md`).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use pmv_storage::{Column, ColumnType, HeapRelation, RowId, Schema, Tuple, Value};

thread_local! {
    // Per thread, so tests running side by side do not see each other.
    // Const-initialised and without a destructor: safe to touch from
    // inside the allocator.
    static ALLOCATED: Cell<usize> = const { Cell::new(0) };
    static FREED: Cell<usize> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`; the counters
// are plain thread-local cells that never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATED.try_with(|c| c.set(c.get() + layout.size()));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        let _ = FREED.try_with(|c| c.set(c.get() + layout.size()));
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Bytes `(allocated, freed)` on this thread while `f` ran.
fn counted<T>(f: impl FnOnce() -> T) -> (T, usize, usize) {
    let (a0, f0) = (ALLOCATED.with(Cell::get), FREED.with(Cell::get));
    let out = f();
    let (a1, f1) = (ALLOCATED.with(Cell::get), FREED.with(Cell::get));
    (out, a1 - a0, f1 - f0)
}

/// A `lineitem`-like row: four numbers and a short string.
fn row(i: i64) -> Tuple {
    Tuple::new(vec![
        Value::Int(i),
        Value::Int(i % 7),
        Value::Int(i % 50 + 1),
        Value::from(i as f64),
        Value::str("DELIVER IN PERSON"),
    ])
}

fn relation(rows: i64) -> Arc<HeapRelation> {
    let schema = Schema::new(
        "lineitem",
        vec![
            Column::new("orderkey", ColumnType::Int),
            Column::new("linenumber", ColumnType::Int),
            Column::new("quantity", ColumnType::Int),
            Column::new("price", ColumnType::Double),
            Column::new("instruct", ColumnType::Str),
        ],
    );
    let mut r = HeapRelation::new(schema);
    for i in 0..rows {
        r.insert(row(i)).unwrap();
    }
    Arc::new(r)
}

/// One 64-slot page with its tuples: the unit a one-row write copies.
fn page_bytes() -> usize {
    let tuple = std::mem::size_of::<Value>() * row(0).arity();
    64 * (std::mem::size_of::<Option<Tuple>>() + tuple)
}

/// `(allocated by the first write after a snapshot, freed by dropping
/// that snapshot)` on a relation of `rows` rows.
fn first_write_after_snapshot(rows: i64) -> (usize, usize) {
    let mut live = relation(rows);
    let snap = Arc::clone(&live);
    let victim = RowId(rows as u32 / 2);
    let (old, allocated, _) = counted(|| Arc::make_mut(&mut live).update(victim, row(-1)).unwrap());
    assert_eq!(snap.get(victim), Some(&old), "the snapshot keeps its row");
    let (_, _, freed) = counted(|| drop(snap));
    (allocated, freed)
}

#[test]
fn first_write_after_a_snapshot_costs_the_same_at_6k_and_120k_rows() {
    let (small_alloc, small_freed) = first_write_after_snapshot(6_000);
    let (large_alloc, large_freed) = first_write_after_snapshot(120_000);
    let page = page_bytes();

    assert!(
        small_alloc.abs_diff(large_alloc) <= page,
        "first write allocates {small_alloc} B at 6 k rows, {large_alloc} B at 120 k"
    );
    // One page, one spine chunk, the spine and the relation header —
    // nowhere near the ≈ 13 MB of tuples the 120 k-row heap holds.
    assert!(
        large_alloc <= 2 * page,
        "first write allocates {large_alloc} B, a page is {page} B"
    );
    assert!(
        small_freed <= small_alloc && large_freed <= large_alloc,
        "retiring the snapshot frees {small_freed} / {large_freed} B, \
         the write allocated {small_alloc} / {large_alloc} B"
    );
}

#[test]
fn insert_only_commits_do_not_get_dearer_as_the_relation_grows() {
    const COMMITS: usize = 2_000;
    let mut live = relation(0);
    let mut per_commit = Vec::with_capacity(COMMITS);
    // A reader always pins the last published version, so every insert
    // is a first write after a snapshot.
    let mut snap = Arc::clone(&live);
    for i in 0..COMMITS {
        let (_, allocated, _) = counted(|| Arc::make_mut(&mut live).insert(row(i as i64)).unwrap());
        per_commit.push(allocated);
        assert_eq!(snap.len(), i, "the pinned version is untouched");
        snap = Arc::clone(&live);
    }
    let first: usize = per_commit[..100].iter().sum();
    let last: usize = per_commit[COMMITS - 100..].iter().sum();
    assert!(
        last <= 2 * first,
        "last hundred commits allocated {last} B, the first hundred {first} B"
    );
}
