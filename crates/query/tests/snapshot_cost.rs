//! Exact check that a snapshot is O(1): a counting global allocator
//! shows that `Database::snapshot` and `Database::publish_snapshot`
//! allocate nothing on a database of 64 relations and 3 indexes, and
//! `SnapStats` shows that a publish shares every relation the writes
//! since the previous one did not touch.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use pmv_index::IndexDef;
use pmv_query::{Database, SnapStats};
use pmv_storage::{tuple, Column, ColumnType, Schema};

thread_local! {
    // Per thread, so tests running side by side do not see each other.
    // Const-initialised and without a destructor: safe to touch from
    // inside the allocator.
    static ALLOCATED: Cell<usize> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`; the counter is
// a plain thread-local cell that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATED.try_with(|c| c.set(c.get() + layout.size()));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Bytes allocated on this thread while `f` ran.
fn counted<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCATED.with(Cell::get);
    let out = f();
    (out, ALLOCATED.with(Cell::get) - before)
}

const RELATIONS: usize = 64;

fn name(i: usize) -> String {
    format!("r{i:02}")
}

/// 64 relations `rNN(a, b)` of 8 rows each, with indexes on `r00.a`,
/// `r01.a` and `r02.b`.
fn db() -> Database {
    let mut db = Database::new();
    for i in 0..RELATIONS {
        let columns = vec![
            Column::new("a", ColumnType::Int),
            Column::new("b", ColumnType::Int),
        ];
        db.create_relation(Schema::new(name(i), columns)).unwrap();
        db.load(&name(i), (0..8i64).map(|k| tuple![k, k % 3]))
            .unwrap();
    }
    db.create_index(IndexDef::btree("r00", vec![0])).unwrap();
    db.create_index(IndexDef::hash("r01", vec![0])).unwrap();
    db.create_index(IndexDef::btree("r02", vec![1])).unwrap();
    db
}

/// `(recaptured, reused)` added between two readings.
fn added(before: SnapStats, after: SnapStats) -> (u64, u64) {
    (
        after.recaptured - before.recaptured,
        after.reused - before.reused,
    )
}

#[test]
fn snapshot_and_publish_allocate_nothing() {
    let mut db = db();
    let (cold, allocated) = counted(|| db.publish_snapshot());
    assert_eq!(allocated, 0, "the cold publish allocated {allocated} B");
    let (snap, allocated) = counted(|| db.snapshot());
    assert_eq!(allocated, 0, "snapshot() allocated {allocated} B");
    let (warm, allocated) = counted(|| db.publish_snapshot());
    assert_eq!(allocated, 0, "an idle publish allocated {allocated} B");
    // A write to an indexed relation while all three snapshots pin the
    // state: the write pays for its new versions, the publish for none.
    db.insert("r00", tuple![100i64, 1i64]).unwrap();
    let (after_write, allocated) = counted(|| db.publish_snapshot());
    assert_eq!(
        allocated, 0,
        "a publish after a write allocated {allocated} B"
    );
    for pinned in [&cold, &snap, &warm] {
        assert_eq!(pinned.len("r00").unwrap(), 8, "a pinned snapshot moved");
    }
    assert_eq!(after_write.len("r00").unwrap(), 9);
}

#[test]
fn publish_counts_the_written_relation_only() {
    let mut db = db();
    let _first = db.publish_snapshot();
    let before = db.snap_stats();
    db.insert("r05", tuple![100i64, 1i64]).unwrap();
    let _second = db.publish_snapshot();
    let after_write = db.snap_stats();
    assert_eq!(
        added(before, after_write),
        (1, RELATIONS as u64 - 1),
        "one insert into one relation"
    );
    let _third = db.publish_snapshot();
    assert_eq!(
        added(after_write, db.snap_stats()),
        (0, RELATIONS as u64),
        "no write in between"
    );
}
