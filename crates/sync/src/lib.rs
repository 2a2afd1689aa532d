//! `pmv-sync` — lock-free read primitives for the PMV serving path.
//!
//! One structure: [`LeftRight`], a double-buffered publication cell in
//! the left-right / evmap family. A single value (behind `Arc`) is
//! readable by any number of threads without taking a lock, while
//! writers publish replacement values off the read path:
//!
//! * [`LeftRight::load`] is **wait-free for readers in practice**: one
//!   atomic increment, one atomic load, an `Arc::clone`, and one atomic
//!   decrement. Readers never block on writers; the only retry is the
//!   one-iteration backoff when a publish lands between a reader's slot
//!   pick and its guard increment, and a second flip cannot occur until
//!   that reader's count drains, so the loop is bounded at two
//!   iterations.
//! * [`LeftRight::publish`] swaps in a new `Arc` by writing the
//!   *inactive* slot and flipping the active-slot pointer. Writers
//!   serialize on a mutex and wait (yielding) for straggler readers of
//!   the inactive slot to drain before overwriting it.
//!
//! The serving path uses this twice: the database snapshot pointer
//! (`EpochDb` in `pmv-core`) and each view's published O2 table, which is
//! what lets O2 probes and O3 execution run with no `RwLock` in sight.
//!
//! Memory ordering: the four operations that order readers against the
//! flip — reader guard increment, reader re-check of `active`, writer
//! drain load, writer flip store — are all `SeqCst`, giving a single
//! total order in which either the writer observes the reader's guard
//! (and waits for it) or the reader observes the flip (and backs off
//! before touching the slot). Everything else rides on that order.
//! `SeqCst` here is synchronization, not statistics — this module is
//! the one place in the workspace where atomics guard non-atomic state.

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};
use std::sync::Arc;

use parking_lot::Mutex;

/// Double-buffered `Arc` cell: lock-free reads, mutex-serialized writes.
///
/// ```
/// use std::sync::Arc;
/// use pmv_sync::LeftRight;
///
/// let cell = LeftRight::new(Arc::new(1u64));
/// assert_eq!(*cell.load(), 1);
/// cell.publish(Arc::new(2));
/// assert_eq!(*cell.load(), 2);
/// ```
pub struct LeftRight<T> {
    /// The two versions. A slot is only written while (a) the writer
    /// mutex is held, (b) the slot is inactive, and (c) its reader
    /// count has drained to zero — so no `&Arc` handed to a reader can
    /// alias the overwrite.
    slots: [UnsafeCell<Arc<T>>; 2],
    /// In-flight readers per slot (the "guard" counts).
    readers: [AtomicUsize; 2],
    /// Which slot readers should use (0 or 1).
    active: AtomicUsize,
    /// Serializes publishers.
    write: Mutex<()>,
    /// Monotonic publish counter (diagnostic; `versions()` in tests and
    /// the obs gauge read it).
    version: AtomicUsize,
}

// Readers on many threads clone `Arc<T>` out of the cell and writers
// move `Arc<T>` in, so both directions need `T: Send + Sync`.
unsafe impl<T: Send + Sync> Send for LeftRight<T> {}
unsafe impl<T: Send + Sync> Sync for LeftRight<T> {}

impl<T> LeftRight<T> {
    /// Cell holding `initial` in the active slot.
    pub fn new(initial: Arc<T>) -> Self {
        LeftRight {
            slots: [
                UnsafeCell::new(Arc::clone(&initial)),
                UnsafeCell::new(initial),
            ],
            readers: [AtomicUsize::new(0), AtomicUsize::new(0)],
            active: AtomicUsize::new(0),
            write: Mutex::new(()),
            version: AtomicUsize::new(0),
        }
    }

    /// Current value. Lock-free: never blocks on a publisher, and the
    /// retry loop is bounded (see module docs).
    pub fn load(&self) -> Arc<T> {
        loop {
            let a = self.active.load(SeqCst);
            // Guard the slot before re-checking: publishers flip before
            // they can target this slot again, so seeing `active == a`
            // after the increment proves the slot cannot be overwritten
            // until the matching decrement.
            self.readers[a].fetch_add(1, SeqCst);
            if self.active.load(SeqCst) == a {
                // Safety: the guard count on slot `a` is nonzero and
                // `active == a` was observed after taking the guard, so
                // any concurrent publisher targets the *other* slot or
                // is waiting on our drain.
                let value = unsafe { Arc::clone(&*self.slots[a].get()) };
                self.readers[a].fetch_sub(1, SeqCst);
                return value;
            }
            // A flip landed between the slot pick and the guard; back
            // off and take the new active slot.
            self.readers[a].fetch_sub(1, SeqCst);
            std::hint::spin_loop();
        }
    }

    /// Publish `value`, making it visible to all subsequent [`load`]s.
    /// Blocks (yielding) while straggler readers drain off the slot
    /// being replaced; never blocks readers.
    ///
    /// [`load`]: LeftRight::load
    pub fn publish(&self, value: Arc<T>) {
        let _g = self.write.lock();
        let inactive = 1 - self.active.load(SeqCst);
        // Wait for readers that picked the inactive slot before the
        // previous flip. New readers target the active slot, so this
        // count only drains.
        let mut spins = 0u32;
        while self.readers[inactive].load(SeqCst) != 0 {
            spins += 1;
            if spins < 64 {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
        // Safety: writer mutex held, slot inactive, reader count zero —
        // exclusive access.
        unsafe {
            *self.slots[inactive].get() = value;
        }
        self.active.store(inactive, SeqCst);
        self.version.fetch_add(1, SeqCst);
    }

    /// Number of publishes so far (diagnostic).
    pub fn versions(&self) -> usize {
        self.version.load(SeqCst)
    }

    /// Cheap revalidation hint for per-thread caches: the publish
    /// counter with `Acquire` ordering. A cached value tagged with this
    /// hint is provably no older than the hint's publish; a publish
    /// landing concurrently at worst makes the cache revalidate once
    /// more. This is a *hint*, not the synchronization — slot safety
    /// still rides entirely on the `SeqCst` guard protocol above.
    pub fn version_hint(&self) -> usize {
        self.version.load(std::sync::atomic::Ordering::Acquire)
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for LeftRight<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LeftRight")
            .field("value", &self.load())
            .field("versions", &self.versions())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn load_returns_initial_then_published() {
        let cell = LeftRight::new(Arc::new(10u64));
        assert_eq!(*cell.load(), 10);
        assert_eq!(cell.versions(), 0);
        cell.publish(Arc::new(20));
        assert_eq!(*cell.load(), 20);
        cell.publish(Arc::new(30));
        assert_eq!(*cell.load(), 30);
        assert_eq!(cell.versions(), 2);
    }

    #[test]
    fn old_snapshots_stay_alive_until_dropped() {
        let cell = LeftRight::new(Arc::new(vec![1, 2, 3]));
        let pinned = cell.load();
        cell.publish(Arc::new(vec![4, 5]));
        cell.publish(Arc::new(vec![6]));
        // The pinned reader still sees its version.
        assert_eq!(*pinned, vec![1, 2, 3]);
        assert_eq!(*cell.load(), vec![6]);
    }

    #[test]
    fn no_snapshot_leak_on_drop() {
        static LIVE: AtomicU64 = AtomicU64::new(0);
        struct Counted;
        impl Counted {
            fn new() -> Self {
                LIVE.fetch_add(1, SeqCst);
                Counted
            }
        }
        impl Drop for Counted {
            fn drop(&mut self) {
                LIVE.fetch_sub(1, SeqCst);
            }
        }
        {
            let cell = LeftRight::new(Arc::new(Counted::new()));
            for _ in 0..8 {
                cell.publish(Arc::new(Counted::new()));
            }
            let _pin = cell.load();
        }
        assert_eq!(LIVE.load(SeqCst), 0, "published snapshots leaked");
    }

    #[test]
    fn concurrent_readers_see_only_published_values() {
        let cell = Arc::new(LeftRight::new(Arc::new(0u64)));
        let stop = Arc::new(AtomicU64::new(0));
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let cell = Arc::clone(&cell);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut last = 0u64;
                    while stop.load(SeqCst) == 0 {
                        let v = *cell.load();
                        // Monotonic: a reader never travels back in time.
                        assert!(v >= last, "went backwards: {last} -> {v}");
                        last = v;
                    }
                })
            })
            .collect();
        for i in 1..=1000u64 {
            cell.publish(Arc::new(i));
        }
        stop.store(1, SeqCst);
        for r in readers {
            r.join().unwrap();
        }
        assert_eq!(*cell.load(), 1000);
    }
}
