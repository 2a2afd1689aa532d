//! Hit counters for the admission filter; they are statistics, not synchronization.

fn fx_hits(c: &AtomicU64) {
    c.load(Ordering::Relaxed);
}
