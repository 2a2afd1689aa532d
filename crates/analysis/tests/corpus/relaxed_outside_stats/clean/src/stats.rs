// `stats.rs` is where counters live.

fn fx_count(c: &AtomicU64) {
    c.fetch_add(1, Ordering::Relaxed);
}
