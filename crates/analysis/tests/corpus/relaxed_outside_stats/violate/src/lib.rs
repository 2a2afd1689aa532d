// A relaxed atomic in a module nobody designated for statistics.

fn fx_peek(c: &AtomicU64) {
    c.load(Ordering::Relaxed); //~ relaxed_outside_stats
}
