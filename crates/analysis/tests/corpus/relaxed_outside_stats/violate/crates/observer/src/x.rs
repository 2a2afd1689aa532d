// A directory merely *containing* "obs" in its name is not the obs crate.

fn fx_peek_observer(c: &AtomicU64) {
    c.load(Ordering::Relaxed); //~ relaxed_outside_stats
}
