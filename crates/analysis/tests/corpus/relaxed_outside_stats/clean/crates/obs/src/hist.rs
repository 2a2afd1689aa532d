// The whole obs crate is a designated statistics module.

fn fx_bucket(c: &AtomicU64) {
    c.load(Ordering::Relaxed);
}
