// What does not make a finding in or around a pin region.

// Dropping the pin ends the region.
fn fx_good(&self) {
    let snap = self.published.pin();
    fx_serve(&snap);
    drop(snap);
    let guard = self.db.read();
}

// Best-effort `try_write` is the sanctioned write-back on the pinned
// path: it never waits.
// pmv::pin_region
fn run_pinned(&self, view: &V) {
    let sv = inner.views[si].load();
    let Some(mut store) = inner.shards[si].try_write() else {
        return;
    };
    store.touch(&bcp, true);
    run_pinned_publish(self);
}

// A declared region carries its own verdicts and escapes: the call
// above is not flagged a second time for the lock excused here.
// pmv::pin_region
fn run_pinned_publish(fx: &Fx) {
    // pmv::allow(pin_reaches_blocking_lock): writer-side mutex, fills only
    let w = fx.writer.lock();
    w.swap();
}

// Not declared, so not a region, whatever it is called.
fn run_pinned_helper(fx: &Fx) {
    let g = fx.side.lock();
    g.len();
}
