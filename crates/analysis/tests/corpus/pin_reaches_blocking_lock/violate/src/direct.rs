// Blocking acquisitions *in* a pin region: the scope of a `.pin()`
// binding, or the body of a function declared `// pmv::pin_region`.

fn fx_bad(&self) {
    let snap = self.published.pin();
    let guard = self.db.read(); //~ pin_reaches_blocking_lock
}

// pmv::pin_region
fn run_pinned(&self, view: &V) {
    let mut store = inner.store.write(); //~ pin_reaches_blocking_lock
    store.touch(&bcp, true);
}

/// The declaration is the marker, not the name: a wait-free region can
/// be called what it does.
// pmv::pin_region
fn reclaim_retired(&self) {
    let retired = self.retired.lock(); //~ pin_reaches_blocking_lock
    retired.free_unpinned();
}
