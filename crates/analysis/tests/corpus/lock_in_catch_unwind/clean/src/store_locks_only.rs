// The guard is taken outside and the quarantine handler reaches the
// store after the panic. Through a call only *store* locks count: a
// helper that takes an unrelated mutex inside the closure is not what
// strands the store.

fn fx_good(&self) {
    let mut store = self.store.write();
    let r = catch_unwind(AssertUnwindSafe(|| {
        probe_parts(&mut store, &q);
        fx_bump_side_counter(self);
    }));
    if r.is_err() {
        store.quarantine();
    }
}

fn fx_bump_side_counter(fx: &Fx) {
    fx.side.lock().bump();
}
