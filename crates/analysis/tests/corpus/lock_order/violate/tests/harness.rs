// Test code (a `tests/` directory under the scan root). A direct site
// reports here too — a test that inverts the lock order deadlocks like
// anything else — but a call does not: tests drive the protocols from
// outside, and the callee's own body is checked where it lives.

fn fx_test_inverts_directly(&self) {
    let store = self.store.write();
    let guard = self.db.write(); //~ lock_order
}

fn fx_test_calls_a_locker(&self) {
    let store = self.store.write();
    fx_test_master_sync(self);
}

fn fx_test_master_sync(fx: &Fx) {
    let guard = fx.db.read();
    drop(guard);
}
