// The DB master lock acquired *in* the scope of a live store guard.

fn fx_bad(&self) {
    let store = self.store.read();
    let guard = self.db.read(); //~ lock_order
}
