// A helper called under a live store guard acquires the DB
// master lock — the reverse of the sanctioned DB-then-store order, one
// call deep.

struct Fx;

impl Fx {
    fn reorder(&self) {
        let store = self.store.read();
        fx_master_sync(self); //~ lock_order
        drop(store);
    }
}

fn fx_master_sync(fx: &Fx) {
    let guard = fx.db.read();
    drop(guard);
}
