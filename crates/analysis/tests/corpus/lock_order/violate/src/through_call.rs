// A helper called under a live shard guard acquires the DB
// master lock — the reverse of the sanctioned DB-then-shard order, one
// call deep.

struct Fx;

impl Fx {
    fn reorder(&self) {
        let store = self.shards[1].read();
        fx_master_sync(self); //~ lock_order
        drop(store);
    }
}

fn fx_master_sync(fx: &Fx) {
    let guard = fx.db.read();
    drop(guard);
}
