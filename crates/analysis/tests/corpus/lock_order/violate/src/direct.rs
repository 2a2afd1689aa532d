// The DB master lock acquired *in* the scope of a live shard guard.

fn fx_bad(&self) {
    let store = self.shards[si].read();
    let guard = self.db.read(); //~ lock_order
}
