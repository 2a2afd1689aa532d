// A guard's scope ends at its block or at `drop(guard)`; comment and
// string contents are not code; an escape suppresses and is counted.

fn fx_good(db: &Database) {
    {
        let mut store = self.shards[si].write();
        store.insert(1);
    }
    let (rows, _) = execute(db, &q).unwrap();
    let mut store = self.shards[si].write();
    drop(store);
    let (more, _) = execute_bounded(db, &q, budget).unwrap();
}

// The two-phase shape `SharedPmv::revalidate` has: snapshot keys under
// a read guard, run the executor guard-free, then take the write guard
// for the removal.
fn fx_revalidate_two_phase(&self, db: &Database) {
    let keys: Vec<BcpKey> = {
        let store = shard.read();
        store.keys().cloned().collect()
    };
    let truths = bcp_truths(db, &inner.def, &keys).unwrap();
    let mut store = shard.write();
    for (bcp, mut budget) in truths {
        remove_stale(&mut store, &bcp, &mut budget);
    }
}

fn fx_not_code() {
    // let g = shards[0].write(); execute(db, &q);
    let msg = "shards[0].write() then execute(db)";
}

fn fx_special(db: &Database) {
    let mut store = self.shards[si].write();
    // pmv::allow(write_guard_across_exec): measured, see DESIGN.md
    let (rows, _) = execute(db, &q).unwrap();
}
