// Executor entry points called *in* the scope of a live store write
// guard: the offending site is in the region itself.

fn fx_bad(db: &Database) {
    let mut store = self.store.write();
    let (rows, _) = execute(db, &q).unwrap(); //~ write_guard_across_exec
    store.insert(rows);
}

// The shape `SharedPmv::revalidate` had before it was split in two
// phases: the guard held across the executor-driven ground-truth reads.
fn fx_revalidate_one_phase(&self, db: &Database) {
    let mut store = inner.store.write();
    let truths = bcp_truths(db, &inner.def, &keys).unwrap();
    let (rows, _) = execute(db, &q).unwrap(); //~ write_guard_across_exec
    for (bcp, mut budget) in truths {
        remove_stale(&mut store, &bcp, &mut budget);
    }
}

// A targeted upquery is a keyed executor run: refilling a drained bcp
// under the guard is the same hazard as a full `execute` under it.
fn fx_refill_under_guard(&self, view: &DataView, qi: &QueryInstance) {
    let mut store = inner.store.write();
    let (rows, _) = upquery_fill(view, qi, budget).unwrap(); //~ write_guard_across_exec
    for t in rows {
        store.push_arc(&bcp, t);
    }
}

// `full_join` reaches the level loop through `execute_with_conditions`:
// materializing the containing view is executor work too.
fn fx_materialize_under_guard(&self, db: &Database, t: &QueryTemplate) {
    let mut store = self.store.write();
    let (all, _) = full_join(db, t).unwrap(); //~ write_guard_across_exec
    store.extend(all);
}
