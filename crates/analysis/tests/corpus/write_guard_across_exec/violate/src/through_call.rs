// A shard write guard held across a *helper* that reaches an executor
// entry point: the guard scope contains no `execute(` textually, the
// violation is a call away.

struct Fx;

impl Fx {
    fn fill_under_guard(&self, db: &Db, q: &Query) {
        let mut store = self.shards[0].write();
        let rows = fx_run_query(db, q); //~ write_guard_across_exec
        store.extend(rows);
    }
}

fn fx_run_query(db: &Db, q: &Query) -> Vec<Row> {
    execute(db, q).unwrap()
}
