// The query runs *before* the shard write guard is
// taken — compute first, lock second. No rule should fire.

struct Fx;

impl Fx {
    fn fill_precomputed(&self, db: &Db, q: &Query) {
        let rows = fx_run_query(db, q);
        let mut store = self.shards[0].write();
        store.extend(rows);
    }
}

fn fx_run_query(db: &Db, q: &Query) -> Vec<Row> {
    execute(db, q).unwrap()
}
