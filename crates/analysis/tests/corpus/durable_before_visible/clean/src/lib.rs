// The canonical commit shape. The WAL append
// (which reaches an fsync) lexically dominates the publish, and the
// error arm rolls the round back with exact inverses and returns before
// any snapshot becomes visible.

struct Fx;

impl Fx {
    fn commit_round(&self, batches: &[Batch]) {
        if let Err(e) = self.wal.append_commit(batches) {
            for batch in batches.iter().rev() {
                self.db.undo_delta_exact(batch.relation(), batch.delta());
            }
            fx_report(&e);
            return;
        }
        let snap = self.db.snapshot();
        self.published.publish(snap);
    }
}

struct Wal;

impl Wal {
    fn append_commit(&self, batches: &[Batch]) -> Result<(), Error> {
        self.file.write_records(batches);
        self.file.sync_all()
    }
}

fn fx_report(err: &Error) {
    log_line(err);
}
