// Lock acquisitions *in* a `catch_unwind` closure. Directly, any
// blocking acquire counts — shard lock or not.

fn fx_bad(&self) {
    let r = catch_unwind(AssertUnwindSafe(|| {
        let mut store = self.shards[si].write(); //~ lock_in_catch_unwind
        store.insert(1);
    }));
}

fn fx_side_table(&self) {
    let r = catch_unwind(AssertUnwindSafe(|| {
        self.side.lock().clear(); //~ lock_in_catch_unwind
    }));
}
