// The store guard is acquired *outside* the
// `catch_unwind` closure, so a panic inside leaves the guard with the
// caller and the quarantine handler can still reach the store.

struct Fx;

impl Fx {
    fn fill(&self) {
        let mut store = self.store.write();
        let fill = catch_unwind(AssertUnwindSafe(|| {
            store.clear();
        }));
        drop(fill);
    }
}
