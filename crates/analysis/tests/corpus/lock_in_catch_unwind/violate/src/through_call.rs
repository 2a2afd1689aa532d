// The closure passed to `catch_unwind` calls a helper that acquires a
// store lock: textually the closure is lock-free, the violation is a
// call away.

struct Fx;

impl Fx {
    fn fill(&self) {
        let fill = catch_unwind(AssertUnwindSafe(|| {
            fx_touch_store(self); //~ lock_in_catch_unwind
        }));
        drop(fill);
    }
}

fn fx_touch_store(fx: &Fx) {
    let mut store = fx.store.write();
    store.clear();
}
