// DB master lock first, store guard second, and the
// helper called under both touches no lock at all.

struct Fx;

impl Fx {
    fn ordered(&self) {
        let guard = self.db.read();
        let store = self.store.read();
        fx_stat(&guard, &store);
        drop(store);
        drop(guard);
    }
}

fn fx_stat(guard: &DbGuard, store: &Store) -> usize {
    guard.len() + store.len()
}
