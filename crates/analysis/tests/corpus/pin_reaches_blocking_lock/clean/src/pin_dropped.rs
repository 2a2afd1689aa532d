// The pin is dropped before the blocking helper
// runs, so nothing blocks while the epoch is held.

struct Fx;

impl Fx {
    fn serve(&self) -> usize {
        let pinsnap = self.published.pin();
        let n = fx_count(&pinsnap);
        drop(pinsnap);
        n + fx_slow_len(self)
    }
}

fn fx_count(snap: &Snap) -> usize {
    snap.rows()
}

fn fx_slow_len(fx: &Fx) -> usize {
    let g = fx.side.lock();
    g.len()
}
