// While an epoch pin is live the serving path calls a helper that
// blocks on a mutex. The pin region itself is textually lock-free; the
// violation is a call away.

struct Fx;

impl Fx {
    fn serve(&self) -> usize {
        let pinsnap = self.published.pin();
        let n = fx_slow_len(self); //~ pin_reaches_blocking_lock
        drop(pinsnap);
        n
    }
}

fn fx_slow_len(fx: &Fx) -> usize {
    let g = fx.side.lock();
    g.len()
}
