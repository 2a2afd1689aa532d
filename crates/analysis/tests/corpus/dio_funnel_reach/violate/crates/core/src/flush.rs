// A durable-crate function reaches a raw filesystem write through a
// helper in a *non-durable* crate: nothing in this file writes, the
// violation is a call away.

fn fx_flush(path: &Path, bytes: &[u8]) -> Result<(), Error> {
    fx_spill(path, bytes) //~ dio_funnel_reach
}
