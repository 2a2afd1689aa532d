// The durable-crate function reaches the
// filesystem only through the sanctioned `wal::dio` funnel.

fn fx_flush(path: &Path, bytes: &[u8]) -> Result<(), Error> {
    fx_spill(path, bytes)
}
