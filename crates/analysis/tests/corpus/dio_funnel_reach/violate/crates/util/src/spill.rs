// A raw write in a non-durable crate: legal on its own, but not
// reachable from crates/{core,storage,wal} production code.

pub fn fx_spill(path: &Path, bytes: &[u8]) -> Result<(), Error> {
    fs::write(path, bytes)
}
