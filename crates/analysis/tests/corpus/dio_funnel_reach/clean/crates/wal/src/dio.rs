// The sanctioned funnel: raw writes are allowed here, and reaching the
// filesystem *through* this module is exactly the contract.

pub fn fx_spill(path: &Path, bytes: &[u8]) -> Result<(), Error> {
    fs::write(path, bytes)
}
