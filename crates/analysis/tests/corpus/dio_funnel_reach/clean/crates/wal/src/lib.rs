// Read-side APIs are not writes, and unit tests embedded in src files
// (scratch dirs, damage helpers) are not production write paths.

fn fx_load(p: &Path) -> Vec<u8> {
    std::fs::read(p).unwrap()
}

#[cfg(test)]
mod tests {
    fn fx_scratch(p: &Path) {
        std::fs::remove_dir_all(p).ok();
    }
}
