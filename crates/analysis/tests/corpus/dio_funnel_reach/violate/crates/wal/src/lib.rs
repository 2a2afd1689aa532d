// Only the test module is exempt: the same call above it is a finding.

fn fx_wipe(p: &Path) {
    std::fs::remove_dir_all(p).ok(); //~ dio_funnel_reach
}

#[cfg(test)]
mod tests {}
