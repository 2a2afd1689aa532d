// A raw filesystem write *in* a durable crate's production code.

fn fx_save(p: &Path) {
    std::fs::write(p, b"x").unwrap(); //~ dio_funnel_reach
}
