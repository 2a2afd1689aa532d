// Crates outside the durable set are unconstrained (the CLI reads
// scripts, benches write JSON, …).

fn fx_export(p: &Path) {
    std::fs::write(p, b"x").unwrap();
}
