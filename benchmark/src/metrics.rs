//! The metric names and units the benchmark prints — the same lists
//! `BENCHMARK.json` declares (a test holds the two together).

/// End-to-end metrics with a regression bound: what a user of the system
/// sees and this host measures steadily. Printed by an untraced run
/// (`--trace 0`).
pub const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("hit_ratio", "ratio"),
    ("view_bytes", "B"),
];

/// Per-layer metrics, layer = crate. Printed by a traced run
/// (`--trace 1`). `wal.*` timings are 0 on workloads without a WAL.
///
/// The first seven, without a layer prefix, are user-visible metrics
/// whose run-to-run spread on unchanged code is above 0.10 on some
/// workload (`CALIBRATION.md`): the six timed ones on this host, and the
/// peak resident set on `mixed_2t`. They are listed here, unbounded;
/// every run prints them, and a traced run takes the timed ones from its
/// untraced trials.
pub const PER_LAYER: [(&str, &str); 69] = [
    ("query_qps", "1/s"),
    ("query_p50_us", "us"),
    ("query_p99_us", "us"),
    ("ttfr_p50_us", "us"),
    ("commit_tps", "1/s"),
    ("commit_p50_us", "us"),
    ("peak_rss_mb", "MiB"),
    ("storage.apply_us_per_commit", "us"),
    ("storage.cow_first_write_us", "us"),
    ("storage.get_ns", "ns"),
    ("storage.scan_ns_per_row", "ns"),
    ("index.btree_get_ns", "ns"),
    ("index.hash_get_ns", "ns"),
    ("index.apply_delta_ns", "ns"),
    ("index.build_s", "s"),
    ("query.exec_us_per_query", "us"),
    ("query.tuples_examined_per_result", "ratio"),
    ("query.index_probes_per_query", "count"),
    ("query.plain_exec_us", "us"),
    ("query.bind_ns", "ns"),
    ("query.snapshot_publish_us_p50", "us"),
    ("query.snapshot_publish_us_per_commit", "us"),
    ("query.snap_reuse_ratio", "ratio"),
    ("cache.evictions_per_kq", "count"),
    ("cache.admissions_per_kq", "count"),
    ("cache.probations_per_kq", "count"),
    ("cache.clock_touch_ns", "ns"),
    ("cache.clock_evict_ns", "ns"),
    ("core.query_wall_us_per_query", "us"),
    ("core.o1_us_per_query", "us"),
    ("core.o2_us_per_query", "us"),
    ("core.o3_overhead_us_per_query", "us"),
    ("core.unattributed_us_per_query", "us"),
    ("core.overhead_share", "ratio"),
    ("core.partial_tuples_per_query", "count"),
    ("core.parts_per_query", "count"),
    ("core.store_entries", "count"),
    ("core.store_tuples", "count"),
    ("core.commit_wall_us_per_commit", "us"),
    ("core.maint_us_per_commit", "us"),
    ("core.maint_tuples_removed_per_commit", "count"),
    ("core.maint_index_removals_per_commit", "count"),
    ("core.maint_join_rows_per_commit", "count"),
    ("core.upqueries_per_kq", "count"),
    ("core.commit_drain_us_p50", "us"),
    ("core.lock_master_wait_us_p99", "us"),
    ("core.mean_batch_size", "count"),
    ("core.pin_cache_hit_rate", "ratio"),
    ("core.commit_unattributed_us", "us"),
    ("core.o1_decompose_ns", "ns"),
    ("core.store_lookup_ns", "ns"),
    ("core.store_fill_ns", "ns"),
    ("core.ds_ns", "ns"),
    ("core.delta_index_ns", "ns"),
    ("core.query_explained_share", "ratio"),
    ("core.commit_explained_share", "ratio"),
    ("sync.leftright_load_ns", "ns"),
    ("sync.leftright_publish_ns", "ns"),
    ("sync.epoch_pin_us_p50", "us"),
    ("wal.us_per_commit", "us"),
    ("wal.append_us_p50", "us"),
    ("wal.fsync_us_p50", "us"),
    ("wal.bytes_per_commit", "B"),
    ("wal.fsyncs_per_commit", "count"),
    ("wal.checkpoint_ms", "ms"),
    ("wal.recovery_ms", "ms"),
    ("obs.trace_overhead_pct", "%"),
    ("obs.traced_query_qps", "1/s"),
    ("workload.gen_ns_per_op", "ns"),
];

#[cfg(test)]
mod tests {
    use super::*;

    /// `[(name, unit)]` of one metric list of `BENCHMARK.json`.
    fn declared(doc: &serde_json::Value, list: &str) -> Vec<(String, String)> {
        doc[list]
            .as_array()
            .expect("metric list")
            .iter()
            .map(|m| {
                (
                    m["name"].as_str().expect("name").to_string(),
                    m["unit"].as_str().expect("unit").to_string(),
                )
            })
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_the_printed_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = serde_json::from_str(&text).expect("valid JSON");
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(declared(&doc, "end_to_end"), own(&END_TO_END));
        assert_eq!(declared(&doc, "per_layer"), own(&PER_LAYER));
        let workloads: Vec<&str> = doc["workloads"]
            .as_array()
            .expect("workloads")
            .iter()
            .map(|w| w["name"].as_str().expect("name"))
            .collect();
        assert_eq!(workloads, crate::fixture::workload_names());
    }
}
