//! Per-layer values of a traced trial, and the explained shares that
//! reconcile the cost ladder with the measured wall times.

use std::collections::BTreeMap;

use pmv_core::{HistSnapshot, Phase, PmvStats};
use pmv_query::SnapStats;

use crate::fixture::{Fixture, Spec, F, SHARDS};
use crate::report::{push, ratio, Series};
use crate::stats::explained_share;
use crate::trial::Trial;

/// Counters the harness reads off the program around a trial.
#[derive(Clone, Copy)]
pub struct Counters {
    stats: PmvStats,
    evictions: u64,
    snap: SnapStats,
    wal_bytes: u64,
}

pub fn counters(fx: &Fixture) -> Counters {
    Counters {
        stats: fx.pmv.stats(),
        evictions: fx.pmv.evictions(),
        snap: fx.edb.snap_stats(),
        wal_bytes: fx.edb.durability().map_or(0, |d| d.active_segment_bytes()),
    }
}

/// Per-layer values of one traced trial: the trial's own sums, counter
/// deltas since `before`, and the obs histograms (reset before the
/// trial). Two identities hold by construction, so unattributed time is
/// a number:
///
/// - query wall = o1 + o2 + exec + o3_overhead + unattributed
/// - commit wall = apply + wal + maint + publish + unattributed
pub fn per_layer_of(fx: &Fixture, t: &Trial, before: &Counters, series: &mut Series) {
    let after = counters(fx);
    let (q, c) = (t.queries as f64, t.commits as f64);
    let kq = q / 1e3;
    let delta = |f: fn(&PmvStats) -> u64| (f(&after.stats) - f(&before.stats)) as f64;
    let view_hist = |p: Phase| fx.pmv.obs().snapshot(p);
    let db_hist = |p: Phase| fx.edb.obs().snapshot(p);
    let sum_us = |h: &HistSnapshot| h.sum_ns() as f64 / 1e3;
    let quantile_us = |h: &HistSnapshot, p: f64| h.quantile(p).as_nanos() as f64 / 1e3;
    let per_query_us = |ns: u64| ratio(ns as f64 / 1e3, q);

    let query_wall = per_query_us(t.query_ns);
    let (o1, o2) = (per_query_us(t.o1_ns), per_query_us(t.o2_ns));
    let (exec, o3) = (per_query_us(t.exec_ns), per_query_us(t.o3_overhead_ns));

    // `maint_join` spans the whole of `SharedPmv::maintain`, index
    // lookups and shard locks included, so it alone is the maint phase.
    let commit_wall = ratio(t.commit_ns as f64 / 1e3, c);
    let apply = ratio(t.apply_ns as f64 / 1e3, c);
    let (append, fsync) = (db_hist(Phase::wal_append), db_hist(Phase::wal_fsync));
    let wal = ratio(sum_us(&append) + sum_us(&fsync), c);
    let maint = ratio(sum_us(&view_hist(Phase::maint_join)), c);
    let publish_hist = db_hist(Phase::snapshot_publish);
    let publish = ratio(sum_us(&publish_hist), c);

    let reused = (after.snap.reused - before.snap.reused) as f64;
    let recaptured = (after.snap.recaptured - before.snap.recaptured) as f64;
    let batches = fx.edb.batch_size_hist();

    let rows: [(&'static str, f64); 37] = [
        ("core.query_wall_us_per_query", query_wall),
        ("core.o1_us_per_query", o1),
        ("core.o2_us_per_query", o2),
        ("query.exec_us_per_query", exec),
        ("core.o3_overhead_us_per_query", o3),
        // Pin, scratch, outcome build, and freeing the snapshot a commit
        // retired: what the phase timers do not cover.
        (
            "core.unattributed_us_per_query",
            query_wall - o1 - o2 - exec - o3,
        ),
        // The paper's Fig. 8-10 ratio: everything but execution, over wall.
        (
            "core.overhead_share",
            ratio(
                t.query_ns.saturating_sub(t.exec_ns) as f64,
                t.query_ns as f64,
            ),
        ),
        (
            "core.partial_tuples_per_query",
            ratio(t.partial_tuples as f64, q),
        ),
        ("core.parts_per_query", ratio(t.parts as f64, q)),
        (
            "query.tuples_examined_per_result",
            ratio(t.tuples_examined as f64, t.results as f64),
        ),
        (
            "query.index_probes_per_query",
            ratio(t.index_probes as f64, q),
        ),
        ("core.store_entries", fx.pmv.entry_count() as f64),
        ("core.store_tuples", fx.pmv.tuple_count() as f64),
        (
            "cache.evictions_per_kq",
            ratio((after.evictions - before.evictions) as f64, kq),
        ),
        // The store counts admitted tuples, not admitted bcps.
        (
            "cache.admissions_per_kq",
            ratio(delta(|s| s.tuples_admitted), kq),
        ),
        (
            "cache.probations_per_kq",
            ratio(delta(|s| s.probations), kq),
        ),
        ("core.upqueries_per_kq", ratio(delta(|s| s.upqueries), kq)),
        (
            "core.maint_tuples_removed_per_commit",
            ratio(delta(|s| s.maint_tuples_removed), c),
        ),
        (
            "core.maint_index_removals_per_commit",
            ratio(delta(|s| s.maint_index_removals), c),
        ),
        (
            "core.maint_join_rows_per_commit",
            ratio(delta(|s| s.maint_join_rows), c),
        ),
        ("core.commit_wall_us_per_commit", commit_wall),
        ("storage.apply_us_per_commit", apply),
        ("wal.us_per_commit", wal),
        ("core.maint_us_per_commit", maint),
        ("query.snapshot_publish_us_per_commit", publish),
        (
            "core.commit_unattributed_us",
            commit_wall - apply - wal - maint - publish,
        ),
        (
            "query.snapshot_publish_us_p50",
            quantile_us(&publish_hist, 0.5),
        ),
        ("query.snap_reuse_ratio", ratio(reused, reused + recaptured)),
        (
            "core.commit_drain_us_p50",
            quantile_us(&db_hist(Phase::commit_drain), 0.5),
        ),
        (
            "core.lock_master_wait_us_p99",
            quantile_us(&db_hist(Phase::lock_master_commit), 0.99),
        ),
        (
            "core.mean_batch_size",
            ratio(batches.sum_ns() as f64, batches.count() as f64),
        ),
        ("core.pin_cache_hit_rate", fx.edb.pin_cache_hit_rate()),
        (
            "sync.epoch_pin_us_p50",
            quantile_us(&view_hist(Phase::epoch_pin), 0.5),
        ),
        ("wal.append_us_p50", quantile_us(&append, 0.5)),
        ("wal.fsync_us_p50", quantile_us(&fsync, 0.5)),
        (
            "wal.bytes_per_commit",
            ratio((after.wal_bytes - before.wal_bytes) as f64, c),
        ),
        ("wal.fsyncs_per_commit", ratio(fsync.count() as f64, c)),
    ];
    for (name, v) in rows {
        push(series, name, v);
    }
}

/// Ladder cost × count ÷ wall, for the mean query and the mean commit
/// of the traced trials. WAL time has no isolated rung; its in-place
/// obs mean stands in.
pub fn explained_shares(spec: &Spec, v: &BTreeMap<&'static str, f64>) -> (f64, f64) {
    let g = |k: &str| v.get(k).copied().unwrap_or(0.0);
    let us = |k: &str| g(k) / 1e3;
    let parts = g("core.parts_per_query");
    let query = explained_share(
        &[
            (g("query.plain_exec_us"), 1.0),
            (us("core.o1_decompose_ns"), 1.0),
            (us("core.store_lookup_ns"), parts),
            (us("cache.clock_touch_ns"), parts),
            (us("sync.leftright_load_ns"), parts.min(SHARDS as f64)),
            (us("core.ds_ns"), g("core.partial_tuples_per_query")),
            // A fill is one bcp's F tuples.
            (
                us("core.store_fill_ns"),
                g("cache.admissions_per_kq") / 1e3 / F as f64,
            ),
            (
                us("cache.clock_evict_ns"),
                g("cache.evictions_per_kq") / 1e3,
            ),
        ],
        g("core.query_wall_us_per_query"),
    );
    // Half the commits carry two deltas (replace), half one (update);
    // `lineitem` has two indexes.
    let commit = explained_share(
        &[
            (g("storage.cow_first_write_us"), 1.0),
            (us("index.apply_delta_ns"), 1.5 * 2.0),
            (g("wal.us_per_commit"), if spec.durable { 1.0 } else { 0.0 }),
            (
                us("core.delta_index_ns"),
                g("core.maint_index_removals_per_commit"),
            ),
            (us("sync.leftright_publish_ns"), 1.0 + SHARDS as f64),
        ],
        g("core.commit_wall_us_per_commit"),
    );
    (query, commit)
}
