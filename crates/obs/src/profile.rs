//! Profile report model: "can answer why", not just "has metrics".
//!
//! This module is the pure half of `pmv-profile`: plain report structs
//! plus ranking and rendering. It consumes either live
//! [`HistSnapshot`]s (the CLI `profile` command over a running session)
//! or already-quantized numbers parsed out of flight-recorder dumps
//! (the `pmv-profile` binary) — file I/O and JSON parsing stay in
//! `pmv-cli`, keeping `pmv-obs` dependency-free.
//!
//! The report answers the three questions ROADMAP item 1 needs answered
//! before the next perf PR:
//!
//! 1. **Where do threads wait?** — contention sites ranked by total
//!    wait time, with per-site p50/p99/max.
//! 2. **Which templates cost the most?** — per-template serving +
//!    maintenance cost, derived from each view's counters and phase
//!    histograms when the report is assembled.
//! 3. **Where does a pass spend its time?** — pipeline stage breakdown
//!    with each stage's share of total recorded time.

use crate::hist::HistSnapshot;
use std::fmt::Write as _;

/// Phase names that measure lock *wait* rather than work — the
/// contention half of the phase enum. Kept in one place so the
/// classifier in [`split_phases`] and the docs stay in sync.
pub const CONTENTION_PHASES: [&str; 3] =
    ["lock_shard_fill", "lock_shard_maint", "lock_master_commit"];

/// One ranked contention site.
#[derive(Clone, Debug, PartialEq)]
pub struct ContentionSite {
    /// Site name (a `lock_*` phase, e.g. `lock_master_commit`).
    pub site: String,
    /// Lock acquisitions timed.
    pub count: u64,
    /// Median wait, microseconds.
    pub wait_p50_us: u64,
    /// p99 wait, microseconds.
    pub wait_p99_us: u64,
    /// Worst wait, microseconds.
    pub wait_max_us: u64,
    /// Total wait across all acquisitions, microseconds — the ranking
    /// key (many cheap waits and few catastrophic ones both surface).
    pub total_wait_us: u64,
}

impl ContentionSite {
    /// Build from a live histogram snapshot.
    pub fn from_snapshot(site: &str, snap: &HistSnapshot) -> Self {
        ContentionSite {
            site: site.to_string(),
            count: snap.count(),
            wait_p50_us: snap.quantile(0.5).as_micros() as u64,
            wait_p99_us: snap.quantile(0.99).as_micros() as u64,
            wait_max_us: snap.max().as_micros() as u64,
            total_wait_us: snap.sum_ns() / 1_000,
        }
    }
}

/// One template ranked by cost. Nothing records into this: the host
/// fills it at report time from the view's counters, its `ttfr` / `full`
/// / `maint_join` phase histograms and its store size
/// (`SharedPmv::template_cost` in `pmv-core`).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TemplateCost {
    /// Template id.
    pub template: String,
    /// Queries recorded.
    pub queries: u64,
    /// O2 hit rate in `[0, 1]`.
    pub hit_rate: f64,
    /// Median time-to-first-result, microseconds.
    pub ttfr_p50_us: u64,
    /// p99 time-to-first-result, microseconds.
    pub ttfr_p99_us: u64,
    /// p99 full-result latency, microseconds.
    pub full_p99_us: u64,
    /// Cumulative O3 tuples examined.
    pub o3_rows_scanned: u64,
    /// Cumulative maintenance join time, microseconds.
    pub maint_join_us: u64,
    /// Bytes resident in the template's view store.
    pub bytes_resident: u64,
    /// Ranking key: serving + maintenance wall time, microseconds.
    pub cost_us: u64,
}

/// One pipeline stage's share of recorded time.
#[derive(Clone, Debug, PartialEq)]
pub struct PipelineStage {
    /// Stage (phase) name, e.g. `o2_probe`, `commit_drain`, `wal_fsync`.
    pub stage: String,
    /// Samples recorded.
    pub count: u64,
    /// Median, microseconds.
    pub p50_us: u64,
    /// p99, microseconds.
    pub p99_us: u64,
    /// Total recorded time, microseconds.
    pub total_us: u64,
    /// Share of the report's total recorded stage time, percent.
    /// Filled by [`ProfileReport::rank`].
    pub share_pct: f64,
}

impl PipelineStage {
    /// Build from a live histogram snapshot (share filled at rank time).
    pub fn from_snapshot(stage: &str, snap: &HistSnapshot) -> Self {
        PipelineStage {
            stage: stage.to_string(),
            count: snap.count(),
            p50_us: snap.quantile(0.5).as_micros() as u64,
            p99_us: snap.quantile(0.99).as_micros() as u64,
            total_us: snap.sum_ns() / 1_000,
            share_pct: 0.0,
        }
    }
}

/// Split phase snapshots into (contention sites, pipeline stages):
/// `lock_*` phases measure waiting, everything else measures work.
/// Aggregate phases (`ttfr`, `full`) are excluded from the stage
/// breakdown — they span the others and would double-count.
pub fn split_phases(
    phases: &[(&'static str, HistSnapshot)],
) -> (Vec<ContentionSite>, Vec<PipelineStage>) {
    let mut contention = Vec::new();
    let mut stages = Vec::new();
    for (name, snap) in phases {
        if snap.count() == 0 {
            continue;
        }
        if CONTENTION_PHASES.contains(name) {
            contention.push(ContentionSite::from_snapshot(name, snap));
        } else if *name != "ttfr" && *name != "full" {
            stages.push(PipelineStage::from_snapshot(name, snap));
        }
    }
    (contention, stages)
}

/// The assembled profile.
#[derive(Clone, Debug, Default)]
pub struct ProfileReport {
    /// Where the data came from (live session or spool paths).
    pub source: String,
    /// Contention sites; ranked by total wait after [`ProfileReport::rank`].
    pub contention: Vec<ContentionSite>,
    /// Templates; ranked by cost after [`ProfileReport::rank`].
    pub templates: Vec<TemplateCost>,
    /// Pipeline stages; ranked by total time after [`ProfileReport::rank`].
    pub pipeline: Vec<PipelineStage>,
    /// Free-form observations (flight-dump reasons, dropped-data notes).
    pub notes: Vec<String>,
}

impl ProfileReport {
    /// Sort every section by its ranking key (descending) and fill
    /// pipeline shares. Call once after assembly, before rendering.
    pub fn rank(&mut self) {
        self.contention
            .sort_by_key(|s| std::cmp::Reverse(s.total_wait_us));
        self.templates.sort_by_key(|t| std::cmp::Reverse(t.cost_us));
        self.pipeline.sort_by_key(|s| std::cmp::Reverse(s.total_us));
        let total: u64 = self.pipeline.iter().map(|s| s.total_us).sum();
        if total > 0 {
            for s in &mut self.pipeline {
                s.share_pct = s.total_us as f64 * 100.0 / total as f64;
            }
        }
    }

    /// The hottest contention site (after [`ProfileReport::rank`]).
    pub fn top_contention(&self) -> Option<&ContentionSite> {
        self.contention.first()
    }

    /// Human-readable report.
    pub fn render_human(&self) -> String {
        let mut out = String::with_capacity(2048);
        let _ = writeln!(out, "pmv-profile report — {}", self.source);

        out.push_str("\n== contention sites (by total wait) ==\n");
        if self.contention.is_empty() {
            out.push_str("  (no lock waits recorded)\n");
        } else {
            let _ = writeln!(
                out,
                "  {:<20} {:>10} {:>10} {:>10} {:>10} {:>12}",
                "site", "acquires", "p50_us", "p99_us", "max_us", "total_ms"
            );
            for c in &self.contention {
                let _ = writeln!(
                    out,
                    "  {:<20} {:>10} {:>10} {:>10} {:>10} {:>12.2}",
                    c.site,
                    c.count,
                    c.wait_p50_us,
                    c.wait_p99_us,
                    c.wait_max_us,
                    c.total_wait_us as f64 / 1_000.0
                );
            }
            if let Some(top) = self.top_contention() {
                let _ = writeln!(
                    out,
                    "  top contention site: {} (p99 wait {} µs over {} acquisitions)",
                    top.site, top.wait_p99_us, top.count
                );
            }
        }

        out.push_str("\n== top templates by cost (serving + maintenance) ==\n");
        if self.templates.is_empty() {
            out.push_str("  (no template has served a query yet)\n");
        } else {
            let _ = writeln!(
                out,
                "  {:<16} {:>9} {:>8} {:>9} {:>9} {:>9} {:>10} {:>10}",
                "template",
                "queries",
                "hit%",
                "ttfr_p50",
                "ttfr_p99",
                "full_p99",
                "maint_ms",
                "cost_ms"
            );
            for t in &self.templates {
                let _ = writeln!(
                    out,
                    "  {:<16} {:>9} {:>7.1}% {:>9} {:>9} {:>9} {:>10.2} {:>10.2}",
                    t.template,
                    t.queries,
                    t.hit_rate * 100.0,
                    t.ttfr_p50_us,
                    t.ttfr_p99_us,
                    t.full_p99_us,
                    t.maint_join_us as f64 / 1_000.0,
                    t.cost_us as f64 / 1_000.0
                );
            }
        }

        out.push_str("\n== pipeline stage breakdown ==\n");
        if self.pipeline.is_empty() {
            out.push_str("  (no stage samples recorded)\n");
        } else {
            let _ = writeln!(
                out,
                "  {:<20} {:>10} {:>10} {:>10} {:>12} {:>7}",
                "stage", "samples", "p50_us", "p99_us", "total_ms", "share"
            );
            for s in &self.pipeline {
                let _ = writeln!(
                    out,
                    "  {:<20} {:>10} {:>10} {:>10} {:>12.2} {:>6.1}%",
                    s.stage,
                    s.count,
                    s.p50_us,
                    s.p99_us,
                    s.total_us as f64 / 1_000.0,
                    s.share_pct
                );
            }
        }

        if !self.notes.is_empty() {
            out.push_str("\n== notes ==\n");
            for n in &self.notes {
                let _ = writeln!(out, "  - {n}");
            }
        }
        out
    }

    /// Machine-readable report (hand-rolled; the serde_json shim has no
    /// serializer).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(2048);
        let _ = write!(
            out,
            "{{\"source\":\"{}\",\"contention\":[",
            crate::export::json_escape(&self.source)
        );
        for (i, c) in self.contention.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"site\":\"{}\",\"count\":{},\"wait_p50_us\":{},\"wait_p99_us\":{},\
                 \"wait_max_us\":{},\"total_wait_us\":{}}}",
                crate::export::json_escape(&c.site),
                c.count,
                c.wait_p50_us,
                c.wait_p99_us,
                c.wait_max_us,
                c.total_wait_us
            );
        }
        out.push_str("],\"templates\":[");
        for (i, t) in self.templates.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"template\":\"{}\",\"queries\":{},\"hit_rate\":{:.4},\
                 \"ttfr_p50_us\":{},\"ttfr_p99_us\":{},\"full_p99_us\":{},\
                 \"o3_rows_scanned\":{},\"maint_join_us\":{},\"bytes_resident\":{},\
                 \"cost_us\":{}}}",
                crate::export::json_escape(&t.template),
                t.queries,
                t.hit_rate,
                t.ttfr_p50_us,
                t.ttfr_p99_us,
                t.full_p99_us,
                t.o3_rows_scanned,
                t.maint_join_us,
                t.bytes_resident,
                t.cost_us
            );
        }
        out.push_str("],\"pipeline\":[");
        for (i, s) in self.pipeline.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"stage\":\"{}\",\"count\":{},\"p50_us\":{},\"p99_us\":{},\
                 \"total_us\":{},\"share_pct\":{:.2}}}",
                crate::export::json_escape(&s.stage),
                s.count,
                s.p50_us,
                s.p99_us,
                s.total_us,
                s.share_pct
            );
        }
        out.push_str("],\"notes\":[");
        for (i, n) in self.notes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\"", crate::export::json_escape(n));
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hist::LatencyHistogram;
    use std::time::Duration;

    fn hist(values_us: &[u64]) -> HistSnapshot {
        let h = LatencyHistogram::new();
        for &us in values_us {
            h.record(Duration::from_micros(us));
        }
        h.snapshot()
    }

    #[test]
    fn split_classifies_lock_phases_as_contention() {
        let phases: Vec<(&'static str, HistSnapshot)> = vec![
            ("ttfr", hist(&[100])),
            ("o2_probe", hist(&[50, 60])),
            ("lock_master_commit", hist(&[500, 900])),
            ("lock_shard_fill", HistSnapshot::empty()),
            ("wal_fsync", hist(&[2_000])),
        ];
        let (contention, stages) = split_phases(&phases);
        assert_eq!(contention.len(), 1, "empty lock phases are dropped");
        assert_eq!(contention[0].site, "lock_master_commit");
        assert_eq!(contention[0].count, 2);
        let names: Vec<&str> = stages.iter().map(|s| s.stage.as_str()).collect();
        assert_eq!(names, ["o2_probe", "wal_fsync"], "ttfr excluded");
    }

    #[test]
    fn rank_orders_sections_and_fills_shares() {
        let mut r = ProfileReport {
            source: "test".into(),
            contention: vec![
                ContentionSite::from_snapshot("lock_shard_fill", &hist(&[10, 10])),
                ContentionSite::from_snapshot("lock_master_commit", &hist(&[5_000])),
            ],
            pipeline: vec![
                PipelineStage::from_snapshot("o2_probe", &hist(&[100])),
                PipelineStage::from_snapshot("o3_exec", &hist(&[300])),
            ],
            ..Default::default()
        };
        r.rank();
        assert_eq!(r.top_contention().unwrap().site, "lock_master_commit");
        assert_eq!(r.pipeline[0].stage, "o3_exec");
        let total: f64 = r.pipeline.iter().map(|s| s.share_pct).sum();
        assert!((total - 100.0).abs() < 0.5, "shares sum to ~100: {total}");
    }

    #[test]
    fn render_human_names_the_top_contention_site() {
        let mut r = ProfileReport {
            source: "bench".into(),
            contention: vec![ContentionSite::from_snapshot(
                "lock_master_commit",
                &hist(&[900, 1_200]),
            )],
            notes: vec!["1 flight dump (reason: degraded)".into()],
            ..Default::default()
        };
        r.rank();
        let text = r.render_human();
        assert!(
            text.contains("top contention site: lock_master_commit"),
            "{text}"
        );
        assert!(text.contains("flight dump"), "{text}");
    }

    #[test]
    fn json_is_balanced() {
        let mut r = ProfileReport {
            source: "s\"1".into(),
            contention: vec![ContentionSite::from_snapshot(
                "lock_shard_fill",
                &hist(&[7]),
            )],
            templates: vec![TemplateCost {
                template: "t1".into(),
                ..Default::default()
            }],
            pipeline: vec![PipelineStage::from_snapshot("o3_exec", &hist(&[40]))],
            notes: vec![],
        };
        r.rank();
        let j = r.to_json();
        assert!(j.contains("\"site\":\"lock_shard_fill\""), "{j}");
        assert!(j.contains("\"template\":\"t1\""), "{j}");
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
    }
}
