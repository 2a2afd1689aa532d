//! Profile report model: "can answer why", not just "has metrics".
//!
//! [`ProfileReport::from_views`] is the one profile derivation. The live
//! CLI `profile` command calls it over the session's [`ViewMetrics`];
//! `pmv-profile` calls it over the `ViewMetrics` parsed back from each
//! view's latest flight dump. Only this function classifies phases and
//! derives the contention, pipeline and template rows, so both reports
//! agree row for row on the same views.
//!
//! The report answers three questions:
//!
//! 1. **Where do threads wait?** — contention sites ranked by total
//!    wait time, with per-site p50/p99/max.
//! 2. **Which templates cost the most?** — per-template serving +
//!    maintenance cost, derived from each view's counters, gauges and
//!    phase histograms.
//! 3. **Where does a pass spend its time?** — pipeline stages ranked by
//!    total time, each with its share of the time recorded by stages
//!    that contain no other stage.

use crate::export::ViewMetrics;
use crate::hist::HistSnapshot;
use std::fmt::Write as _;

/// Phase names that measure lock *wait* rather than work — the
/// contention half of the phase enum.
pub const CONTENTION_PHASES: [&str; 3] =
    ["lock_shard_fill", "lock_shard_maint", "lock_master_commit"];

/// Phases whose span contains other phases: `ttfr`, `full` and
/// `degraded` time a whole query, `maint_join` a maintenance batch
/// (`maint_index`, store lock waits, `snapshot_swap`), `revalidate` a
/// sweep, and `commit_drain` a commit round (WAL, every view's
/// maintenance, `snapshot_publish`). They are listed without a share:
/// a share over them would count their children twice.
pub const SPANNING_PHASES: [&str; 6] = [
    "ttfr",
    "full",
    "degraded",
    "maint_join",
    "revalidate",
    "commit_drain",
];

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

/// One template ranked by cost, derived from its view's counters, its
/// `ttfr` / `full` / `maint_join` phase histograms and its `store_bytes`
/// gauge. Nothing records into this.
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
    /// Share of the total time of the stages that contain no other
    /// stage, percent; `None` for a [`SPANNING_PHASES`] stage.
    pub share_pct: Option<f64>,
}

/// The assembled profile.
#[derive(Clone, Debug, Default)]
pub struct ProfileReport {
    /// Where the data came from (live session or spool paths).
    pub source: String,
    /// Contention sites, ranked by total wait.
    pub contention: Vec<ContentionSite>,
    /// Templates, ranked by cost.
    pub templates: Vec<TemplateCost>,
    /// Pipeline stages, ranked by total time.
    pub pipeline: Vec<PipelineStage>,
    /// Free-form observations (flight-dump reasons, dropped-data notes).
    pub notes: Vec<String>,
}

fn us(ns: u64) -> u64 {
    ns / 1_000
}

fn quantile_us(snap: &HistSnapshot, q: f64) -> u64 {
    snap.quantile(q).as_micros() as u64
}

/// The template row of one view, when it names a template and has
/// served or maintained anything.
fn template_cost(v: &ViewMetrics) -> Option<TemplateCost> {
    let (ttfr, full) = (v.phase("ttfr"), v.phase("full"));
    let maint_ns = v.phase("maint_join").sum_ns();
    let cost = TemplateCost {
        template: v.template.clone()?,
        queries: v.counter("queries"),
        hit_rate: v.gauge("serving_probability"),
        ttfr_p50_us: quantile_us(&ttfr, 0.5),
        ttfr_p99_us: quantile_us(&ttfr, 0.99),
        full_p99_us: quantile_us(&full, 0.99),
        o3_rows_scanned: v.counter("o3_rows_scanned"),
        maint_join_us: us(maint_ns),
        bytes_resident: v.gauge("store_bytes") as u64,
        cost_us: us(full.sum_ns().saturating_add(maint_ns)),
    };
    (cost.queries > 0 || cost.maint_join_us > 0).then_some(cost)
}

impl ProfileReport {
    /// Derive the ranked report from `views`: merge their phase
    /// histograms by name, split the recorded phases into contention
    /// sites (`lock_*`, waiting) and pipeline stages (work), fill the
    /// stage shares, and derive one template row per view. Every section
    /// is sorted by its ranking key, descending. `notes` starts empty.
    pub fn from_views(source: impl Into<String>, views: &[ViewMetrics]) -> ProfileReport {
        let mut merged: Vec<(&'static str, HistSnapshot)> = Vec::new();
        for (name, snap) in views.iter().flat_map(|v| &v.phases) {
            match merged.iter_mut().find(|(n, _)| n == name) {
                Some((_, acc)) => acc.merge(snap),
                None => merged.push((name, snap.clone())),
            }
        }
        let mut contention = Vec::new();
        let mut pipeline = Vec::new();
        for (name, snap) in merged.iter().filter(|(_, s)| s.count() > 0) {
            if CONTENTION_PHASES.contains(name) {
                contention.push(ContentionSite {
                    site: name.to_string(),
                    count: snap.count(),
                    wait_p50_us: quantile_us(snap, 0.5),
                    wait_p99_us: quantile_us(snap, 0.99),
                    wait_max_us: snap.max().as_micros() as u64,
                    total_wait_us: us(snap.sum_ns()),
                });
            } else {
                pipeline.push(PipelineStage {
                    stage: name.to_string(),
                    count: snap.count(),
                    p50_us: quantile_us(snap, 0.5),
                    p99_us: quantile_us(snap, 0.99),
                    total_us: us(snap.sum_ns()),
                    share_pct: None,
                });
            }
        }
        let shared = |s: &PipelineStage| !SPANNING_PHASES.contains(&s.stage.as_str());
        let total: u64 = pipeline
            .iter()
            .filter(|s| shared(s))
            .map(|s| s.total_us)
            .sum();
        for s in pipeline.iter_mut().filter(|s| shared(s)) {
            s.share_pct = Some(match total {
                0 => 0.0,
                t => s.total_us as f64 * 100.0 / t as f64,
            });
        }
        let mut templates: Vec<TemplateCost> = views.iter().filter_map(template_cost).collect();
        contention.sort_by_key(|s| std::cmp::Reverse(s.total_wait_us));
        templates.sort_by_key(|t| std::cmp::Reverse(t.cost_us));
        pipeline.sort_by_key(|s| std::cmp::Reverse(s.total_us));
        ProfileReport {
            source: source.into(),
            contention,
            templates,
            pipeline,
            notes: Vec::new(),
        }
    }

    /// The hottest contention site.
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
                let share = s.share_pct.map_or("-".to_string(), |p| format!("{p:.1}%"));
                let _ = writeln!(
                    out,
                    "  {:<20} {:>10} {:>10} {:>10} {:>12.2} {:>7}",
                    s.stage,
                    s.count,
                    s.p50_us,
                    s.p99_us,
                    s.total_us as f64 / 1_000.0,
                    share
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

    fn view(phases: Vec<(&'static str, HistSnapshot)>) -> ViewMetrics {
        ViewMetrics {
            name: "v".into(),
            phases,
            ..Default::default()
        }
    }

    #[test]
    fn lock_phases_are_contention_and_empty_phases_are_dropped() {
        let r = ProfileReport::from_views(
            "test",
            &[view(vec![
                ("o2_probe", hist(&[50, 60])),
                ("lock_master_commit", hist(&[500, 900])),
                ("lock_shard_fill", HistSnapshot::empty()),
                ("wal_fsync", hist(&[2_000])),
            ])],
        );
        assert_eq!(r.contention.len(), 1, "empty lock phases are dropped");
        assert_eq!(r.top_contention().unwrap().site, "lock_master_commit");
        assert_eq!(r.contention[0].count, 2);
        let names: Vec<&str> = r.pipeline.iter().map(|s| s.stage.as_str()).collect();
        assert_eq!(names, ["wal_fsync", "o2_probe"], "ranked by total");
    }

    #[test]
    fn views_merge_by_phase_and_spanning_phases_take_no_share() {
        let r = ProfileReport::from_views(
            "test",
            &[
                view(vec![("o3_exec", hist(&[300])), ("full", hist(&[900]))]),
                view(vec![("o3_exec", hist(&[100])), ("o2_probe", hist(&[100]))]),
            ],
        );
        let stage = |n: &str| r.pipeline.iter().find(|s| s.stage == n).unwrap();
        assert_eq!(r.pipeline[0].stage, "full");
        assert_eq!(stage("full").share_pct, None);
        assert_eq!(stage("o3_exec").count, 2);
        let total: f64 = r.pipeline.iter().filter_map(|s| s.share_pct).sum();
        assert!((total - 100.0).abs() < 1e-9, "shares sum to 100: {total}");
    }

    #[test]
    fn template_rows_come_from_views_that_name_a_template() {
        let mut v = view(vec![("full", hist(&[1_000])), ("maint_join", hist(&[500]))]);
        v.template = Some("t1".into());
        v.counters.insert("queries".into(), 1);
        let host = view(vec![("commit_drain", hist(&[700]))]);
        let r = ProfileReport::from_views("test", &[v, host]);
        assert_eq!(r.templates.len(), 1, "{:?}", r.templates);
        assert_eq!(r.templates[0].template, "t1");
        assert_eq!(r.templates[0].maint_join_us, 500);
        assert_eq!(r.templates[0].cost_us, 1_500);
    }

    #[test]
    fn render_human_names_the_top_contention_site() {
        let mut r = ProfileReport::from_views(
            "bench",
            &[view(vec![("lock_master_commit", hist(&[900, 1_200]))])],
        );
        r.notes.push("1 flight dump (reason: degraded)".into());
        let text = r.render_human();
        assert!(
            text.contains("top contention site: lock_master_commit"),
            "{text}"
        );
        assert!(text.contains("flight dump"), "{text}");
    }
}
