//! The file-reading half of `pmv-profile`: parse flight-recorder spool
//! dumps and already-rendered profile reports back into the
//! [`ProfileReport`] model from `pmv-obs`.
//!
//! Input classification is structural, not by file name:
//!
//! * a `pmv_flight_dump` sentinel marks a flight-recorder dump (the
//!   format `pmv_obs::spool::compose_dump` writes) — its `metrics.phases`
//!   member carries the quantized per-phase histograms;
//! * `contention` + `pipeline` members mark a report document itself
//!   (the output of `pmv-profile --json` or the CLI `profile --json`).
//!
//! Dumps are cumulative registry snapshots, so when several dumps from
//! the same view are given only the latest (highest `seq`) contributes
//! series — earlier dumps' data is a strict subset. Torn or otherwise
//! unparsable files are skipped with a note; the run fails only when
//! *no* input was usable.

use pmv_obs::profile::CONTENTION_PHASES;
use pmv_obs::{ContentionSite, PipelineStage, ProfileReport, TemplateCost};
use serde_json::Value;
use std::collections::HashMap;
use std::path::{Path, PathBuf};

/// One parsed flight dump, pre-assembly.
struct FlightDump {
    view: String,
    seq: u64,
    reason: String,
    contention: Vec<ContentionSite>,
    pipeline: Vec<PipelineStage>,
}

fn num(v: &Value, key: &str) -> u64 {
    v.get(key).and_then(Value::as_u64).unwrap_or(0)
}

fn fnum(v: &Value, key: &str) -> f64 {
    v.get(key).and_then(Value::as_f64).unwrap_or(0.0)
}

fn text(v: &Value, key: &str) -> String {
    v.get(key)
        .and_then(Value::as_str)
        .unwrap_or_default()
        .to_string()
}

/// Parse one flight-dump document (`None` if `v` is not one).
fn parse_flight_dump(v: &Value) -> Option<FlightDump> {
    v.get("pmv_flight_dump")?;
    let phases = v.get("metrics")?.get("phases")?.as_object()?;
    let mut dump = FlightDump {
        view: text(v, "view"),
        seq: num(v, "seq"),
        reason: text(v, "reason"),
        contention: Vec::new(),
        pipeline: Vec::new(),
    };
    for (name, p) in phases.iter() {
        let count = num(p, "count");
        if count == 0 {
            continue;
        }
        if CONTENTION_PHASES.contains(&name.as_str()) {
            dump.contention.push(ContentionSite {
                site: name.clone(),
                count,
                wait_p50_us: num(p, "p50_us"),
                wait_p99_us: num(p, "p99_us"),
                wait_max_us: num(p, "max_us"),
                total_wait_us: num(p, "sum_us"),
            });
        } else if name != "ttfr" && name != "full" {
            dump.pipeline.push(PipelineStage {
                stage: name.clone(),
                count,
                p50_us: num(p, "p50_us"),
                p99_us: num(p, "p99_us"),
                total_us: num(p, "sum_us"),
                share_pct: 0.0,
            });
        }
    }
    Some(dump)
}

/// Absorb a report-shaped document (`contention`/`templates`/`pipeline`
/// /`notes` members) into `report`. Returns whether anything was taken.
fn absorb_report_fragment(v: &Value, report: &mut ProfileReport) -> bool {
    let mut took = false;
    if let Some(sites) = v.get("contention").and_then(Value::as_array) {
        for c in sites {
            report.contention.push(ContentionSite {
                site: text(c, "site"),
                count: num(c, "count"),
                wait_p50_us: num(c, "wait_p50_us"),
                wait_p99_us: num(c, "wait_p99_us"),
                wait_max_us: num(c, "wait_max_us"),
                total_wait_us: num(c, "total_wait_us"),
            });
            took = true;
        }
    }
    if let Some(templates) = v.get("templates").and_then(Value::as_array) {
        for t in templates {
            report.templates.push(TemplateCost {
                template: text(t, "template"),
                queries: num(t, "queries"),
                hit_rate: fnum(t, "hit_rate"),
                ttfr_p50_us: num(t, "ttfr_p50_us"),
                ttfr_p99_us: num(t, "ttfr_p99_us"),
                full_p99_us: num(t, "full_p99_us"),
                o3_rows_scanned: num(t, "o3_rows_scanned"),
                maint_join_us: num(t, "maint_join_us"),
                bytes_resident: num(t, "bytes_resident"),
                cost_us: num(t, "cost_us"),
            });
            took = true;
        }
    }
    if let Some(stages) = v.get("pipeline").and_then(Value::as_array) {
        for s in stages {
            report.pipeline.push(PipelineStage {
                stage: text(s, "stage"),
                count: num(s, "count"),
                p50_us: num(s, "p50_us"),
                p99_us: num(s, "p99_us"),
                total_us: num(s, "total_us"),
                share_pct: 0.0,
            });
            took = true;
        }
    }
    if let Some(notes) = v.get("notes").and_then(Value::as_array) {
        for n in notes.iter().filter_map(Value::as_str) {
            report.notes.push(n.to_string());
            took = true;
        }
    }
    took
}

/// Absorb one parsed document of any supported shape. Returns whether
/// the document was recognized.
fn absorb(v: &Value, report: &mut ProfileReport, dumps: &mut Vec<FlightDump>) -> bool {
    if let Some(dump) = parse_flight_dump(v) {
        dumps.push(dump);
        return true;
    }
    absorb_report_fragment(v, report)
}

/// Fold the collected flight dumps into the report: per view only the
/// latest (highest-`seq`) dump contributes series — dumps snapshot the
/// same cumulative registry — and a note summarizes what fired.
fn fold_dumps(mut dumps: Vec<FlightDump>, report: &mut ProfileReport) {
    if dumps.is_empty() {
        return;
    }
    let mut reasons: HashMap<String, u64> = HashMap::new();
    for d in &dumps {
        *reasons.entry(d.reason.clone()).or_insert(0) += 1;
    }
    let mut reasons: Vec<(String, u64)> = reasons.into_iter().collect();
    reasons.sort();
    let summary = reasons
        .iter()
        .map(|(r, n)| format!("{r} x{n}"))
        .collect::<Vec<_>>()
        .join(", ");
    report
        .notes
        .push(format!("{} flight dump(s): {summary}", dumps.len()));

    dumps.sort_by(|a, b| a.view.cmp(&b.view).then(b.seq.cmp(&a.seq)));
    let mut views: Vec<String> = dumps.iter().map(|d| d.view.clone()).collect();
    views.dedup();
    let multi = views.len() > 1;
    let mut seen: Vec<&str> = Vec::new();
    for d in &dumps {
        if seen.contains(&d.view.as_str()) {
            continue; // an older dump of a view already taken
        }
        seen.push(&d.view);
        for mut c in d.contention.clone() {
            if multi {
                c.site = format!("{} ({})", c.site, d.view);
            }
            report.contention.push(c);
        }
        for mut s in d.pipeline.clone() {
            if multi {
                s.stage = format!("{} ({})", s.stage, d.view);
            }
            report.pipeline.push(s);
        }
    }
}

/// Expand an input path: a directory yields its `flight-*.json` files
/// in name (= sequence) order, a file yields itself.
fn expand(path: &Path) -> std::io::Result<Vec<PathBuf>> {
    if !path.is_dir() {
        return Ok(vec![path.to_path_buf()]);
    }
    let mut files: Vec<PathBuf> = std::fs::read_dir(path)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("flight-") && n.ends_with(".json"))
        })
        .collect();
    files.sort();
    Ok(files)
}

/// Build a ranked report from spool directories, dump files and/or
/// report JSON. Errs when a path is unreadable or when no
/// input yields any profile data.
pub fn report_from_paths(paths: &[PathBuf]) -> Result<ProfileReport, String> {
    let mut report = ProfileReport {
        source: paths
            .iter()
            .map(|p| p.display().to_string())
            .collect::<Vec<_>>()
            .join(", "),
        ..Default::default()
    };
    let mut dumps = Vec::new();
    let mut used = 0usize;
    let mut total = 0usize;
    for path in paths {
        let files = expand(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        for file in files {
            total += 1;
            let raw = match std::fs::read_to_string(&file) {
                Ok(raw) => raw,
                Err(e) => return Err(format!("cannot read {}: {e}", file.display())),
            };
            let parsed = match serde_json::from_str(&raw) {
                Ok(v) => v,
                Err(_) => {
                    // Torn dump (fault-injected or crashed mid-write).
                    report
                        .notes
                        .push(format!("skipped {}: not valid JSON", file.display()));
                    continue;
                }
            };
            if absorb(&parsed, &mut report, &mut dumps) {
                used += 1;
            } else {
                report.notes.push(format!(
                    "skipped {}: not a flight dump or profile report",
                    file.display()
                ));
            }
        }
    }
    if used == 0 {
        return Err(format!(
            "no usable profile input among {total} file(s) (want flight dumps \
             or profile reports)"
        ));
    }
    fold_dumps(dumps, &mut report);
    report.rank();
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmv_obs::spool::{compose_dump, metrics_json_from};
    use pmv_obs::{HistSnapshot, LatencyHistogram, TriggerReason};
    use std::time::Duration;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("pmv_profile_tests").join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn phase(values_us: &[u64]) -> HistSnapshot {
        let h = LatencyHistogram::new();
        for &us in values_us {
            h.record(Duration::from_micros(us));
        }
        h.snapshot()
    }

    #[test]
    fn flight_dump_round_trips_into_a_report() {
        let dir = scratch("roundtrip");
        let metrics = metrics_json_from(
            &[("queries", 12)],
            &[
                ("o2_probe", phase(&[40, 60])),
                ("lock_master_commit", phase(&[800, 9_000])),
                ("ttfr", phase(&[100])),
                ("lock_shard_fill", HistSnapshot::empty()),
            ],
        );
        let dump = compose_dump(
            3,
            TriggerReason::BreakerTrip,
            "pmv_t1",
            9_000,
            &[],
            &metrics,
        );
        std::fs::write(dir.join("flight-000003.json"), &dump).unwrap();

        let report = report_from_paths(std::slice::from_ref(&dir)).unwrap();
        assert_eq!(report.top_contention().unwrap().site, "lock_master_commit");
        assert_eq!(report.top_contention().unwrap().count, 2);
        assert!(report.top_contention().unwrap().wait_p99_us >= 800);
        let stages: Vec<&str> = report.pipeline.iter().map(|s| s.stage.as_str()).collect();
        assert_eq!(stages, ["o2_probe"], "ttfr and empty phases excluded");
        assert!(
            report.notes.iter().any(|n| n.contains("breaker_trip x1")),
            "{:?}",
            report.notes
        );
        let text = report.render_human();
        assert!(
            text.contains("top contention site: lock_master_commit"),
            "{text}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn only_the_latest_dump_per_view_contributes() {
        let dir = scratch("latest");
        for (seq, us) in [(0u64, 100u64), (1, 100), (2, 100)] {
            let metrics = metrics_json_from(
                &[],
                // Cumulative registry: each dump has one more sample.
                &[("lock_shard_fill", phase(&vec![us; seq as usize + 1]))],
            );
            let dump = compose_dump(seq, TriggerReason::Degraded, "pmv_t1", us, &[], &metrics);
            std::fs::write(dir.join(format!("flight-{seq:06}.json")), &dump).unwrap();
        }
        let report = report_from_paths(std::slice::from_ref(&dir)).unwrap();
        assert_eq!(report.contention.len(), 1, "{:?}", report.contention);
        assert_eq!(report.contention[0].count, 3, "latest dump wins");
        assert!(report.notes.iter().any(|n| n.contains("3 flight dump(s)")));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_dump_is_skipped_not_fatal() {
        let dir = scratch("torn");
        let metrics = metrics_json_from(&[], &[("lock_shard_maint", phase(&[50]))]);
        let good = compose_dump(0, TriggerReason::Quarantine, "v", 1, &[], &metrics);
        std::fs::write(dir.join("flight-000000.json"), &good).unwrap();
        // A torn write persists a prefix: no closing brace.
        std::fs::write(dir.join("flight-000001.json"), &good[..good.len() / 2]).unwrap();

        let report = report_from_paths(std::slice::from_ref(&dir)).unwrap();
        assert_eq!(report.contention.len(), 1);
        assert!(
            report.notes.iter().any(|n| n.contains("not valid JSON")),
            "{:?}",
            report.notes
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rendered_report_json_parses_back() {
        let dir = scratch("report");
        let rendered = r#"{"contention":[
                {"site":"lock_master_commit","count":40,"wait_p50_us":90,
                 "wait_p99_us":4000,"wait_max_us":9000,"total_wait_us":52000},
                {"site":"lock_shard_fill","count":800,"wait_p50_us":2,
                 "wait_p99_us":40,"wait_max_us":90,"total_wait_us":4000}],
             "templates":[{"template":"t1","queries":5000,"hit_rate":0.82,
                 "ttfr_p50_us":30,"ttfr_p99_us":400,"full_p99_us":2000,
                 "o3_rows_scanned":91000,"maint_join_us":8000,
                 "bytes_resident":65536,"cost_us":420000}],
             "pipeline":[{"stage":"o3_exec","count":900,"p50_us":300,
                 "p99_us":1800,"total_us":310000},
                 {"stage":"o2_probe","count":5000,"p50_us":8,"p99_us":60,
                 "total_us":52000}]}"#;
        let path = dir.join("report.json");
        std::fs::write(&path, rendered).unwrap();

        let report = report_from_paths(&[path]).unwrap();
        assert_eq!(report.top_contention().unwrap().site, "lock_master_commit");
        assert_eq!(report.templates[0].template, "t1");
        assert_eq!(report.pipeline[0].stage, "o3_exec", "ranked by total");
        assert!(report.pipeline[0].share_pct > report.pipeline[1].share_pct);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn zero_usable_inputs_is_an_error() {
        let dir = scratch("unusable");
        std::fs::write(dir.join("flight-000000.json"), "{\"other\":1}").unwrap();
        let err = report_from_paths(std::slice::from_ref(&dir)).unwrap_err();
        assert!(err.contains("no usable profile input"), "{err}");
        assert!(report_from_paths(&[dir.join("missing.json")]).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
