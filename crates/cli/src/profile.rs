//! The profile report as JSON ([`profile_json`], printed by `profile
//! --json` and `pmv-profile --json`), and the file-reading half of
//! `pmv-profile` ([`report_from_paths`]).
//!
//! `pmv-profile` parses each view's latest flight dump back into
//! [`ViewMetrics`] (`pmv_wal::telemetry::view_from_json`) and hands them
//! to [`ProfileReport::from_views`], the derivation the live `profile`
//! command runs over the session's views. Dumps are cumulative registry
//! snapshots, so only the highest-`seq` dump per view contributes —
//! earlier dumps' data is a strict subset. Files that do not parse as a
//! dump (torn writes, other documents) are skipped with a note; the run
//! fails only when *no* input was usable.

use pmv_obs::{ProfileReport, ViewMetrics};
use pmv_wal::telemetry::{view_from_json, DUMP_FORMAT};
use serde_json::Value;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// The report as one JSON document: `source`, the `contention`,
/// `templates` and `pipeline` rows, and `notes`. A spanning stage's
/// `share_pct` is `null`.
pub fn profile_json(r: &ProfileReport) -> Value {
    let contention: Value = (r.contention.iter())
        .map(|c| {
            Value::from_iter([
                ("site", Value::from(c.site.as_str())),
                ("count", c.count.into()),
                ("wait_p50_us", c.wait_p50_us.into()),
                ("wait_p99_us", c.wait_p99_us.into()),
                ("wait_max_us", c.wait_max_us.into()),
                ("total_wait_us", c.total_wait_us.into()),
            ])
        })
        .collect();
    let templates: Value = (r.templates.iter())
        .map(|t| {
            Value::from_iter([
                ("template", Value::from(t.template.as_str())),
                ("queries", t.queries.into()),
                ("hit_rate", t.hit_rate.into()),
                ("ttfr_p50_us", t.ttfr_p50_us.into()),
                ("ttfr_p99_us", t.ttfr_p99_us.into()),
                ("full_p99_us", t.full_p99_us.into()),
                ("o3_rows_scanned", t.o3_rows_scanned.into()),
                ("maint_join_us", t.maint_join_us.into()),
                ("bytes_resident", t.bytes_resident.into()),
                ("cost_us", t.cost_us.into()),
            ])
        })
        .collect();
    let pipeline: Value = (r.pipeline.iter())
        .map(|s| {
            Value::from_iter([
                ("stage", Value::from(s.stage.as_str())),
                ("count", s.count.into()),
                ("p50_us", s.p50_us.into()),
                ("p99_us", s.p99_us.into()),
                ("total_us", s.total_us.into()),
                ("share_pct", s.share_pct.into()),
            ])
        })
        .collect();
    Value::from_iter([
        ("source", Value::from(r.source.as_str())),
        ("contention", contention),
        ("templates", templates),
        ("pipeline", pipeline),
        ("notes", r.notes.iter().map(String::as_str).collect()),
    ])
}

/// One dump's `(view, seq, reason, metrics)`, or why it is not one.
fn parse_dump(doc: &Value) -> Result<(u64, String, ViewMetrics), String> {
    if doc["pmv_flight_dump"] != DUMP_FORMAT {
        return Err(format!("not a flight dump (format {DUMP_FORMAT})"));
    }
    let seq = doc["seq"].as_u64().ok_or("dump without a seq")?;
    let reason = doc["reason"].as_str().ok_or("dump without a reason")?;
    Ok((seq, reason.to_string(), view_from_json(&doc["metrics"])?))
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

/// Build the ranked report from spool directories and dump files. Errs
/// when a path is unreadable or no input is a usable flight dump.
pub fn report_from_paths(paths: &[PathBuf]) -> Result<ProfileReport, String> {
    let mut skipped = Vec::new();
    let mut reasons: BTreeMap<String, u64> = BTreeMap::new();
    // Latest dump per view, keyed (and so ordered) by view name.
    let mut latest: BTreeMap<String, (u64, ViewMetrics)> = BTreeMap::new();
    let mut total = 0usize;
    for path in paths {
        let files = expand(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        for file in files {
            total += 1;
            let raw = std::fs::read_to_string(&file)
                .map_err(|e| format!("cannot read {}: {e}", file.display()))?;
            let dump = serde_json::from_str(&raw)
                .map_err(|_| "not valid JSON".to_string())
                .and_then(|doc| parse_dump(&doc));
            let (seq, reason, metrics) = match dump {
                Ok(dump) => dump,
                Err(why) => {
                    skipped.push(format!("skipped {}: {why}", file.display()));
                    continue;
                }
            };
            *reasons.entry(reason).or_insert(0) += 1;
            let newer = latest.get(&metrics.name).is_none_or(|(s, _)| seq > *s);
            if newer {
                latest.insert(metrics.name.clone(), (seq, metrics));
            }
        }
    }
    if latest.is_empty() {
        return Err(format!(
            "no usable flight dump among {total} file(s) (want pmv_flight_dump {DUMP_FORMAT})"
        ));
    }
    let views: Vec<ViewMetrics> = latest.into_values().map(|(_, v)| v).collect();
    let sources: Vec<String> = paths.iter().map(|p| p.display().to_string()).collect();
    let mut report = ProfileReport::from_views(sources.join(", "), &views);
    let fired: Vec<String> = reasons.iter().map(|(r, n)| format!("{r} x{n}")).collect();
    let dumps: u64 = reasons.values().sum();
    report
        .notes
        .push(format!("{dumps} flight dump(s): {}", fired.join(", ")));
    report.notes.extend(skipped);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmv_obs::{FlightDump, LatencyHistogram, TriggerReason};
    use pmv_wal::telemetry::dump_json;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("pmv_profile_tests-{}", std::process::id()))
            .join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// A dump of view `view` whose `lock_shard_fill` phase holds
    /// `samples` waits of 100 µs.
    fn write_dump(dir: &Path, seq: u64, view: &str, samples: usize) -> String {
        let h = LatencyHistogram::new();
        for _ in 0..samples {
            h.record_ns(100_000);
        }
        let dump = FlightDump {
            seq,
            reason: TriggerReason::Degraded,
            trigger_total_us: 100,
            traces: Vec::new(),
            metrics: ViewMetrics {
                name: view.into(),
                phases: vec![("lock_shard_fill", h.snapshot())],
                ..Default::default()
            },
        };
        let text = dump_json(&dump).to_string();
        std::fs::write(dir.join(format!("flight-{seq:06}.json")), &text).unwrap();
        text
    }

    #[test]
    fn only_the_latest_dump_per_view_contributes() {
        let dir = scratch("latest");
        for seq in 0..3u64 {
            // Cumulative registry: each dump has one more sample.
            write_dump(&dir, seq, "pmv_t1", seq as usize + 1);
        }
        write_dump(&dir, 3, "pmv_t2", 1);
        let report = report_from_paths(std::slice::from_ref(&dir)).unwrap();
        assert_eq!(report.contention.len(), 1, "{:?}", report.contention);
        assert_eq!(report.contention[0].count, 4, "latest of each view, merged");
        assert_eq!(report.notes, ["4 flight dump(s): degraded x4"]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_and_foreign_files_are_skipped_not_fatal() {
        let dir = scratch("torn");
        let good = write_dump(&dir, 0, "v", 1);
        // A torn write persists a prefix: no closing brace.
        std::fs::write(dir.join("flight-000001.json"), &good[..good.len() / 2]).unwrap();
        std::fs::write(dir.join("flight-000002.json"), "{\"contention\":[]}").unwrap();

        let report = report_from_paths(std::slice::from_ref(&dir)).unwrap();
        assert_eq!(report.contention.len(), 1);
        assert!(
            report.notes[1].ends_with("not valid JSON"),
            "{:?}",
            report.notes
        );
        assert!(report.notes[2].ends_with("not a flight dump (format 2)"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn zero_usable_inputs_is_an_error() {
        let dir = scratch("unusable");
        std::fs::write(dir.join("flight-000000.json"), "{\"other\":1}").unwrap();
        let err = report_from_paths(std::slice::from_ref(&dir)).unwrap_err();
        assert!(err.contains("no usable flight dump"), "{err}");
        assert!(report_from_paths(&[dir.join("missing.json")]).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
