//! Per-trial series, the printed tables and the result line.

use std::collections::BTreeMap;

use crate::stats::{drift_pct, iqr_share};

/// Per-trial values of every metric, by name.
pub type Series = BTreeMap<&'static str, Vec<f64>>;
/// Run value of every metric, by name.
pub type Values = BTreeMap<&'static str, f64>;

pub fn push(series: &mut Series, name: &'static str, v: f64) {
    series.entry(name).or_default().push(v);
}

/// `num / den`, or 0 when there was nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// One table: each metric of `list` with its run value and, where it
/// has a per-trial series, the noise gauges of that series — the trial
/// IQR as a share of the median, and the drift.
pub fn print_table(title: &str, list: &[(&str, &str)], values: &Values, series: &Series) {
    println!("--- {title} ---");
    println!(
        "{:<40} {:>16} {:<6} {:>9} {:>9}",
        "metric", "value", "unit", "iqr%", "drift%"
    );
    for (name, unit) in list {
        let v = values.get(name).copied().unwrap_or(0.0);
        match series.get(name) {
            Some(s) if s.len() > 1 => println!(
                "{name:<40} {v:>16.4} {unit:<6} {:>9.2} {:>9.2}",
                iqr_share(s) * 100.0,
                drift_pct(s)
            ),
            _ => println!("{name:<40} {v:>16.4} {unit:<6} {:>9} {:>9}", "-", "-"),
        }
    }
}

/// The result object: `correct`, `attempted`, `failed`, and the metrics
/// of `list` with value and unit.
pub fn json_line(attempted: u64, failed: u64, list: &[(&str, &str)], values: &Values) -> String {
    use serde_json::{Map, Value};
    let mut metrics = Map::new();
    for (name, unit) in list {
        let mut m = Map::new();
        let v = values.get(name).copied().unwrap_or(0.0);
        m.insert("value".into(), Value::from(v));
        m.insert("unit".into(), Value::from(*unit));
        metrics.insert((*name).into(), Value::Object(m));
    }
    let mut top = Map::new();
    top.insert("correct".into(), Value::from(failed == 0));
    top.insert("attempted".into(), Value::from(attempted));
    top.insert("failed".into(), Value::from(failed));
    top.insert("metrics".into(), Value::Object(metrics));
    serde_json::to_string(&Value::Object(top)).expect("metrics are finite")
}
