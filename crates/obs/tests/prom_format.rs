//! Prometheus text exposition format conformance for `to_prometheus`.
//!
//! Pins the scrape-format contract a real Prometheus server enforces:
//! every sample's family is declared by a `# HELP` + `# TYPE` pair
//! *before* its first sample, metric names are legal, label values are
//! escaped (`\\`, `\"`, `\n`), and every sample line parses as
//! `name{labels} value`.

use pmv_obs::{to_prometheus, HistSnapshot, LatencyHistogram, ViewMetrics};
use std::collections::{BTreeMap, HashMap};
use std::time::Duration;

fn named<V: Copy>(pairs: &[(&str, V)]) -> BTreeMap<String, V> {
    pairs.iter().map(|&(k, v)| (k.to_string(), v)).collect()
}

fn sample_views() -> Vec<ViewMetrics> {
    let h = LatencyHistogram::new();
    for us in [90u64, 150, 800, 4_000] {
        h.record(Duration::from_micros(us));
    }
    vec![
        ViewMetrics {
            name: "orders_by_day".into(),
            health: "healthy".into(),
            last_verified_age_ms: 41,
            counters: named(&[("queries", 12), ("commit_batches", 3)]),
            gauges: named(&[("hit_probability", 0.5), ("pin_cache_hit_rate", 0.97)]),
            phases: vec![
                ("ttfr", h.snapshot()),
                ("lock_master_commit", h.snapshot()),
                ("full", HistSnapshot::empty()),
            ],
            ..Default::default()
        },
        // Hostile label value: quote, backslash, and newline must all
        // be escaped or the scrape breaks.
        ViewMetrics {
            name: "t\"weird\\name\nline2".into(),
            health: "degraded".into(),
            error_rate: 0.5,
            trips: 2,
            last_verified_age_ms: 100,
            counters: named(&[("queries", 1)]),
            ..Default::default()
        },
    ]
}

/// Split one sample line into (metric name, value), validating shape.
fn parse_sample(line: &str) -> (String, f64) {
    let name_end = line
        .find(['{', ' '])
        .unwrap_or_else(|| panic!("no name terminator: {line}"));
    let name = &line[..name_end];
    let rest = &line[name_end..];
    let value_str = if let Some(stripped) = rest.strip_prefix('{') {
        // Labels: walk to the closing brace honouring escapes inside
        // quoted values.
        let mut in_quotes = false;
        let mut escaped = false;
        let mut close = None;
        for (i, c) in stripped.char_indices() {
            if escaped {
                escaped = false;
                continue;
            }
            match c {
                '\\' if in_quotes => escaped = true,
                '"' => in_quotes = !in_quotes,
                '}' if !in_quotes => {
                    close = Some(i);
                    break;
                }
                '\n' => panic!("unescaped newline inside labels: {line}"),
                _ => {}
            }
        }
        let close = close.unwrap_or_else(|| panic!("unterminated labels: {line}"));
        stripped[close + 1..].trim_start()
    } else {
        rest.trim_start()
    };
    let value: f64 = value_str
        .parse()
        .unwrap_or_else(|_| panic!("unparsable value '{value_str}' in: {line}"));
    (name.to_string(), value)
}

/// Family a sample belongs to: summaries/histograms expose `_sum` and
/// `_count` samples under the family's TYPE declaration.
fn family_of<'a>(name: &'a str, declared: &HashMap<String, String>) -> &'a str {
    if declared.contains_key(name) {
        return name;
    }
    for suffix in ["_sum", "_count"] {
        if let Some(stripped) = name.strip_suffix(suffix) {
            if declared.contains_key(stripped) {
                return stripped;
            }
        }
    }
    name
}

#[test]
fn exposition_format_conformance() {
    let text = to_prometheus(&sample_views());

    // type name -> declared type; also order: HELP immediately before
    // TYPE, both before any sample of the family.
    let mut declared: HashMap<String, String> = HashMap::new();
    let mut helped: HashMap<String, bool> = HashMap::new();
    let mut seen_sample_of: HashMap<String, bool> = HashMap::new();

    let mut prev_help: Option<String> = None;
    for line in text.lines() {
        assert!(!line.is_empty(), "blank line in exposition output");
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let family = rest.split(' ').next().unwrap().to_string();
            assert!(rest.len() > family.len() + 1, "HELP without text: {line}");
            assert!(!helped.contains_key(&family), "duplicate HELP for {family}");
            helped.insert(family.clone(), true);
            prev_help = Some(family);
        } else if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split(' ');
            let family = parts.next().unwrap().to_string();
            let kind = parts.next().unwrap_or("").to_string();
            assert!(
                ["counter", "gauge", "summary", "histogram", "untyped"].contains(&kind.as_str()),
                "bad TYPE kind: {line}"
            );
            assert_eq!(
                prev_help.as_deref(),
                Some(family.as_str()),
                "TYPE for {family} not immediately preceded by its HELP"
            );
            assert!(
                !declared.contains_key(&family),
                "duplicate TYPE for {family}"
            );
            assert!(
                !seen_sample_of.contains_key(&family),
                "TYPE for {family} after its first sample"
            );
            declared.insert(family, kind);
        } else {
            prev_help = None;
            let (name, _value) = parse_sample(line);
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
                "illegal metric name: {name}"
            );
            let family = family_of(&name, &declared).to_string();
            assert!(
                declared.contains_key(&family),
                "sample {name} has no TYPE declaration"
            );
            assert!(
                helped.contains_key(&family),
                "sample {name} has no HELP declaration"
            );
            seen_sample_of.insert(family, true);
        }
    }

    // Every declared family produced at least one sample.
    for family in declared.keys() {
        assert!(
            seen_sample_of.contains_key(family),
            "TYPE declared but no samples: {family}"
        );
    }
}

#[test]
fn label_values_are_escaped() {
    let text = to_prometheus(&sample_views());
    // The hostile view name appears only in escaped form.
    assert!(
        text.contains("view=\"t\\\"weird\\\\name\\nline2\""),
        "escaped hostile label missing:\n{text}"
    );
    // No raw (unescaped) newline may survive inside any label value:
    // every line must be a comment or a complete sample.
    for line in text.lines() {
        if !line.starts_with('#') {
            parse_sample(line);
        }
    }
}

#[test]
fn summary_quantile_samples_are_present_and_ordered() {
    let text = to_prometheus(&sample_views());
    let idx_type = text
        .find("# TYPE pmv_phase_latency_seconds summary")
        .expect("summary TYPE line");
    let idx_sample = text
        .find("pmv_phase_latency_seconds{")
        .expect("summary sample");
    assert!(idx_type < idx_sample, "TYPE after first summary sample");
    for q in ["0.5", "0.9", "0.99"] {
        assert!(
            text.contains(&format!(
                "pmv_phase_latency_seconds{{view=\"orders_by_day\",phase=\"ttfr\",quantile=\"{q}\"}}"
            )),
            "missing quantile {q}:\n{text}"
        );
    }
    assert!(
        text.contains("pmv_phase_latency_seconds_count{view=\"orders_by_day\",phase=\"lock_master_commit\"} 4"),
        "{text}"
    );
}
