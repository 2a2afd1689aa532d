//! Minimal SARIF 2.1.0 report rendering, shared by the `pmv-analyze`
//! binary and the CLI's `analyze … sarif` command.
//!
//! Only the subset consumed by code-scanning UIs is emitted: one run,
//! one tool driver with rule metadata, and a flat result list with
//! optional physical locations. This crate does not link the workspace
//! serde_json shim: its serializer renders a `Value` tree, and a
//! document of fixed shape with a handful of string fields is shorter
//! written directly than built as a tree first; strings go through
//! [`pmv_obs::json_escape`].

use std::fmt::Write as _;

/// Rule metadata for the `tool.driver.rules` array.
#[derive(Clone, Debug)]
pub struct SarifRule {
    /// Stable rule identifier (`pin_reaches_blocking_lock`, `PMV004`, …).
    pub id: String,
    /// One-line description shown by SARIF viewers.
    pub short: String,
}

/// One result row. `file`/`line` are optional: template-verifier
/// diagnostics have no source location (they describe a view
/// definition, not a file).
#[derive(Clone, Debug)]
pub struct SarifResult {
    /// Rule identifier; should match a [`SarifRule::id`].
    pub rule_id: String,
    /// SARIF level: `"error"`, `"warning"` or `"note"`.
    pub level: &'static str,
    /// Human-readable message.
    pub message: String,
    /// Repo-relative file path, when the result points at source.
    pub file: Option<String>,
    /// 1-based line, when the result points at source.
    pub line: Option<usize>,
}

/// Render a single-run SARIF 2.1.0 document.
pub fn to_sarif(tool: &str, rules: &[SarifRule], results: &[SarifResult]) -> String {
    let mut out = String::with_capacity(1024 + results.len() * 160);
    out.push_str("{\"$schema\":\"https://json.schemastore.org/sarif-2.1.0.json\",");
    out.push_str("\"version\":\"2.1.0\",\"runs\":[{\"tool\":{\"driver\":{");
    let _ = write!(out, "\"name\":{},\"rules\":[", json_str(tool));
    for (i, r) in rules.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"id\":{},\"shortDescription\":{{\"text\":{}}}}}",
            json_str(&r.id),
            json_str(&r.short)
        );
    }
    out.push_str("]}},\"results\":[");
    for (i, r) in results.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"ruleId\":{},\"level\":{},\"message\":{{\"text\":{}}}",
            json_str(&r.rule_id),
            json_str(r.level),
            json_str(&r.message)
        );
        if let (Some(file), Some(line)) = (&r.file, r.line) {
            let _ = write!(
                out,
                ",\"locations\":[{{\"physicalLocation\":{{\"artifactLocation\":\
                 {{\"uri\":{}}},\"region\":{{\"startLine\":{line}}}}}}}]",
                json_str(file)
            );
        }
        out.push('}');
    }
    out.push_str("]}]}");
    out
}

/// A quoted JSON string literal.
fn json_str(s: &str) -> String {
    format!("\"{}\"", pmv_obs::json_escape(s))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_rules_and_located_results() {
        let rules = vec![SarifRule {
            id: "pin_reaches_blocking_lock".into(),
            short: "no blocking lock reachable from a pin region".into(),
        }];
        let results = vec![
            SarifResult {
                rule_id: "pin_reaches_blocking_lock".into(),
                level: "error",
                message: "call chain \"a\" → b acquires .lock()".into(),
                file: Some("crates/core/src/concurrent.rs".into()),
                line: Some(42),
            },
            SarifResult {
                rule_id: "PMV004".into(),
                level: "warning",
                message: "budget exceeded".into(),
                file: None,
                line: None,
            },
        ];
        let doc = to_sarif("pmv-analyze", &rules, &results);
        assert!(doc.contains("\"version\":\"2.1.0\""));
        assert!(doc.contains("\"name\":\"pmv-analyze\""));
        assert!(doc.contains("\"startLine\":42"));
        assert!(doc.contains("\\\"a\\\" → b"));
        // The unlocated result carries no locations array.
        assert!(doc.contains("\"message\":{\"text\":\"budget exceeded\"}}"));
    }
}
