//! The analysis crate's JSON documents: the SARIF 2.1.0 reports of
//! `pmv-analyze` ([`analyzer_sarif`]) and of the CLI's `analyze … sarif`
//! ([`verifier_sarif`]), and the verifier's own `analyze … json` report
//! ([`verify_json`]). Each is a `serde_json::Value` printed by the shim's
//! writer.
//!
//! Only the SARIF subset consumed by code-scanning UIs is emitted: one
//! run, one tool driver with rule metadata, and a flat result list with
//! optional physical locations.

use serde_json::Value;
use std::fmt::Write as _;

use crate::contracts::{AnalyzeReport, Level, CONTRACTS};
use crate::{DiagCode, Severity, VerifyReport};

/// One result row. `location` (file, line) is optional: template-verifier
/// diagnostics have no source location (they describe a view
/// definition, not a file).
struct SarifResult {
    rule_id: String,
    level: &'static str,
    message: String,
    location: Option<(String, usize)>,
}

/// A single-run SARIF 2.1.0 document over `(rule id, description)`
/// pairs and the results.
fn to_sarif(tool: &str, rules: Vec<(String, String)>, results: Vec<SarifResult>) -> Value {
    let text = |t: String| Value::from_iter([("text", t)]);
    let rules: Value = (rules.into_iter())
        .map(|(id, short)| {
            Value::from_iter([("id", Value::from(id)), ("shortDescription", text(short))])
        })
        .collect();
    let results: Value = (results.into_iter())
        .map(|r| {
            let mut fields = vec![
                ("ruleId", Value::from(r.rule_id)),
                ("level", r.level.into()),
                ("message", text(r.message)),
            ];
            if let Some((file, line)) = r.location {
                let physical = Value::from_iter([
                    ("artifactLocation", Value::from_iter([("uri", file)])),
                    ("region", Value::from_iter([("startLine", line)])),
                ]);
                let location = Value::from_iter([("physicalLocation", physical)]);
                fields.push(("locations", Value::Array(vec![location])));
            }
            Value::from_iter(fields)
        })
        .collect();
    let driver = Value::from_iter([("name", Value::from(tool)), ("rules", rules)]);
    let run = Value::from_iter([
        ("tool", Value::from_iter([("driver", driver)])),
        ("results", results),
    ]);
    Value::from_iter([
        (
            "$schema",
            Value::from("https://json.schemastore.org/sarif-2.1.0.json"),
        ),
        ("version", "2.1.0".into()),
        ("runs", Value::Array(vec![run])),
    ])
}

/// `pmv-analyze`'s report: one rule per [`CONTRACTS`] row, one located
/// result per finding.
pub fn analyzer_sarif(report: &AnalyzeReport) -> Value {
    let rules = (CONTRACTS.iter())
        .map(|c| (c.id.to_string(), c.short.to_string()))
        .collect();
    let results = (report.findings.iter())
        .map(|f| SarifResult {
            rule_id: f.rule.to_string(),
            level: match f.level {
                Level::Error => "error",
                Level::Warning => "warning",
            },
            message: f.message.clone(),
            location: Some((f.file.display().to_string(), f.line)),
        })
        .collect();
    to_sarif("pmv-analyze", rules, results)
}

/// The template verifier's report in the same SARIF shape. Verifier
/// diagnostics describe a view definition, not a file, so results carry
/// no `locations`; the dimension/relation context folds into the
/// message text.
pub fn verifier_sarif(report: &VerifyReport) -> Value {
    let rules = (DiagCode::ALL.iter())
        .map(|c| {
            let short = format!("{} (paper §{})", c.name(), c.paper_section());
            (c.code().to_string(), short)
        })
        .collect();
    let results = (report.diagnostics.iter())
        .map(|d| {
            let mut message = d.message.clone();
            if let Some(dim) = d.dimension {
                let _ = write!(message, " [dimension {dim}]");
            }
            if let Some(rel) = d.relation {
                let _ = write!(message, " [relation {rel}]");
            }
            SarifResult {
                rule_id: d.code.code().to_string(),
                level: match d.severity {
                    Severity::Deny => "error",
                },
                message,
                location: None,
            }
        })
        .collect();
    to_sarif("pmv-verify", rules, results)
}

/// The verifier's machine-readable report (`analyze … json`):
/// `{"denied":…,"diagnostics":[…]}`.
pub fn verify_json(report: &VerifyReport) -> Value {
    let diagnostics: Value = (report.diagnostics.iter())
        .map(|d| {
            Value::from_iter([
                ("code", Value::from(d.code.code())),
                ("name", d.code.name().into()),
                ("severity", d.severity.to_string().into()),
                ("paper_section", d.code.paper_section().into()),
                ("dimension", d.dimension.into()),
                ("relation", d.relation.into()),
                ("message", d.message.as_str().into()),
            ])
        })
        .collect();
    Value::from_iter([
        ("denied", Value::from(report.denied())),
        ("diagnostics", diagnostics),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contracts::Finding;

    #[test]
    fn renders_rules_and_located_results() {
        let report = AnalyzeReport {
            findings: vec![Finding {
                rule: "pin_reaches_blocking_lock",
                level: Level::Error,
                file: "crates/core/src/concurrent.rs".into(),
                line: 42,
                message: "call chain \"a\" → b acquires .lock()".into(),
            }],
            ..Default::default()
        };
        let doc = analyzer_sarif(&report);
        assert_eq!(doc["version"], "2.1.0");
        let run = &doc["runs"][0];
        assert_eq!(run["tool"]["driver"]["name"], "pmv-analyze");
        let rules = run["tool"]["driver"]["rules"].as_array().unwrap();
        assert_eq!(rules.len(), CONTRACTS.len());
        let result = &run["results"][0];
        assert_eq!(
            result["message"]["text"],
            "call chain \"a\" → b acquires .lock()"
        );
        let location = &result["locations"][0]["physicalLocation"];
        assert_eq!(location["region"]["startLine"], 42u64);
    }

    #[test]
    fn verifier_results_carry_no_location() {
        let report = VerifyReport {
            diagnostics: vec![crate::Diagnostic {
                code: DiagCode::ALL[3],
                severity: Severity::Deny,
                message: "budget exceeded".into(),
                dimension: Some(1),
                relation: None,
            }],
        };
        let result = &verifier_sarif(&report)["runs"][0]["results"][0];
        assert_eq!(result["level"], "error");
        assert_eq!(result["message"]["text"], "budget exceeded [dimension 1]");
        assert!(result.get("locations").is_none());
        let json = verify_json(&report);
        assert_eq!(json["denied"], true);
        assert_eq!(json["diagnostics"][0]["dimension"], 1u64);
        assert!(json["diagnostics"][0]["relation"].is_null());
    }
}
