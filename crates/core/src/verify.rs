//! Static template verifier — registration-time analysis of a PMV
//! definition *without executing anything*.
//!
//! The paper's correctness story rests on invariants that the runtime
//! only checks dynamically (or not at all):
//!
//! * `Cselect` decomposes into equality disjunctions / disjoint interval
//!   disjunctions (Section 2.1) — otherwise O1 is meaningless;
//! * the basic-interval grid partitions each interval dimension
//!   (Section 3.1) — otherwise probes misroute and cells overlap;
//! * storage respects `UB ≤ L × F × At` (Section 3.2) — otherwise the
//!   "many PMVs fit in memory" argument collapses at runtime;
//! * the maintenance filter over-approximates on every `Ls'`/`Cjoin`
//!   attribute (Section 3.4) — otherwise deletes can be skipped that
//!   actually affect cached tuples, silently serving stale results.
//!
//! [`verify_parts`] checks all of these statically and emits typed
//! [`Diagnostic`]s with stable codes `PMV001..PMV006`. The verifier is
//! wired into [`crate::epoch::EpochDb::register`], where every code
//! denies the registration, and surfaced through the CLI
//! `analyze` command; the `pmv-analysis` crate re-exports this module as
//! the first layer of the static-analysis subsystem.

use std::fmt;
use std::mem::size_of;
use std::sync::Arc;

use pmv_query::{CondForm, QueryTemplate};
use pmv_storage::{Tuple, Value};

use crate::bcp::Discretizer;
use crate::view::{PartialViewDef, PmvConfig};

/// How a diagnostic is acted upon at registration time.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Recorded but never blocks registration.
    Allow,
    /// Reported; blocks only when the caller escalates warnings.
    Warn,
    /// Blocks registration.
    Deny,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Allow => "allow",
            Severity::Warn => "warn",
            Severity::Deny => "deny",
        })
    }
}

/// Stable diagnostic codes. Each guards one paper invariant; the mapping
/// to paper sections is documented per variant and in DESIGN.md §12.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DiagCode {
    /// PMV001 — a selection condition cannot be discretized as declared:
    /// an interval-form condition has no [`Discretizer`], or an
    /// equality-form condition was given one (Sections 2.1, 3.1).
    NonDiscretizablePredicate,
    /// PMV002 — a dimension's dividers are not in normalized form
    /// (strictly increasing under the half-open convention), so basic
    /// intervals overlap or collapse to empty cells (Section 3.1).
    OverlappingBasicIntervals,
    /// PMV003 — a divider lies outside the condition attribute's value
    /// domain (wrong type), so the grid fails to actually divide the
    /// dimension: every domain value lands in one edge cell and the
    /// declared grid has a gap over the real domain (Section 3.1).
    GridGapOnDimension,
    /// PMV004 — the configured `L × F × At` storage bound exceeds the
    /// byte budget (Section 3.2).
    StorageBoundExceeded,
    /// PMV005 — the maintenance filter's projection (the key of
    /// [`crate::DeltaKeyIndex`], reference [`FilterSpec::for_template`])
    /// misses or mismatches an `Ls'`/`Cjoin` attribute, voiding the
    /// Section 3.4 skip-the-join soundness argument.
    UnsoundMaintFilter,
    /// PMV006 — unreachable bcp cells: a `Cjoin` fixed predicate pins a
    /// condition attribute, so every cell not containing the pinned
    /// value can never hold a result tuple (Sections 3.1, 3.3).
    DeadBcp,
}

impl DiagCode {
    /// Every code, in numeric order.
    pub const ALL: [DiagCode; 6] = [
        DiagCode::NonDiscretizablePredicate,
        DiagCode::OverlappingBasicIntervals,
        DiagCode::GridGapOnDimension,
        DiagCode::StorageBoundExceeded,
        DiagCode::UnsoundMaintFilter,
        DiagCode::DeadBcp,
    ];

    /// Stable code string (`PMV001`..`PMV006`).
    pub fn code(&self) -> &'static str {
        match self {
            DiagCode::NonDiscretizablePredicate => "PMV001",
            DiagCode::OverlappingBasicIntervals => "PMV002",
            DiagCode::GridGapOnDimension => "PMV003",
            DiagCode::StorageBoundExceeded => "PMV004",
            DiagCode::UnsoundMaintFilter => "PMV005",
            DiagCode::DeadBcp => "PMV006",
        }
    }

    /// Human name matching the issue/DESIGN.md vocabulary.
    pub fn name(&self) -> &'static str {
        match self {
            DiagCode::NonDiscretizablePredicate => "NonDiscretizablePredicate",
            DiagCode::OverlappingBasicIntervals => "OverlappingBasicIntervals",
            DiagCode::GridGapOnDimension => "GridGapOnDimension",
            DiagCode::StorageBoundExceeded => "StorageBoundExceeded",
            DiagCode::UnsoundMaintFilter => "UnsoundMaintFilter",
            DiagCode::DeadBcp => "DeadBcp",
        }
    }

    /// Paper section the code guards (for reports).
    pub fn paper_section(&self) -> &'static str {
        match self {
            DiagCode::NonDiscretizablePredicate => "2.1/3.1",
            DiagCode::OverlappingBasicIntervals => "3.1",
            DiagCode::GridGapOnDimension => "3.1",
            DiagCode::StorageBoundExceeded => "3.2",
            DiagCode::UnsoundMaintFilter => "3.4",
            DiagCode::DeadBcp => "3.1/3.3",
        }
    }

    fn index(&self) -> usize {
        match self {
            DiagCode::NonDiscretizablePredicate => 0,
            DiagCode::OverlappingBasicIntervals => 1,
            DiagCode::GridGapOnDimension => 2,
            DiagCode::StorageBoundExceeded => 3,
            DiagCode::UnsoundMaintFilter => 4,
            DiagCode::DeadBcp => 5,
        }
    }
}

impl fmt::Display for DiagCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.code(), self.name())
    }
}

/// One finding from the template verifier.
#[derive(Clone, Debug)]
pub struct Diagnostic {
    /// Which invariant is violated.
    pub code: DiagCode,
    /// Severity; every verifier code denies.
    pub severity: Severity,
    /// Human-readable explanation with the offending values.
    pub message: String,
    /// Condition-dimension index, when the finding is per-dimension.
    pub dimension: Option<usize>,
    /// Relation index, when the finding is per-relation.
    pub relation: Option<usize>,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}] {}: {}",
            self.severity,
            self.code.code(),
            self.code.name(),
            self.message
        )
    }
}

/// The maintenance-filter projection under analysis: for each relation,
/// the `(Ls' position, base column)` pairs its key is built from.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FilterSpec {
    /// One `(view_positions, base_columns)` pair per template relation.
    pub per_relation: Vec<(Vec<usize>, Vec<usize>)>,
}

impl FilterSpec {
    /// The spec [`crate::DeltaKeyIndex::new`] keys on for a template —
    /// the sound reference the verifier compares a candidate spec against.
    pub fn for_template(template: &QueryTemplate) -> Self {
        let n = template.relations().len();
        let mut per_relation = vec![(Vec::new(), Vec::new()); n];
        for (pos, attr) in template.expanded_list().iter().enumerate() {
            per_relation[attr.relation].0.push(pos);
            per_relation[attr.relation].1.push(attr.column);
        }
        FilterSpec { per_relation }
    }
}

/// Inputs to the verifier beyond the template itself.
#[derive(Clone, Debug, Default)]
pub struct VerifyOptions {
    /// Byte budget for `PMV004`. `None` disables the storage-bound check
    /// (a view's runtime `L` bound is a different, soft knob).
    pub byte_budget: Option<usize>,
    /// Average tuple size `At` override; estimated from the schema when
    /// `None`.
    pub avg_tuple_bytes: Option<usize>,
    /// Maintenance-filter spec to audit for `PMV005`. `None` audits the
    /// spec [`FilterSpec::for_template`] derives (sound by construction).
    pub filter: Option<FilterSpec>,
}

/// Outcome of a verification run.
#[derive(Clone, Debug, Default)]
pub struct VerifyReport {
    /// Findings, in code order.
    pub diagnostics: Vec<Diagnostic>,
}

impl VerifyReport {
    /// Whether any finding carries deny severity.
    pub fn denied(&self) -> bool {
        self.diagnostics
            .iter()
            .any(|d| d.severity == Severity::Deny)
    }

    /// Whether a specific code fired (any severity).
    pub fn has(&self, code: DiagCode) -> bool {
        self.diagnostics.iter().any(|d| d.code == code)
    }

    /// The distinct codes that fired, in report order.
    pub fn codes(&self) -> Vec<&'static str> {
        let mut out = Vec::new();
        for d in &self.diagnostics {
            if !out.contains(&d.code.code()) {
                out.push(d.code.code());
            }
        }
        out
    }
}

impl fmt::Display for VerifyReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.diagnostics.is_empty() {
            return f.write_str("clean (no diagnostics)");
        }
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "{d}")?;
        }
        Ok(())
    }
}

/// Estimate the average view-tuple size `At` in bytes: what the view's
/// store charges for one cached tuple of the expanded select list — the
/// `Tuple` header plus one `Value` per field. A string longer than
/// [`pmv_storage::string::INLINE_CAP`] bytes also owns its payload,
/// which the schema cannot tell; pass
/// [`VerifyOptions::avg_tuple_bytes`] for views of long strings.
pub fn estimate_tuple_bytes(template: &QueryTemplate) -> usize {
    size_of::<Tuple>() + template.expanded_list().len() * size_of::<Value>()
}

/// Verify a prospective PMV from raw parts, before a
/// [`PartialViewDef`] is even constructed (so form mismatches that the
/// constructor would reject are reportable as `PMV001`).
pub fn verify_parts(
    template: &Arc<QueryTemplate>,
    discretizers: &[Option<Discretizer>],
    config: &PmvConfig,
    opts: &VerifyOptions,
) -> VerifyReport {
    let mut report = VerifyReport::default();
    let mut emit =
        |code: DiagCode, message: String, dimension: Option<usize>, relation: Option<usize>| {
            report.diagnostics.push(Diagnostic {
                code,
                severity: Severity::Deny,
                message,
                dimension,
                relation,
            });
        };

    // PMV001 — every condition must be discretizable as declared.
    if discretizers.len() != template.cond_count() {
        emit(
            DiagCode::NonDiscretizablePredicate,
            format!(
                "template '{}' has {} selection conditions but {} discretizer slots",
                template.name(),
                template.cond_count(),
                discretizers.len()
            ),
            None,
            None,
        );
    }
    for (i, ct) in template.cond_templates().iter().enumerate() {
        let d = discretizers.get(i).and_then(|d| d.as_ref());
        match (ct.form, d) {
            (CondForm::Interval, None) => emit(
                DiagCode::NonDiscretizablePredicate,
                format!(
                    "interval condition {i} on {} has no discretizer — the dimension cannot \
                     be cut into basic intervals",
                    attr_name(template, ct.attr.relation, ct.attr.column)
                ),
                Some(i),
                Some(ct.attr.relation),
            ),
            (CondForm::Equality, Some(_)) => emit(
                DiagCode::NonDiscretizablePredicate,
                format!(
                    "equality condition {i} on {} carries a discretizer — equality \
                     dimensions are keyed by value, not by basic interval",
                    attr_name(template, ct.attr.relation, ct.attr.column)
                ),
                Some(i),
                Some(ct.attr.relation),
            ),
            _ => {}
        }
    }

    // Per-dimension grid checks on interval conditions.
    for (i, ct) in template.cond_templates().iter().enumerate() {
        let Some(d) = discretizers.get(i).and_then(|d| d.as_ref()) else {
            continue;
        };
        if ct.form != CondForm::Interval {
            continue; // already PMV001 above
        }
        let col_ty = template.schema(ct.attr.relation).column(ct.attr.column).ty;
        let dividers = d.dividers();

        // PMV002 — normalized form: strictly increasing dividers. A
        // duplicate collapses a cell to empty; a descending pair makes
        // the flanking cells overlap.
        for (k, w) in dividers.windows(2).enumerate() {
            if w[0] >= w[1] {
                emit(
                    DiagCode::OverlappingBasicIntervals,
                    format!(
                        "dimension {i}: dividers not in normalized form (strictly \
                         increasing): dividers[{k}]={} !< dividers[{}]={} — basic \
                         intervals overlap or are empty under the half-open convention",
                        w[0],
                        k + 1,
                        w[1]
                    ),
                    Some(i),
                    None,
                );
            }
        }
        // Semantic double-check: any two non-empty basic intervals must
        // be disjoint.
        let cells: Vec<_> = (0..d.interval_count() as u32)
            .map(|id| d.interval_of(id))
            .collect();
        'overlap: for a in 0..cells.len() {
            for b in (a + 1)..cells.len() {
                if !cells[a].is_empty() && !cells[b].is_empty() && cells[a].overlaps(&cells[b]) {
                    emit(
                        DiagCode::OverlappingBasicIntervals,
                        format!(
                            "dimension {i}: basic intervals {a} and {b} overlap ({} vs {})",
                            cells[a], cells[b]
                        ),
                        Some(i),
                        None,
                    );
                    break 'overlap;
                }
            }
        }

        // PMV003 — every divider must lie in the condition attribute's
        // value domain; an off-type divider never splits the real domain,
        // so the declared grid has a gap over it (all actual values pile
        // into one edge cell).
        for (k, v) in dividers.iter().enumerate() {
            if !col_ty.admits(v) || matches!(v, Value::Null) {
                emit(
                    DiagCode::GridGapOnDimension,
                    format!(
                        "dimension {i}: divider[{k}]={v:?} is outside the {col_ty:?} domain \
                         of {} — the grid never cuts the dimension there, leaving a gap",
                        attr_name(template, ct.attr.relation, ct.attr.column)
                    ),
                    Some(i),
                    None,
                );
            }
        }

        // PMV006 — a Cjoin fixed predicate pinning the condition
        // attribute makes every cell not containing the pinned value
        // unreachable.
        for fp in template.fixed_preds() {
            if fp.attr == ct.attr {
                let live = d.id_of(&fp.value);
                let dead = d.interval_count().saturating_sub(1);
                if dead > 0 {
                    emit(
                        DiagCode::DeadBcp,
                        format!(
                            "dimension {i}: fixed predicate pins {} = {:?}; only basic \
                             interval {live} is reachable, the other {dead} cells are dead",
                            attr_name(template, ct.attr.relation, ct.attr.column),
                            fp.value
                        ),
                        Some(i),
                        None,
                    );
                }
            }
        }
    }
    // PMV006 on equality dimensions: a pinned equality attribute leaves
    // exactly one live cell in an unbounded key space.
    for (i, ct) in template.cond_templates().iter().enumerate() {
        if ct.form != CondForm::Equality {
            continue;
        }
        for fp in template.fixed_preds() {
            if fp.attr == ct.attr {
                emit(
                    DiagCode::DeadBcp,
                    format!(
                        "dimension {i}: fixed predicate pins equality attribute {} = {:?}; \
                         every bcp with a different key value is dead",
                        attr_name(template, ct.attr.relation, ct.attr.column),
                        fp.value
                    ),
                    Some(i),
                    None,
                );
            }
        }
    }

    // PMV004 — L × F × At against the byte budget.
    if let Some(budget) = opts.byte_budget {
        let at = opts
            .avg_tuple_bytes
            .unwrap_or_else(|| estimate_tuple_bytes(template));
        let ub = config.l.saturating_mul(config.f).saturating_mul(at);
        if ub > budget {
            emit(
                DiagCode::StorageBoundExceeded,
                format!(
                    "UB = L·F·At = {}·{}·{} = {ub} bytes exceeds the {budget}-byte budget \
                     (Section 3.2 sizing)",
                    config.l, config.f, at
                ),
                None,
                None,
            );
        }
    }

    // PMV005 — audit the maintenance-filter projection against the
    // template-derived reference spec.
    let reference = FilterSpec::for_template(template);
    let candidate = opts.filter.as_ref().unwrap_or(&reference);
    if candidate.per_relation.len() != reference.per_relation.len() {
        emit(
            DiagCode::UnsoundMaintFilter,
            format!(
                "filter covers {} relations, template has {}",
                candidate.per_relation.len(),
                reference.per_relation.len()
            ),
            None,
            None,
        );
    } else {
        for (rel, (cand, want)) in candidate
            .per_relation
            .iter()
            .zip(reference.per_relation.iter())
            .enumerate()
        {
            if cand != want {
                let pairs = |s: &(Vec<usize>, Vec<usize>)| {
                    s.0.iter()
                        .zip(s.1.iter())
                        .map(|(v, b)| format!("Ls'[{v}]↔col{b}"))
                        .collect::<Vec<_>>()
                        .join(", ")
                };
                emit(
                    DiagCode::UnsoundMaintFilter,
                    format!(
                        "relation {rel} ('{}'): filter keys on [{}] but Ls'/Cjoin \
                         coverage requires [{}] — a delete may be skipped while it \
                         still affects cached tuples",
                        template.relations()[rel],
                        pairs(cand),
                        pairs(want)
                    ),
                    None,
                    Some(rel),
                );
            }
        }
    }

    report
        .diagnostics
        .sort_by_key(|d| (d.code.index(), d.dimension, d.relation));
    report
}

/// Verify a constructed [`PartialViewDef`] (the registration path).
pub fn verify_def(def: &PartialViewDef, config: &PmvConfig, opts: &VerifyOptions) -> VerifyReport {
    let template = def.template().clone();
    let discretizers: Vec<Option<Discretizer>> = (0..template.cond_count())
        .map(|i| def.discretizer(i).cloned())
        .collect();
    verify_parts(&template, &discretizers, config, opts)
}

fn attr_name(template: &QueryTemplate, rel: usize, col: usize) -> String {
    format!(
        "{}.{}",
        template.relations()[rel],
        template.schema(rel).column(col).name
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmv_cache::PolicyKind;
    use pmv_query::TemplateBuilder;
    use pmv_storage::{Column, ColumnType, Schema};

    fn schema() -> Schema {
        Schema::new(
            "r",
            vec![
                Column::new("a", ColumnType::Int),
                Column::new("f", ColumnType::Int),
            ],
        )
    }

    fn interval_template() -> Arc<QueryTemplate> {
        TemplateBuilder::new("t")
            .relation(schema())
            .select("r", "a")
            .unwrap()
            .cond_interval("r", "f")
            .unwrap()
            .build()
            .unwrap()
    }

    #[test]
    fn clean_template_is_clean() {
        let t = interval_template();
        let d = vec![Some(Discretizer::int_grid(0, 100, 10))];
        let report = verify_parts(&t, &d, &PmvConfig::default(), &VerifyOptions::default());
        assert!(!report.denied(), "{report}");
        assert!(report.diagnostics.is_empty(), "{report}");
    }

    #[test]
    fn missing_discretizer_is_pmv001() {
        let t = interval_template();
        let report = verify_parts(
            &t,
            &[None],
            &PmvConfig::default(),
            &VerifyOptions::default(),
        );
        assert!(report.denied());
        assert!(report.has(DiagCode::NonDiscretizablePredicate));
    }

    #[test]
    fn storage_bound_is_pmv004() {
        let t = interval_template();
        let d = vec![Some(Discretizer::int_grid(0, 100, 10))];
        let opts = VerifyOptions {
            byte_budget: Some(64),
            ..Default::default()
        };
        let config = PmvConfig::new(2, 1000, PolicyKind::Clock);
        let report = verify_parts(&t, &d, &config, &opts);
        assert!(report.denied());
        assert!(report.has(DiagCode::StorageBoundExceeded));
        // A generous budget passes.
        let opts = VerifyOptions {
            byte_budget: Some(1 << 30),
            ..Default::default()
        };
        assert!(!verify_parts(&t, &d, &config, &opts).denied());
    }

    /// `At` is what the store charges per cached tuple, so `L·F·At` is
    /// the bytes a full view holds: the estimate for an all-scalar
    /// template equals the store's charge for one more tuple.
    #[test]
    fn estimate_equals_the_store_charge_for_a_scalar_tuple() {
        use crate::bcp::{BcpDim, BcpKey};
        use crate::store::PmvStore;
        let t = TemplateBuilder::new("t")
            .relation(Schema::new(
                "r",
                vec![
                    Column::new("a", ColumnType::Int),
                    Column::new("d", ColumnType::Double),
                    Column::new("f", ColumnType::Int),
                ],
            ))
            .select("r", "a")
            .unwrap()
            .select("r", "d")
            .unwrap()
            .cond_eq("r", "f")
            .unwrap()
            .build()
            .unwrap();
        let row = |a: i64| {
            let values = t.expanded_list().iter().map(|attr| match attr.column {
                1 => Value::Double(0.5),
                _ => Value::Int(a),
            });
            Arc::new(Tuple::new(values.collect::<Vec<_>>()))
        };
        let mut store = PmvStore::new(&PmvConfig::new(4, 4, PolicyKind::Clock));
        let bcp = BcpKey::new(vec![BcpDim::Eq(Value::Int(1))]);
        store.admit(&bcp);
        assert!(store.push_arc(&bcp, row(1), 0));
        let before = store.byte_size();
        assert!(store.push_arc(&bcp, row(2), 0));
        let charge = store.byte_size() - before;
        assert_eq!(estimate_tuple_bytes(&t), charge);
        assert_eq!(charge, 16 + 16 * t.expanded_list().len());
    }
}
