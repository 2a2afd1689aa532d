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
use std::sync::Arc;

use pmv_query::{AttrRef, CondForm, QueryTemplate};
use pmv_storage::packed::{entry_frame_len, framed_len, tag_bytes, MAX_NUMBER_BYTES};
use pmv_storage::string::INLINE_CAP;
use pmv_storage::{ColumnType, Value};

use crate::bcp::Discretizer;
use crate::store::HANDLE_BYTES;
use crate::view::{PartialViewDef, PmvConfig, StoredLayout};

/// How a diagnostic is acted upon at registration time: every verifier
/// code blocks registration.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Blocks registration.
    Deny,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
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

/// Estimate the average view-tuple size `At` in bytes: the most the
/// view's store charges for one cached tuple — its unshared entry frame
/// ([`entry_frame_len`]), the header `LEB128(len << 1)` (one byte below
/// 64 B of fields), then the packed row of its
/// [`crate::view::StoredLayout`], the `Ls'` positions its entry cannot
/// derive: a tag byte per two fields ([`tag_bytes`]) and each field's
/// payload. A tuple that shares a prefix with the one before it in its
/// entry is charged less, never more. An entry is charged
/// [`estimate_entry_bytes`] besides its tuples, so a full view holds at
/// most `L·(E + F·At)` bytes. An `Int` or `Double` payload is counted
/// at [`MAX_NUMBER_BYTES`] (8); a `Str` payload at `1 + INLINE_CAP` (a
/// length byte, which a string of at most 3 bytes carries in its tag
/// instead, and up to [`INLINE_CAP`] bytes). A `Double` takes exactly
/// that; an `Int` packs to the bytes its value needs, which the schema
/// cannot know, so for rows without NULLs and strings of at most
/// `INLINE_CAP` bytes the estimate bounds the charge from above and is
/// conservative by at most 7 B per `Int`, and by the header byte a
/// narrower row may not need (exact when every `Int` needs 8 bytes and
/// the row shares nothing). The tags are counted exactly. A NULL is its
/// nibble alone; a longer string is charged its length, which the
/// schema cannot tell either — pass [`VerifyOptions::avg_tuple_bytes`]
/// for views of long strings.
pub fn estimate_tuple_bytes(template: &QueryTemplate) -> usize {
    let list = template.expanded_list();
    let layout = StoredLayout::for_template(template);
    let stored = layout.stored_positions();
    let payload: usize = stored
        .iter()
        .map(|&p| payload_bytes(template, list[p]))
        .sum();
    entry_frame_len(tag_bytes(stored.len()) + payload)
}

/// Estimate what the view's store charges an entry besides its tuples,
/// `E`: the handle of the entry's bytes ([`HANDLE_BYTES`]) and its key's
/// frame — a LEB128 length, then the key packed as a row of one field
/// per condition, its payload counted as [`estimate_tuple_bytes`]
/// counts one: an equality condition's by its column's type, an
/// interval condition's basic-interval id as the `Int` it is written
/// as. For T1's two integer conditions, `4 + 1 + 1 + 2·8 = 22` B
/// against a charge of 8–10 B.
pub fn estimate_entry_bytes(template: &QueryTemplate) -> usize {
    let conds = template.cond_templates();
    let payload: usize = conds
        .iter()
        .map(|ct| match ct.form {
            CondForm::Equality => payload_bytes(template, ct.attr),
            CondForm::Interval => MAX_NUMBER_BYTES,
        })
        .sum();
    HANDLE_BYTES + framed_len(tag_bytes(conds.len()) + payload)
}

/// The payload bytes a packed field of `attr`'s column is counted at:
/// a number's widest, a string's length byte and inline bytes.
fn payload_bytes(template: &QueryTemplate, attr: AttrRef) -> usize {
    match template.schema(attr.relation).column(attr.column).ty {
        ColumnType::Int | ColumnType::Double => MAX_NUMBER_BYTES,
        ColumnType::Str => 1 + INLINE_CAP,
    }
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

    // PMV004 — L × (E + F × At) against the byte budget.
    if let Some(budget) = opts.byte_budget {
        let at = opts
            .avg_tuple_bytes
            .unwrap_or_else(|| estimate_tuple_bytes(template));
        let e = estimate_entry_bytes(template);
        let ub = config
            .l
            .saturating_mul(config.f.saturating_mul(at).saturating_add(e));
        if ub > budget {
            emit(
                DiagCode::StorageBoundExceeded,
                format!(
                    "UB = L·(E + F·At) = {}·({e} + {}·{}) = {ub} bytes \
                     exceeds the {budget}-byte budget (Section 3.2 sizing)",
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
    use pmv_storage::Tuple;
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

    /// What the store of a view of `t` charges an entry besides its
    /// rows, and for one more cached tuple, each tuple an `Ls'` row built
    /// by `row` — the first two of the same width, apart in their first
    /// value, so the second shares at most its first tag byte, which
    /// costs what its unshared frame does — and filed under the bcp that
    /// sets each of `t`'s equality conditions to 1.
    fn charges(t: &Arc<QueryTemplate>, row: impl Fn(i64) -> Tuple) -> (usize, usize) {
        use crate::bcp::{BcpDim, BcpKey};
        use crate::delta_index::DeltaKeyIndex;
        use crate::store::PmvStore;
        let def = PartialViewDef::all_equality("v", Arc::clone(t)).unwrap();
        let layout = def.layout();
        let mut store = PmvStore::new(&PmvConfig::new(4, 4, PolicyKind::Clock));
        store.enable_index(DeltaKeyIndex::for_view(&def));
        let bcp = BcpKey::new(vec![BcpDim::Eq(Value::Int(1)); t.cond_count()]);
        store.admit(&bcp);
        let (one, two) = (row(1), row(2));
        assert_eq!(
            store.fill(&bcp, std::iter::once(layout.stored_values(&one)), 0),
            1
        );
        let before = store.byte_size();
        assert_eq!(
            store.fill(&bcp, std::iter::once(layout.stored_values(&two)), 0),
            1
        );
        store.validate();
        let tuple = store.byte_size() - before;
        (before - tuple, tuple)
    }

    /// `At` is what the store charges per cached tuple, so `L·(E + F·At)`
    /// bounds the bytes a full view is charged: for a template of
    /// numbers only and a row without NULLs whose integers need all 8
    /// bytes, the estimate equals the charge of the view's store for one
    /// more tuple — two stored numbers behind one tag byte, since the
    /// equality column `f` is the bcp's. The key `(1)` is framed in 1 + 2
    /// B (its tag byte and its integer's one byte) behind the 4-byte
    /// handle, where `E` counts its integer at 8 B.
    #[test]
    fn estimate_equals_the_store_charge_for_full_width_numbers() {
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
        let (entry, charge) = charges(&t, |a| {
            let values = t.expanded_list().iter().map(|attr| match attr.column {
                1 => Value::from(-0.0),
                2 => Value::Int(1),
                // i64::MAX, then i64::MIN: 8 bytes each.
                _ => Value::Int(i64::MAX.wrapping_add(a - 1)),
            });
            Tuple::new(values.collect::<Vec<_>>())
        });
        assert_eq!(charge, 1 + 1 + 2 * 8);
        assert_eq!(estimate_tuple_bytes(&t), charge);
        assert_eq!(entry, HANDLE_BYTES + 1 + 2);
        assert_eq!(estimate_entry_bytes(&t), HANDLE_BYTES + 1 + 1 + 8);
    }

    /// T1 (`orders ⋈ lineitem`, `select *`, equality on `orderdate` and
    /// `suppkey`) stores five integers and the two (empty) fillers behind
    /// four tag bytes. Small integers take 1–2 payload bytes: charged
    /// 1 + 10 = 11 B, which the estimate bounds from above by counting
    /// each integer at 8 B and each filler at `1 + INLINE_CAP`. Its key
    /// `(1, 1)` is charged 4 + 1 + 3 = 8 B, estimated at 4 + 1 + 1 + 16 =
    /// 22 B.
    #[test]
    fn estimate_bounds_the_store_charge_for_t1() {
        let int = |n: &str| Column::new(n, ColumnType::Int);
        let filler = Column::new("filler", ColumnType::Str);
        let t = TemplateBuilder::new("T1")
            .relation(Schema::new(
                "orders",
                vec![
                    int("orderkey"),
                    int("custkey"),
                    int("orderdate"),
                    int("totalprice"),
                    filler.clone(),
                ],
            ))
            .relation(Schema::new(
                "lineitem",
                vec![
                    int("orderkey"),
                    int("suppkey"),
                    int("quantity"),
                    int("extendedprice"),
                    filler,
                ],
            ))
            .join("orders", "orderkey", "lineitem", "orderkey")
            .unwrap()
            .select_star()
            .cond_eq("orders", "orderdate")
            .unwrap()
            .cond_eq("lineitem", "suppkey")
            .unwrap()
            .build()
            .unwrap();
        // orders(k, c, 1, p, ''), lineitem(k, 1, q, e, ''): both
        // equality columns are 1, the bcp's values.
        let (entry, charge) = charges(&t, |k| {
            pmv_storage::tuple![k, 7i64, 1i64, 100i64, "", k, 1i64, 3i64, 300i64, ""]
        });
        // k = 2, 7, 100, '', 3, 300, '': four tag bytes and
        // 1 + 1 + 1 + 0 + 1 + 2 + 0 B, behind one byte of length.
        assert_eq!(charge, 1 + 4 + 6);
        // 70 B of row take a two-byte header: 70 << 1 passes 127.
        assert_eq!(
            estimate_tuple_bytes(&t),
            2 + 4 + 5 * 8 + 2 * (1 + INLINE_CAP)
        );
        assert!(estimate_tuple_bytes(&t) >= charge);
        assert_eq!((entry, estimate_entry_bytes(&t)), (8, 22));
    }
}
