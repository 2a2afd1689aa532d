//! Partial materialized view definitions (Section 3.2).
//!
//! ```text
//! create partial materialized view V_PM as subset of
//!   select Ls' from R1, R2, …, Rn
//!   where Cjoin with selection condition template Cselect;
//! ```
//!
//! A [`PartialViewDef`] couples a [`QueryTemplate`] with one
//! [`Discretizer`] per interval-form condition, plus the person-specified
//! knobs: `F` (max result tuples stored per bcp), the entry budget `L`,
//! and the replacement policy. The containing materialized view `V_M` is
//! implicit — it is the template joined without `Cselect`.

use std::borrow::Cow;
use std::sync::Arc;
use std::time::Duration;

use pmv_cache::PolicyKind;
use pmv_query::{AttrRef, CondForm, QueryInstance, QueryTemplate};
use pmv_storage::packed::RowWriter;
use pmv_storage::{PackedRow, RowRef, Tuple, Value};

use crate::bcp::{BcpDim, BcpKey, Discretizer};
use crate::{CoreError, Result};

/// Tuning knobs for a PMV.
#[derive(Clone, Debug)]
pub struct PmvConfig {
    /// Max result tuples stored per basic condition part (`F`).
    pub f: usize,
    /// Max number of bcp entries (`L`). Together with the average tuple
    /// size `At` this bounds storage: `UB ≤ L × F × At`.
    pub l: usize,
    /// How resident bcps are managed (CLOCK by default, per the paper).
    pub policy: PolicyKind,
    /// Wall-clock budget for one O3 execution; when exceeded, the query
    /// returns the O2 partials flagged `Degraded` instead of blocking.
    /// `None` (the default) runs O3 to completion.
    pub o3_deadline: Option<Duration>,
    /// Cap on tuples one O3 execution may examine; same degradation
    /// semantics as `o3_deadline`. `None` (the default) is unlimited.
    pub o3_max_tuples: Option<u64>,
}

impl Default for PmvConfig {
    fn default() -> Self {
        // The paper's running example: "If L = 10K, F = 2, and At = 50B,
        // then the size of V_PM is no more than 1MB".
        PmvConfig {
            f: 2,
            l: 10_000,
            policy: PolicyKind::Clock,
            o3_deadline: None,
            o3_max_tuples: None,
        }
    }
}

impl PmvConfig {
    /// Config with explicit `F`, `L`, and policy (no execution budget).
    pub fn new(f: usize, l: usize, policy: PolicyKind) -> Self {
        PmvConfig {
            f,
            l,
            policy,
            ..PmvConfig::default()
        }
    }

    /// Bound each O3 execution to `deadline` of wall-clock time.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.o3_deadline = Some(deadline);
        self
    }

    /// Bound each O3 execution to examining at most `max_tuples` tuples.
    pub fn with_row_budget(mut self, max_tuples: u64) -> Self {
        self.o3_max_tuples = Some(max_tuples);
        self
    }

    /// Derive the entry budget `L` from a byte budget `UB`, per the
    /// paper's bound `UB ≤ L × F × At` with what the store charges an
    /// entry besides its tuples added: `UB ≤ L × (E + F × At)`, `E` an
    /// entry's charge without its rows
    /// ([`estimate_entry_bytes`](crate::verify::estimate_entry_bytes))
    /// and `At` a tuple's
    /// ([`estimate_tuple_bytes`](crate::verify::estimate_tuple_bytes)).
    pub fn with_byte_budget(
        f: usize,
        ub_bytes: usize,
        entry_bytes: usize,
        avg_tuple_bytes: usize,
        policy: PolicyKind,
    ) -> Self {
        assert!(f > 0 && avg_tuple_bytes > 0);
        let l = (ub_bytes / (entry_bytes + f * avg_tuple_bytes)).max(1);
        PmvConfig::new(f, l, policy)
    }
}

/// Where the value at one `Ls'` position of a cached tuple comes from.
#[derive(Clone, Debug, PartialEq)]
enum Source {
    /// Stored: the field at this index of the packed row.
    Stored(usize),
    /// Fixed by the entry: the value of the bcp's equality dimension.
    Bcp(usize),
    /// Fixed by the template: a parameterless predicate of `Cjoin`.
    Fixed(Value),
}

/// The layout cached tuples are stored in: only the `Ls'` values their
/// entry cannot derive.
///
/// §3.2 bounds a view by `UB ≤ L·F·At`, and every tuple of an entry
/// repeats what the entry already fixes. An `Ls'` position is *not*
/// stored when
/// * its value is fixed by the entry — an equality-form condition's
///   attribute equals the bcp's value, a fixed predicate's attribute the
///   predicate's — or
/// * a `Cjoin` edge (transitively) makes it equal to a position that is
///   stored, which keeps the first such position of the class.
///
/// A `Value` that compares equal to another is the same value, bit for
/// bit (a double is canonical, see [`F64`](pmv_storage::F64)), so a
/// rebuilt row is the row that was cached.
///
/// The stored values are packed into one row — each behind a tag, in
/// the bytes its value needs — for every layout, full
/// ([`Self::is_full`]) or not: [`Self::stored_values`] projects a row
/// for packing, and [`Self::rebuild`] decodes a packed one in one pass.
/// Every method reading a stored tuple takes it borrowed
/// ([`RowRef`]), where the entry holds it.
///
/// Every cached tuple of an entry lies in the entry's bcp and satisfies
/// `Cjoin`, which is all a derivation relies on.
#[derive(Clone, Debug, PartialEq)]
pub struct StoredLayout {
    /// Per `Ls'` position, where its value comes from.
    sources: Box<[Source]>,
    /// The `Ls'` position each stored value is taken from, ascending.
    stored: Box<[usize]>,
}

impl StoredLayout {
    /// The layout that stores every one of `arity` positions.
    pub(crate) fn full(arity: usize) -> Self {
        StoredLayout {
            sources: (0..arity).map(Source::Stored).collect(),
            stored: (0..arity).collect(),
        }
    }

    /// The layout of `template`'s cached tuples.
    pub fn for_template(template: &QueryTemplate) -> Self {
        // Join classes over every attribute `Cjoin` names: a tiny
        // union-find keyed by position in `attrs`.
        let mut attrs: Vec<AttrRef> = template.expanded_list().to_vec();
        fn id(attrs: &mut Vec<AttrRef>, a: AttrRef) -> usize {
            attrs.iter().position(|x| *x == a).unwrap_or_else(|| {
                attrs.push(a);
                attrs.len() - 1
            })
        }
        let edges: Vec<(usize, usize)> = template
            .joins()
            .iter()
            .map(|j| (id(&mut attrs, j.left), id(&mut attrs, j.right)))
            .collect();
        let mut parent: Vec<usize> = (0..attrs.len()).collect();
        fn root(parent: &[usize], mut i: usize) -> usize {
            while parent[i] != i {
                i = parent[i];
            }
            i
        }
        for (a, b) in edges {
            let (ra, rb) = (root(&parent, a), root(&parent, b));
            parent[ra.max(rb)] = ra.min(rb);
        }
        let class = |a: AttrRef| attrs.iter().position(|x| *x == a).map(|i| root(&parent, i));

        let mut sources = Vec::with_capacity(template.expanded_list().len());
        let mut stored: Vec<usize> = Vec::new();
        for (p, &attr) in template.expanded_list().iter().enumerate() {
            let c = class(attr);
            let same = |a: AttrRef| class(a) == c;
            let source = if let Some(i) = template
                .cond_templates()
                .iter()
                .position(|ct| ct.form == CondForm::Equality && same(ct.attr))
            {
                Some(Source::Bcp(i))
            } else if let Some(fp) = template.fixed_preds().iter().find(|fp| same(fp.attr)) {
                Some(Source::Fixed(fp.value.clone()))
            } else {
                stored
                    .iter()
                    .position(|&q| same(template.expanded_list()[q]))
                    .map(Source::Stored)
            };
            sources.push(source.unwrap_or_else(|| {
                stored.push(p);
                Source::Stored(stored.len() - 1)
            }));
        }
        StoredLayout {
            sources: sources.into(),
            stored: stored.into(),
        }
    }

    /// Width of an `Ls'` row.
    pub fn arity(&self) -> usize {
        self.sources.len()
    }

    /// Width of a stored tuple.
    pub fn stored_arity(&self) -> usize {
        self.stored.len()
    }

    /// Whether tuples are stored whole (nothing is derivable).
    pub fn is_full(&self) -> bool {
        self.stored.len() == self.sources.len()
    }

    /// The `Ls'` position each stored field is taken from, in stored
    /// order.
    pub fn stored_positions(&self) -> &[usize] {
        &self.stored
    }

    /// The value at `Ls'` position `pos` of the row that `stored`, filed
    /// under the bcp whose [`BcpKey::values`] are `dims`, stands for:
    /// borrowed when the entry or the template fixes it, else decoded
    /// from the stored fields before it.
    pub fn value<'a>(
        &'a self,
        stored: RowRef<'_>,
        dims: &'a [Value],
        pos: usize,
    ) -> Cow<'a, Value> {
        match &self.sources[pos] {
            Source::Stored(j) => Cow::Owned(stored.field(*j).to_value()),
            Source::Bcp(i) => Cow::Borrowed(&dims[*i]),
            Source::Fixed(v) => Cow::Borrowed(v),
        }
    }

    /// Append to `out` the row of the values at `Ls'` positions
    /// `positions` of the row that `stored`, filed under `bcp`, stands
    /// for, in order: the bytes packing those values writes, each field
    /// copied from the stored row or the key, or written for a fixed
    /// one, by the one row writer. Ascending positions walk the stored
    /// fields once.
    pub fn project(
        &self,
        stored: RowRef<'_>,
        bcp: &BcpKey,
        positions: &[usize],
        out: &mut Vec<u8>,
    ) {
        let mut w = RowWriter::new(out);
        let mut fields = stored.encoded_fields();
        // The index of the field `fields` yields next.
        let mut next = 0;
        for &p in positions {
            let (tag, payload) = match &self.sources[p] {
                Source::Stored(j) => {
                    if *j < next {
                        (fields, next) = (stored.encoded_fields(), 0);
                    }
                    let field = fields.nth(j - next).expect("a field per stored position");
                    next = j + 1;
                    field
                }
                Source::Bcp(i) => bcp
                    .row()
                    .encoded_fields()
                    .nth(*i)
                    .expect("a field per dimension"),
                Source::Fixed(v) => {
                    w.push(v);
                    continue;
                }
            };
            w.push_field(tag, payload);
        }
        w.finish();
    }

    /// The values an `Ls'` row stores, in stored order: what a store
    /// packs for it.
    pub fn stored_values<'a>(
        &'a self,
        row: &'a Tuple,
    ) -> impl Iterator<Item = &'a Value> + Clone + 'a {
        self.stored.iter().map(|&p| row.get(p))
    }

    /// The stored form of an `Ls'` row, owned: its
    /// [`Self::stored_values`] packed in one pass into one allocation.
    pub fn store(&self, row: &Tuple) -> PackedRow {
        PackedRow::pack(self.stored_values(row))
    }

    /// The `Ls'` row a stored tuple filed under `bcp` stands for:
    /// [`Self::rebuild_with`] the key's values.
    pub fn rebuild(&self, stored: RowRef<'_>, bcp: &BcpKey) -> Arc<Tuple> {
        self.rebuild_with(stored, &bcp.values().collect::<Vec<_>>())
    }

    /// The `Ls'` row a stored tuple stands for, filed under the bcp whose
    /// [`BcpKey::values`] are `dims` — decoded once per entry by a caller
    /// that rebuilds several of its tuples. One pass over the stored
    /// fields: stored positions ascend in `Ls'` order, and a join
    /// duplicate repeats an earlier one.
    pub fn rebuild_with(&self, stored: RowRef<'_>, dims: &[Value]) -> Arc<Tuple> {
        let mut fields = stored.fields();
        let mut values: Vec<Value> = Vec::with_capacity(self.arity());
        for (p, source) in self.sources.iter().enumerate() {
            let value = match source {
                Source::Stored(j) if self.stored[*j] < p => values[self.stored[*j]].clone(),
                Source::Stored(_) => fields
                    .next()
                    .expect("a field per stored position")
                    .to_value(),
                Source::Bcp(_) | Source::Fixed(_) => self.value(stored, dims, p).into_owned(),
            };
            values.push(value);
        }
        Arc::new(Tuple::new(values))
    }

    /// Whether `stored` stands for `row`, an `Ls'` row of the same bcp —
    /// compared on the stored positions only, which decide it: the rest
    /// of both are derived the same way.
    pub fn holds(&self, stored: RowRef<'_>, row: &Tuple) -> bool {
        self.stored
            .iter()
            .zip(stored.fields())
            .all(|(&p, field)| field == *row.get(p))
    }
}

/// Definition of a partial materialized view for one query template.
#[derive(Clone, Debug)]
pub struct PartialViewDef {
    name: String,
    template: Arc<QueryTemplate>,
    /// One entry per selection condition: `Some(discretizer)` for
    /// interval-form conditions, `None` for equality-form ones.
    discretizers: Vec<Option<Discretizer>>,
    /// How the view's cached tuples are stored, computed once.
    layout: Arc<StoredLayout>,
}

impl PartialViewDef {
    /// Define a PMV over `template`. `discretizers` must supply a
    /// [`Discretizer`] for every interval-form condition (the paper's
    /// dividing values, chosen by the DBA, harvested from form-based UI
    /// from/to lists, or learned from traces).
    pub fn new(
        name: impl Into<String>,
        template: Arc<QueryTemplate>,
        discretizers: Vec<Option<Discretizer>>,
    ) -> Result<Self> {
        if discretizers.len() != template.cond_count() {
            return Err(CoreError::Definition(format!(
                "expected {} discretizer slots, got {}",
                template.cond_count(),
                discretizers.len()
            )));
        }
        for (i, (ct, d)) in template
            .cond_templates()
            .iter()
            .zip(&discretizers)
            .enumerate()
        {
            match (ct.form, d) {
                (CondForm::Interval, None) => {
                    return Err(CoreError::Definition(format!(
                        "condition {i} is interval-form but has no discretizer"
                    )))
                }
                (CondForm::Equality, Some(_)) => {
                    return Err(CoreError::Definition(format!(
                        "condition {i} is equality-form and must not have a discretizer"
                    )))
                }
                _ => {}
            }
        }
        Ok(PartialViewDef {
            name: name.into(),
            layout: Arc::new(StoredLayout::for_template(&template)),
            template,
            discretizers,
        })
    }

    /// Define a PMV for a template whose conditions are all equality-form.
    pub fn all_equality(name: impl Into<String>, template: Arc<QueryTemplate>) -> Result<Self> {
        let slots = vec![None; template.cond_count()];
        PartialViewDef::new(name, template, slots)
    }

    /// View name (lock-manager object id).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The underlying query template.
    pub fn template(&self) -> &Arc<QueryTemplate> {
        &self.template
    }

    /// Discretizer for condition `i` (None for equality-form).
    pub fn discretizer(&self, i: usize) -> Option<&Discretizer> {
        self.discretizers[i].as_ref()
    }

    /// How the view's cached tuples are stored.
    pub fn layout(&self) -> &Arc<StoredLayout> {
        &self.layout
    }

    /// Whether the row a stored tuple stands for, filed under the bcp
    /// whose [`BcpKey::values`] are `dims`, satisfies `instance`'s
    /// `Cselect`, read through the layout without rebuilding the row:
    /// each condition decodes only its own field.
    pub fn stored_matches_select(
        &self,
        instance: &QueryInstance,
        stored: RowRef<'_>,
        dims: &[Value],
    ) -> bool {
        instance.conds().iter().enumerate().all(|(i, c)| {
            c.matches(
                &self
                    .layout
                    .value(stored, dims, self.template.cond_position(i)),
            )
        })
    }

    /// Recover the "conceptual" containing basic condition part of an
    /// `Ls'`-layout result tuple — the paper stores no bcp with the tuple;
    /// "whenever needed, bcp is recovered from ats" (Section 3.2). The
    /// key's bytes are written straight from the tuple's condition
    /// columns.
    pub fn bcp_of_tuple(&self, tuple: &Tuple) -> BcpKey {
        BcpKey::pack((0..self.template.cond_count()).map(|i| {
            let v = tuple.get(self.template.cond_position(i));
            match &self.discretizers[i] {
                None => Cow::Borrowed(v),
                Some(d) => Cow::Owned(Value::Int(i64::from(d.id_of(v)))),
            }
        }))
    }

    /// Whether `bcp` is the containing bcp of an `Ls'`-layout result
    /// tuple: the tuple's key, built in place (inline for T1, so no
    /// allocation), compared with `bcp`.
    pub fn tuple_in_bcp(&self, tuple: &Tuple, bcp: &BcpKey) -> bool {
        self.bcp_of_tuple(tuple) == *bcp
    }

    /// `bcp`'s dimensions, read with this view's shape (which conditions
    /// are interval-form).
    pub fn bcp_dims(&self, bcp: &BcpKey) -> Vec<BcpDim> {
        bcp.dims(|i| self.discretizers[i].is_some())
    }

    /// Build the query instance selecting exactly the tuples of `bcp`
    /// (each dimension pinned to the equality value / basic interval).
    pub fn bcp_query(&self, bcp: &BcpKey) -> Result<QueryInstance> {
        use pmv_query::Condition;
        let conds = self
            .bcp_dims(bcp)
            .into_iter()
            .enumerate()
            .map(|(i, d)| match d {
                BcpDim::Eq(v) => Condition::Equality(vec![v]),
                BcpDim::Iv(id) => {
                    let disc = self.discretizer(i).expect("Iv dim implies discretizer");
                    Condition::Intervals(vec![disc.interval_of(id)])
                }
            })
            .collect();
        Ok(self.template.bind(conds)?)
    }

    /// Check that `instance` belongs to this view's template.
    pub fn check_instance(&self, instance: &QueryInstance) -> Result<()> {
        if !Arc::ptr_eq(instance.template(), &self.template) {
            return Err(CoreError::Definition(format!(
                "query instance is not from template '{}'",
                self.template.name()
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmv_query::TemplateBuilder;
    use pmv_storage::{tuple, Column, ColumnType, Schema, Value};

    fn template_eq_iv() -> Arc<QueryTemplate> {
        TemplateBuilder::new("t")
            .relation(Schema::new(
                "r",
                vec![
                    Column::new("a", ColumnType::Int),
                    Column::new("f", ColumnType::Int),
                    Column::new("g", ColumnType::Int),
                ],
            ))
            .select("r", "a")
            .unwrap()
            .cond_eq("r", "f")
            .unwrap()
            .cond_interval("r", "g")
            .unwrap()
            .build()
            .unwrap()
    }

    #[test]
    fn definition_requires_matching_discretizers() {
        let t = template_eq_iv();
        // Missing discretizer for the interval condition.
        assert!(PartialViewDef::new("v", Arc::clone(&t), vec![None, None]).is_err());
        // Spurious discretizer on the equality condition.
        assert!(PartialViewDef::new(
            "v",
            Arc::clone(&t),
            vec![
                Some(Discretizer::int_grid(0, 10, 2)),
                Some(Discretizer::int_grid(0, 10, 2))
            ]
        )
        .is_err());
        // Wrong arity.
        assert!(PartialViewDef::new("v", Arc::clone(&t), vec![None]).is_err());
        // Correct.
        assert!(
            PartialViewDef::new("v", t, vec![None, Some(Discretizer::int_grid(0, 10, 2))]).is_ok()
        );
    }

    #[test]
    fn bcp_recovered_from_tuple() {
        let t = template_eq_iv();
        let def = PartialViewDef::new(
            "v",
            t,
            vec![None, Some(Discretizer::new(vec![Value::Int(100)]))],
        )
        .unwrap();
        // Ls' layout: (a, f, g).
        let tup = tuple![1i64, 7i64, 150i64];
        let bcp = def.bcp_of_tuple(&tup);
        assert_eq!(
            bcp,
            BcpKey::new(vec![BcpDim::Eq(Value::Int(7)), BcpDim::Iv(1)])
        );
        assert_eq!(
            def.bcp_dims(&bcp),
            [BcpDim::Eq(Value::Int(7)), BcpDim::Iv(1)]
        );
        assert!(def.tuple_in_bcp(&tup, &bcp));
        for other in [
            vec![BcpDim::Eq(Value::Int(8)), BcpDim::Iv(1)],
            vec![BcpDim::Eq(Value::Int(7)), BcpDim::Iv(0)],
            vec![BcpDim::Iv(1), BcpDim::Eq(Value::Int(7))],
        ] {
            assert!(!def.tuple_in_bcp(&tup, &BcpKey::new(other)));
        }
    }

    #[test]
    fn byte_budget_derives_l() {
        // The paper's 1 MB example: F = 2, At = 50 B gives 10 000 entries
        // of 100 B each. T1's key of two integers is estimated at 4 B of
        // handle and a frame of 1 + 1 + 2 × 8 B — its length, one tag
        // byte and two integers at their widest: 22 B more per entry
        // leaves room for 8 196.
        let c = PmvConfig::with_byte_budget(2, 1_000_000, 22, 50, PolicyKind::Clock);
        assert_eq!(c.l, 8_196);
        let c = PmvConfig::with_byte_budget(5, 100, 22, 50, PolicyKind::TwoQ);
        assert_eq!(c.l, 1); // floor at 1
    }

    #[test]
    fn default_config_matches_paper_example() {
        let c = PmvConfig::default();
        assert_eq!(c.f, 2);
        assert_eq!(c.l, 10_000);
        assert_eq!(c.policy, PolicyKind::Clock);
    }
}
