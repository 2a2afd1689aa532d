//! Query templates and bound query instances (Section 2.1).
//!
//! A [`QueryTemplate`] fixes the relations, the join conditions `Cjoin`,
//! the select list `Ls`, and the *shape* of each selection condition
//! (which attribute, equality or interval form). A [`QueryInstance`] binds
//! the actual disjuncts. Different instances of one template may have
//! different numbers of disjuncts (`u_i`), exactly as in the paper.
//!
//! Following Section 3.2, the template computes the **expanded select list
//! `Ls'`**: all attributes of `Ls` plus every attribute mentioned in
//! `Cselect`. Result tuples flow through the engine in `Ls'` layout so the
//! PMV can recover each tuple's basic condition part from the tuple itself;
//! only the `Ls` positions are shown to the user.

use std::sync::Arc;

use pmv_storage::{Schema, Tuple, Value};

use crate::condition::Condition;
use crate::{QueryError, Result};

/// Reference to one attribute of one template relation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct AttrRef {
    /// Index into the template's relation list.
    pub relation: usize,
    /// Column index within that relation's schema.
    pub column: usize,
}

/// Shape of a selection condition in a template.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CondForm {
    /// Equality form `∨ R.a = v_r`.
    Equality,
    /// Interval form `∨ v_r < R.a < w_r`.
    Interval,
}

/// One selection-condition slot of a template.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CondTemplate {
    /// The attribute the condition constrains.
    pub attr: AttrRef,
    /// Equality or interval form.
    pub form: CondForm,
}

/// An equi-join condition between two template relations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct JoinCond {
    /// Left side.
    pub left: AttrRef,
    /// Right side.
    pub right: AttrRef,
}

/// A parameterless selection in `Cjoin` (e.g. `R1.b = 100`).
#[derive(Clone, Debug, PartialEq)]
pub struct FixedPred {
    /// Constrained attribute.
    pub attr: AttrRef,
    /// Required value.
    pub value: Value,
}

/// A parameterized query template.
#[derive(Clone, Debug)]
pub struct QueryTemplate {
    name: String,
    relations: Vec<String>,
    schemas: Vec<Schema>,
    joins: Vec<JoinCond>,
    fixed: Vec<FixedPred>,
    select: Vec<AttrRef>,
    expanded: Vec<AttrRef>,
    conds: Vec<CondTemplate>,
    /// For each condition, its attribute's position within `expanded`.
    cond_positions: Vec<usize>,
    /// Positions of `Ls` attributes within `expanded`.
    select_positions: Vec<usize>,
}

impl QueryTemplate {
    /// Template name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Relation names, in declaration order.
    pub fn relations(&self) -> &[String] {
        &self.relations
    }

    /// Schema snapshot of relation `i`.
    pub fn schema(&self, i: usize) -> &Schema {
        &self.schemas[i]
    }

    /// Equi-join conditions.
    pub fn joins(&self) -> &[JoinCond] {
        &self.joins
    }

    /// Parameterless predicates in `Cjoin`.
    pub fn fixed_preds(&self) -> &[FixedPred] {
        &self.fixed
    }

    /// The user-visible select list `Ls`.
    pub fn select_list(&self) -> &[AttrRef] {
        &self.select
    }

    /// The expanded select list `Ls'` (result-tuple layout).
    pub fn expanded_list(&self) -> &[AttrRef] {
        &self.expanded
    }

    /// Selection-condition templates, in `Cselect` order.
    pub fn cond_templates(&self) -> &[CondTemplate] {
        &self.conds
    }

    /// Number of selection conditions (`m`).
    pub fn cond_count(&self) -> usize {
        self.conds.len()
    }

    /// Position in the `Ls'` result layout where condition `i`'s attribute
    /// lives.
    pub fn cond_position(&self, i: usize) -> usize {
        self.cond_positions[i]
    }

    /// Positions of `Ls` within the `Ls'` layout, for final projection.
    pub fn select_positions(&self) -> &[usize] {
        &self.select_positions
    }

    /// Project an `Ls'`-layout result tuple onto the user-visible `Ls`.
    pub fn user_tuple(&self, expanded: &Tuple) -> Tuple {
        expanded.project(&self.select_positions)
    }

    /// [`Self::user_tuple`] for a shared tuple: when `Ls` is all of `Ls'`
    /// (a `select *`, or every condition attribute selected) the user's
    /// row *is* the result row and only the pointer is copied.
    pub fn user_tuple_shared(&self, expanded: &Arc<Tuple>) -> Arc<Tuple> {
        // `Ls'` is `Ls` followed by the unselected condition attributes,
        // so equal lengths mean the projection is the identity.
        if self.select_positions.len() == self.expanded.len() {
            Arc::clone(expanded)
        } else {
            Arc::new(self.user_tuple(expanded))
        }
    }

    /// Bind disjuncts, producing a validated instance.
    pub fn bind(self: &Arc<Self>, conds: Vec<Condition>) -> Result<QueryInstance> {
        if conds.len() != self.conds.len() {
            return Err(QueryError::Template(format!(
                "template '{}' has {} conditions, got {}",
                self.name,
                self.conds.len(),
                conds.len()
            )));
        }
        for (i, (c, ct)) in conds.iter().zip(&self.conds).enumerate() {
            let form_ok = matches!(
                (c, ct.form),
                (Condition::Equality(_), CondForm::Equality)
                    | (Condition::Intervals(_), CondForm::Interval)
            );
            if !form_ok {
                return Err(QueryError::Template(format!(
                    "condition {i} of template '{}' has the wrong form",
                    self.name
                )));
            }
            c.validate()
                .map_err(|e| QueryError::Template(format!("condition {i}: {e}")))?;
        }
        Ok(QueryInstance {
            template: Arc::clone(self),
            conds,
        })
    }
}

/// A query: a template with bound disjuncts.
#[derive(Clone, Debug)]
pub struct QueryInstance {
    template: Arc<QueryTemplate>,
    conds: Vec<Condition>,
}

impl QueryInstance {
    /// The underlying template.
    pub fn template(&self) -> &Arc<QueryTemplate> {
        &self.template
    }

    /// Bound conditions in `Cselect` order.
    pub fn conds(&self) -> &[Condition] {
        &self.conds
    }

    /// Whether an `Ls'`-layout tuple satisfies all of `Cselect`.
    pub fn matches_select(&self, expanded: &Tuple) -> bool {
        self.conds
            .iter()
            .enumerate()
            .all(|(i, c)| c.matches(expanded.get(self.template.cond_position(i))))
    }

    /// The paper's combination factor: product of per-condition disjunct
    /// counts (h = e × f for T1, e × f × g for T2).
    pub fn combination_factor(&self) -> usize {
        self.conds.iter().map(Condition::disjunct_count).product()
    }
}

/// Builder for [`QueryTemplate`].
pub struct TemplateBuilder {
    name: String,
    relations: Vec<String>,
    schemas: Vec<Schema>,
    joins: Vec<JoinCond>,
    fixed: Vec<FixedPred>,
    select: Vec<AttrRef>,
    select_all: bool,
    conds: Vec<CondTemplate>,
}

impl TemplateBuilder {
    /// Start a new template.
    pub fn new(name: impl Into<String>) -> Self {
        TemplateBuilder {
            name: name.into(),
            relations: Vec::new(),
            schemas: Vec::new(),
            joins: Vec::new(),
            fixed: Vec::new(),
            select: Vec::new(),
            select_all: false,
            conds: Vec::new(),
        }
    }

    /// Add a relation (with its schema snapshot). Order matters: `AttrRef`
    /// relation indices refer to this order.
    pub fn relation(mut self, schema: Schema) -> Self {
        self.relations.push(schema.name().to_string());
        self.schemas.push(schema);
        self
    }

    fn resolve(&self, relation: &str, column: &str) -> Result<AttrRef> {
        let rel = self
            .relations
            .iter()
            .position(|r| r == relation)
            .ok_or_else(|| {
                QueryError::Template(format!("relation '{relation}' not in template"))
            })?;
        let col = self.schemas[rel].column_index(column)?;
        Ok(AttrRef {
            relation: rel,
            column: col,
        })
    }

    /// Add an equi-join condition `left_rel.left_col = right_rel.right_col`.
    pub fn join(
        mut self,
        left_rel: &str,
        left_col: &str,
        right_rel: &str,
        right_col: &str,
    ) -> Result<Self> {
        let left = self.resolve(left_rel, left_col)?;
        let right = self.resolve(right_rel, right_col)?;
        self.joins.push(JoinCond { left, right });
        Ok(self)
    }

    /// Add a parameterless predicate `rel.col = value` to `Cjoin`.
    pub fn fixed(mut self, rel: &str, col: &str, value: impl Into<Value>) -> Result<Self> {
        let attr = self.resolve(rel, col)?;
        self.fixed.push(FixedPred {
            attr,
            value: value.into(),
        });
        Ok(self)
    }

    /// Add one attribute to the select list `Ls`.
    pub fn select(mut self, rel: &str, col: &str) -> Result<Self> {
        let attr = self.resolve(rel, col)?;
        self.select.push(attr);
        Ok(self)
    }

    /// Select every column of every relation (`select *`).
    pub fn select_star(mut self) -> Self {
        self.select_all = true;
        self
    }

    /// Declare an equality-form selection condition on `rel.col`.
    pub fn cond_eq(mut self, rel: &str, col: &str) -> Result<Self> {
        let attr = self.resolve(rel, col)?;
        self.conds.push(CondTemplate {
            attr,
            form: CondForm::Equality,
        });
        Ok(self)
    }

    /// Declare an interval-form selection condition on `rel.col`.
    pub fn cond_interval(mut self, rel: &str, col: &str) -> Result<Self> {
        let attr = self.resolve(rel, col)?;
        self.conds.push(CondTemplate {
            attr,
            form: CondForm::Interval,
        });
        Ok(self)
    }

    /// Finish, computing `Ls'` and all derived positions.
    pub fn build(mut self) -> Result<Arc<QueryTemplate>> {
        if self.relations.is_empty() {
            return Err(QueryError::Template("template has no relations".into()));
        }
        if self.conds.is_empty() {
            return Err(QueryError::Template(
                "template has no selection conditions".into(),
            ));
        }
        // Every relation beyond the first must be reachable via joins so
        // the executor can bind them one at a time.
        if self.relations.len() > 1 {
            let mut reachable = vec![false; self.relations.len()];
            reachable[0] = true;
            loop {
                let mut grew = false;
                for j in &self.joins {
                    let (a, b) = (j.left.relation, j.right.relation);
                    if reachable[a] != reachable[b] {
                        reachable[a] = true;
                        reachable[b] = true;
                        grew = true;
                    }
                }
                if !grew {
                    break;
                }
            }
            if !reachable.iter().all(|&r| r) {
                return Err(QueryError::Template(
                    "join graph does not connect all relations".into(),
                ));
            }
        }
        if self.select_all {
            self.select.clear();
            for (r, schema) in self.schemas.iter().enumerate() {
                for c in 0..schema.arity() {
                    self.select.push(AttrRef {
                        relation: r,
                        column: c,
                    });
                }
            }
        }
        if self.select.is_empty() {
            return Err(QueryError::Template("empty select list".into()));
        }
        // Ls' = Ls plus condition attributes not already selected.
        let mut expanded = self.select.clone();
        for ct in &self.conds {
            if !expanded.contains(&ct.attr) {
                expanded.push(ct.attr);
            }
        }
        let cond_positions = self
            .conds
            .iter()
            .map(|ct| {
                expanded
                    .iter()
                    .position(|a| *a == ct.attr)
                    .expect("condition attr is in Ls' by construction")
            })
            .collect();
        let select_positions = (0..self.select.len()).collect();
        Ok(Arc::new(QueryTemplate {
            name: self.name,
            relations: self.relations,
            schemas: self.schemas,
            joins: self.joins,
            fixed: self.fixed,
            select: self.select,
            expanded,
            conds: self.conds,
            cond_positions,
            select_positions,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::condition::Interval;
    use pmv_storage::{tuple, Column, ColumnType};

    fn r_schema() -> Schema {
        Schema::new(
            "r",
            vec![
                Column::new("a", ColumnType::Int),
                Column::new("c", ColumnType::Int),
                Column::new("f", ColumnType::Int),
            ],
        )
    }

    fn s_schema() -> Schema {
        Schema::new(
            "s",
            vec![
                Column::new("d", ColumnType::Int),
                Column::new("e", ColumnType::Int),
                Column::new("g", ColumnType::Int),
            ],
        )
    }

    /// The paper's example template Eqt (Figure 1).
    fn eqt() -> Arc<QueryTemplate> {
        TemplateBuilder::new("Eqt")
            .relation(r_schema())
            .relation(s_schema())
            .join("r", "c", "s", "d")
            .unwrap()
            .select("r", "a")
            .unwrap()
            .select("s", "e")
            .unwrap()
            .cond_eq("r", "f")
            .unwrap()
            .cond_eq("s", "g")
            .unwrap()
            .build()
            .unwrap()
    }

    #[test]
    fn eqt_shape() {
        let t = eqt();
        assert_eq!(t.relations(), &["r".to_string(), "s".to_string()]);
        assert_eq!(t.cond_count(), 2);
        // Ls = (r.a, s.e); Ls' adds r.f and s.g.
        assert_eq!(t.select_list().len(), 2);
        assert_eq!(t.expanded_list().len(), 4);
        assert_eq!(t.cond_position(0), 2); // r.f
        assert_eq!(t.cond_position(1), 3); // s.g
    }

    #[test]
    fn select_star_covers_all_columns() {
        let t = TemplateBuilder::new("t")
            .relation(r_schema())
            .relation(s_schema())
            .join("r", "c", "s", "d")
            .unwrap()
            .select_star()
            .cond_eq("r", "f")
            .unwrap()
            .build()
            .unwrap();
        assert_eq!(t.select_list().len(), 6);
        // f already in Ls, so Ls' == Ls.
        assert_eq!(t.expanded_list().len(), 6);
        assert_eq!(t.cond_position(0), 2);
    }

    #[test]
    fn user_tuple_projects_ls() {
        let t = eqt();
        // Ls' layout: (r.a, s.e, r.f, s.g)
        let full = tuple![1i64, 2i64, 7i64, 9i64];
        assert_eq!(t.user_tuple(&full), tuple![1i64, 2i64]);
    }

    #[test]
    fn bind_validates_arity_and_form() {
        let t = eqt();
        assert!(t.bind(vec![]).is_err());
        assert!(t
            .bind(vec![
                Condition::Equality(vec![Value::Int(1)]),
                Condition::Intervals(vec![Interval::open(0i64, 5i64)]),
            ])
            .is_err());
        let q = t
            .bind(vec![
                Condition::Equality(vec![Value::Int(1), Value::Int(3)]),
                Condition::Equality(vec![Value::Int(2), Value::Int(4)]),
            ])
            .unwrap();
        assert_eq!(q.combination_factor(), 4);
    }

    #[test]
    fn matches_select_uses_positions() {
        let t = eqt();
        let q = t
            .bind(vec![
                Condition::Equality(vec![Value::Int(1)]),
                Condition::Equality(vec![Value::Int(2)]),
            ])
            .unwrap();
        assert!(q.matches_select(&tuple![0i64, 0i64, 1i64, 2i64]));
        assert!(!q.matches_select(&tuple![0i64, 0i64, 1i64, 3i64]));
    }

    #[test]
    fn disconnected_join_graph_rejected() {
        let result = TemplateBuilder::new("bad")
            .relation(r_schema())
            .relation(s_schema())
            .select_star()
            .cond_eq("r", "f")
            .unwrap()
            .build();
        assert!(result.is_err());
    }

    #[test]
    fn unknown_names_rejected() {
        let b = TemplateBuilder::new("t").relation(r_schema());
        assert!(b.resolve("nope", "a").is_err());
        let b = TemplateBuilder::new("t").relation(r_schema());
        assert!(b.resolve("r", "nope").is_err());
    }

    #[test]
    fn templates_without_conditions_rejected() {
        let result = TemplateBuilder::new("t")
            .relation(r_schema())
            .select_star()
            .build();
        assert!(result.is_err());
    }
}
