//! Baseline: the traditional (large) materialized view of Section 2.2.
//!
//! It is the other side of Figures 11/12's maintenance costs
//! (`tests/paper_claims.rs`, executed maintenance counted in the units
//! of [`MvMaintenanceStats`]) and shows the storage blow-up PMVs avoid.

use std::collections::HashMap;

use pmv_query::{exec::full_join, exec::join_from, Database, QueryInstance, QueryTemplate};
use pmv_storage::{Delta, DeltaBatch, HeapSize, Tuple};

use crate::Result;

/// Maintenance work counters for a traditional MV, in the same units the
/// PMV reports (joins computed, rows touched) so the two are comparable.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MvMaintenanceStats {
    /// ΔR joins computed (one per insert *and* per delete — unlike a PMV,
    /// an MV must act on inserts too).
    pub joins_computed: usize,
    /// View rows added.
    pub rows_added: usize,
    /// View rows removed.
    pub rows_removed: usize,
}

/// A fully materialized join view `V_M` (the containing MV of a PMV):
/// stores *all* `Ls'`-layout join results and maintains them immediately
/// on every base-relation change.
pub struct TraditionalMv {
    template: std::sync::Arc<QueryTemplate>,
    /// Multiset of view rows.
    rows: HashMap<Tuple, usize>,
    row_count: usize,
    bytes: usize,
    stats: MvMaintenanceStats,
}

impl TraditionalMv {
    /// Materialize the view from the database's current contents.
    pub fn materialize(db: &Database, template: std::sync::Arc<QueryTemplate>) -> Result<Self> {
        let (all, _) = full_join(db, &template)?;
        let mut mv = TraditionalMv {
            template,
            rows: HashMap::with_capacity(all.len()),
            row_count: 0,
            bytes: 0,
            stats: MvMaintenanceStats::default(),
        };
        for t in all {
            mv.add_row(t);
        }
        Ok(mv)
    }

    fn add_row(&mut self, t: Tuple) {
        self.bytes += std::mem::size_of::<Tuple>() + t.heap_size();
        *self.rows.entry(t).or_insert(0) += 1;
        self.row_count += 1;
    }

    fn remove_row(&mut self, t: &Tuple) -> bool {
        match self.rows.get_mut(t) {
            Some(n) if *n > 0 => {
                *n -= 1;
                if *n == 0 {
                    self.rows.remove(t);
                }
                self.row_count -= 1;
                self.bytes -= std::mem::size_of::<Tuple>() + t.heap_size();
                true
            }
            _ => false,
        }
    }

    /// Number of view rows (multiset cardinality).
    pub fn len(&self) -> usize {
        self.row_count
    }

    /// True if the view is empty.
    pub fn is_empty(&self) -> bool {
        self.row_count == 0
    }

    /// Approximate bytes stored.
    pub fn byte_size(&self) -> usize {
        self.bytes
    }

    /// Maintenance counters so far.
    pub fn stats(&self) -> MvMaintenanceStats {
        self.stats
    }

    /// Answer a query from the view alone by filtering on `Cselect`
    /// (possible because the view keeps `Ls'`, which includes all
    /// condition attributes). Returns `Ls'`-layout tuples.
    pub fn answer(&self, q: &QueryInstance) -> Vec<Tuple> {
        let mut out = Vec::new();
        for (t, &n) in &self.rows {
            if q.matches_select(t) {
                for _ in 0..n {
                    out.push(t.clone());
                }
            }
        }
        out
    }

    /// Immediate maintenance: unlike a PMV, *every* change — including
    /// inserts — forces a ΔR join and view update.
    pub fn maintain(&mut self, db: &Database, batch: &DeltaBatch) -> Result<()> {
        let Some(rel_idx) = self
            .template
            .relations()
            .iter()
            .position(|r| r == batch.relation())
        else {
            return Ok(());
        };
        for delta in batch.deltas() {
            match delta {
                Delta::Insert { tuple, .. } => {
                    self.stats.joins_computed += 1;
                    for row in join_from(db, &self.template, rel_idx, tuple)? {
                        self.add_row(row);
                        self.stats.rows_added += 1;
                    }
                }
                Delta::Delete { tuple, .. } => {
                    self.stats.joins_computed += 1;
                    for row in join_from(db, &self.template, rel_idx, tuple)? {
                        if self.remove_row(&row) {
                            self.stats.rows_removed += 1;
                        }
                    }
                }
                Delta::Update { old, new, .. } => {
                    self.stats.joins_computed += 2;
                    for row in join_from(db, &self.template, rel_idx, old)? {
                        if self.remove_row(&row) {
                            self.stats.rows_removed += 1;
                        }
                    }
                    for row in join_from(db, &self.template, rel_idx, new)? {
                        self.add_row(row);
                        self.stats.rows_added += 1;
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmv_index::IndexDef;
    use pmv_query::{Condition, TemplateBuilder};
    use pmv_storage::{tuple, Column, ColumnType, Schema, Value};
    use std::sync::Arc;

    fn setup() -> (Database, Arc<QueryTemplate>) {
        let mut db = Database::new();
        db.create_relation(Schema::new(
            "r",
            vec![
                Column::new("a", ColumnType::Int),
                Column::new("c", ColumnType::Int),
                Column::new("f", ColumnType::Int),
            ],
        ))
        .unwrap();
        db.create_relation(Schema::new(
            "s",
            vec![
                Column::new("d", ColumnType::Int),
                Column::new("e", ColumnType::Int),
                Column::new("g", ColumnType::Int),
            ],
        ))
        .unwrap();
        db.load(
            "r",
            vec![
                tuple![1i64, 4i64, 1i64],
                tuple![1i64, 5i64, 1i64],
                tuple![7i64, 6i64, 3i64],
            ],
        )
        .unwrap();
        db.load(
            "s",
            vec![
                tuple![4i64, 2i64, 7i64],
                tuple![5i64, 2i64, 7i64],
                tuple![6i64, 8i64, 9i64],
            ],
        )
        .unwrap();
        db.create_index(IndexDef::btree("r", vec![1])).unwrap(); // R.c
        db.create_index(IndexDef::btree("s", vec![0])).unwrap(); // S.d
        let t = TemplateBuilder::new("Eqt")
            .relation(db.schema("r").unwrap())
            .relation(db.schema("s").unwrap())
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
            .unwrap();
        (db, t)
    }

    #[test]
    fn materialize_matches_figure2() {
        let (db, t) = setup();
        let mv = TraditionalMv::materialize(&db, t).unwrap();
        // Figure 2's V_M: three rows (1,2,1,7), (1,2,1,7), (7,8,3,9).
        assert_eq!(mv.len(), 3);
        assert!(mv.byte_size() > 0);
    }

    #[test]
    fn answer_filters_by_cselect() {
        let (db, t) = setup();
        let mv = TraditionalMv::materialize(&db, Arc::clone(&t)).unwrap();
        let q = t
            .bind(vec![
                Condition::Equality(vec![Value::Int(1)]),
                Condition::Equality(vec![Value::Int(7)]),
            ])
            .unwrap();
        let rows = mv.answer(&q);
        assert_eq!(rows.len(), 2); // the duplicate (1,2,1,7) pair
    }

    #[test]
    fn mv_maintains_on_insert_and_delete() {
        let (mut db, t) = setup();
        let mut mv = TraditionalMv::materialize(&db, Arc::clone(&t)).unwrap();
        // Insert a new S tuple matching R.c = 6.
        let delta = db.insert("s", tuple![6i64, 99i64, 9i64]).unwrap();
        let mut batch = DeltaBatch::new("s");
        batch.push(delta);
        mv.maintain(&db, &batch).unwrap();
        assert_eq!(mv.len(), 4);
        assert_eq!(mv.stats().rows_added, 1);

        // Delete an R tuple; its single view row must disappear.
        let handle = db.relation("r").unwrap();
        let row = handle
            .read()
            .iter()
            .find(|(_, t)| t.get(0) == &Value::Int(7))
            .map(|(r, _)| r)
            .unwrap();
        let delta = db.delete("r", row).unwrap();
        let mut batch = DeltaBatch::new("r");
        batch.push(delta);
        mv.maintain(&db, &batch).unwrap();
        // Removed both (7,8,...) and (7,99,...) rows.
        assert_eq!(mv.len(), 2);
        assert_eq!(mv.stats().rows_removed, 2);
        // MV had to compute a join even for the insert — the overhead the
        // PMV avoids.
        assert_eq!(mv.stats().joins_computed, 2);
    }
}
