//! The `Database`: relations + secondary indexes + indexed DML.
//!
//! This is the substrate standing in for PostgreSQL in the paper's
//! prototype: relations live in one copy-on-write map, secondary
//! indexes are kept transactionally consistent with every
//! insert/delete/update, and each mutation yields a [`Delta`] so higher
//! layers (transactions, PMV maintenance) can observe `ΔR`.
//!
//! There is one copy-on-write layer. The database keeps its state as
//! the three `Arc`s of a [`DbSnapshot`] — the relation map, the index
//! list, the statistics — so [`Database::snapshot`] is three pointer
//! copies. Every write goes through `Arc::make_mut`, first on the map
//! and then on the relation (and on the index list and the relation's
//! indexes, when it has any): in place while no snapshot shares them,
//! a fresh version beside the shared one when one does. Every relation
//! a commit did not write therefore stays pointer-equal to the previous
//! publish. Writers need `&mut Database`, which the epoch host hands
//! out only under its master write lock, so nothing here locks.

use std::collections::BTreeMap;
use std::sync::Arc;

use pmv_index::{AnyIndex, IndexDef, SecondaryIndex};
use pmv_storage::{Delta, HeapRelation, RowId, Schema, StorageError, Tuple};

use crate::dbview::{DbSnapshot, IndexList, RelationMap};
use crate::table_stats::TableStats;
use crate::{QueryError, Result};

/// An in-memory database: relations plus their secondary indexes.
///
/// What a write after a snapshot costs differs by structure: a
/// relation's heap is paged and structurally shared, so the first write
/// after a publish copies one 64-slot page and a short spine — O(|Δ|);
/// the relation map copies one pointer per relation; an index is still
/// cloned whole on its first write after a publish — O(|R|), and what
/// is left of a commit against a large relation (ROADMAP item 10).
/// The state's epoch counts committed mutations and doubles as the
/// epoch number of the snapshot serving path.
#[derive(Default)]
pub struct Database {
    current: DbSnapshot,
    /// Declared unique keys per relation (sets of column indices).
    /// Declaration validates the relation's current contents and every
    /// later [`Database::insert`] / [`Database::update`] re-checks. Bulk
    /// [`Database::load`] and the exact-slot replay/rollback primitives
    /// trust their provenance (pre-validated workloads, the WAL) and
    /// skip the check.
    unique_keys: BTreeMap<String, Vec<Vec<usize>>>,
    /// The relation map of the previous [`Database::publish_snapshot`],
    /// which the next one compares against entry by entry. Holding it
    /// also keeps every relation it names shared, so the first write to
    /// one after a publish always makes a new version — a pointer
    /// comparison sees every relation a commit wrote.
    last_publish: Option<Arc<RelationMap>>,
    /// Cumulative accounting for [`Database::publish_snapshot`] (plain
    /// counters — it takes `&mut self`).
    snap_stats: SnapStats,
}

/// Accounting for [`Database::publish_snapshot`]: how much of each
/// publish was shared with the previous one versus new. The reuse ratio
/// is the publish win the profiler reports alongside the commit-pipeline
/// phases.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SnapStats {
    /// `publish_snapshot` calls, including the cold first publish.
    pub publishes: u64,
    /// Relation entries that are not pointer-equal to the previous
    /// publish's (written or created since), plus every entry of the
    /// cold first publish.
    pub recaptured: u64,
    /// Relation entries pointer-equal to the previous publish's.
    pub reused: u64,
}

impl SnapStats {
    /// Fraction of relation entries reused across all publishes so far
    /// (`0.0` before anything was published).
    pub fn reuse_ratio(&self) -> f64 {
        let total = self.reused + self.recaptured;
        if total == 0 {
            0.0
        } else {
            self.reused as f64 / total as f64
        }
    }
}

/// `relation`'s entry in `relations`, un-shared for writing: the map
/// first, then the relation (a shared relation's clone shares every
/// heap page with it).
fn relation_mut<'a>(
    relations: &'a mut Arc<RelationMap>,
    relation: &str,
) -> Result<&'a mut HeapRelation> {
    let rel = Arc::make_mut(relations)
        .get_mut(relation)
        .ok_or_else(|| StorageError::UnknownRelation(relation.to_string()))?;
    Ok(Arc::make_mut(rel))
}

/// The indexes on `relation`, with the index list un-shared for
/// writing. A relation without indexes leaves the list, and so every
/// snapshot's pointer to it, alone.
fn indexes_mut<'a>(
    indexes: &'a mut Arc<IndexList>,
    relation: &'a str,
) -> impl Iterator<Item = &'a mut (IndexDef, Arc<AnyIndex>)> {
    let list: &mut [_] = if indexes.iter().any(|(d, _)| d.relation == relation) {
        Arc::make_mut(indexes).as_mut_slice()
    } else {
        &mut []
    };
    list.iter_mut().filter(move |(d, _)| d.relation == relation)
}

impl Database {
    /// Empty database.
    pub fn new() -> Self {
        Database::default()
    }

    /// Create a relation.
    pub fn create_relation(&mut self, schema: Schema) -> Result<()> {
        let name = schema.name().to_string();
        if self.current.relations.contains_key(&name) {
            return Err(StorageError::DuplicateRelation(name).into());
        }
        Arc::make_mut(&mut self.current.relations)
            .insert(name, Arc::new(HeapRelation::new(schema)));
        self.current.epoch += 1;
        Ok(())
    }

    /// Monotonic mutation counter: bumped by every DML statement and
    /// DDL change. The epoch snapshot layer stamps each published
    /// [`DbSnapshot`] with this value.
    pub fn version(&self) -> u64 {
        self.current.epoch
    }

    /// The current state, read in place.
    pub(crate) fn current(&self) -> &DbSnapshot {
        &self.current
    }

    /// Immutable snapshot of the whole database: three `Arc` clones,
    /// with no allocation and no tuple data copied. The result can be
    /// read forever with no lock held; the next write to a relation it
    /// shares makes that relation a new version beside it.
    pub fn snapshot(&self) -> DbSnapshot {
        self.current.clone()
    }

    /// [`Database::snapshot`] for the epoch commit path, which runs it
    /// once per commit: it also counts, in [`SnapStats`], which relation
    /// entries are pointer-equal to the previous publish's (reused) and
    /// which are not (re-captured — written or created since). No
    /// allocation either way. Retiring the version this one replaces
    /// frees what it alone still holds: the heap pages the commit
    /// rewrote and, for now, a full copy of each index the commit
    /// touched.
    pub fn publish_snapshot(&mut self) -> DbSnapshot {
        let snap = self.snapshot();
        let stats = &mut self.snap_stats;
        stats.publishes += 1;
        match &self.last_publish {
            None => stats.recaptured += snap.relations.len() as u64,
            Some(prev) => {
                for (name, rel) in snap.relations.iter() {
                    if prev.get(name).is_some_and(|p| Arc::ptr_eq(p, rel)) {
                        stats.reused += 1;
                    } else {
                        stats.recaptured += 1;
                    }
                }
            }
        }
        self.last_publish = Some(Arc::clone(&snap.relations));
        snap
    }

    /// Accounting for the publish path: snapshots published, relation
    /// entries re-captured, entries reused.
    pub fn snap_stats(&self) -> SnapStats {
        self.snap_stats
    }

    /// A relation, borrowed.
    pub fn relation(&self, name: &str) -> Result<&HeapRelation> {
        Ok(self.current.relation(name)?)
    }

    /// Schema snapshot of a relation.
    pub fn schema(&self, name: &str) -> Result<Schema> {
        self.current.schema(name)
    }

    /// Create a secondary index, building it from the relation's current
    /// contents.
    pub fn create_index(&mut self, def: IndexDef) -> Result<()> {
        let rel = self.relation(&def.relation)?;
        if let Some(c) = def.columns.iter().find(|&&c| c >= rel.schema().arity()) {
            return Err(StorageError::UnknownColumn {
                relation: def.relation.clone(),
                column: format!("#{c}"),
            }
            .into());
        }
        let idx = def.build_from(rel);
        Arc::make_mut(&mut self.current.indexes).push((def, Arc::new(idx)));
        self.current.epoch += 1;
        Ok(())
    }

    /// First index on exactly `(relation, columns)`, if any.
    pub fn index_on(&self, relation: &str, columns: &[usize]) -> Option<&AnyIndex> {
        self.current.index(relation, columns).map(|i| &**i)
    }

    /// Declare that `columns` of `relation` form a unique key.
    ///
    /// The declaration is a checked invariant, not an annotation: the
    /// relation's current contents are validated here (the call fails
    /// with [`QueryError::Unique`] if duplicates already exist), and
    /// every later [`Database::insert`] / [`Database::update`] rejects
    /// writes that would violate the key. Declare an index on the same
    /// columns first to make the per-write check an index probe instead
    /// of a scan.
    pub fn declare_unique_key(&mut self, relation: &str, columns: &[&str]) -> Result<()> {
        let schema = self.schema(relation)?;
        let mut key = Vec::with_capacity(columns.len());
        for c in columns {
            key.push(schema.column_index(c)?);
        }
        if key.is_empty() {
            return Err(QueryError::Template(
                "a unique key needs at least one column".into(),
            ));
        }
        let mut seen = std::collections::HashSet::new();
        let clean = self
            .relation(relation)?
            .iter()
            .all(|(_, t)| seen.insert(t.project(&key)));
        if !clean {
            return Err(QueryError::Unique(format!(
                "relation '{relation}' already holds duplicates on columns {key:?}"
            )));
        }
        self.unique_keys
            .entry(relation.to_string())
            .or_default()
            .push(key);
        self.current.epoch += 1;
        Ok(())
    }

    /// Declared unique keys of `relation`, as column-index sets.
    pub fn unique_keys(&self, relation: &str) -> &[Vec<usize>] {
        self.unique_keys.get(relation).map_or(&[], Vec::as_slice)
    }

    /// Reject `tuple` when it would duplicate a live row on a declared
    /// unique key. `skip` names the row an update is replacing, which
    /// never conflicts with itself. Uses an exact-column index when one
    /// exists; falls back to a relation scan.
    fn check_unique(&self, relation: &str, tuple: &Tuple, skip: Option<RowId>) -> Result<()> {
        let Some(keys) = self.unique_keys.get(relation) else {
            return Ok(());
        };
        for key in keys {
            let conflict = match self.index_on(relation, key) {
                Some(idx) => {
                    let parts: Vec<_> = key.iter().map(|&c| tuple.get(c).clone()).collect();
                    idx.probe(&parts).iter().any(|&row| Some(row) != skip)
                }
                None => self.relation(relation)?.iter().any(|(row, t)| {
                    Some(row) != skip && key.iter().all(|&c| t.get(c) == tuple.get(c))
                }),
            };
            if conflict {
                return Err(QueryError::Unique(format!(
                    "a row with the same columns {key:?} already exists in '{relation}'"
                )));
            }
        }
        Ok(())
    }

    /// Index definitions registered for `relation`.
    pub fn index_defs(&self, relation: &str) -> Vec<&IndexDef> {
        self.current
            .indexes
            .iter()
            .filter(|(d, _)| d.relation == relation)
            .map(|(d, _)| d)
            .collect()
    }

    /// Apply one delta to every index of its relation. Copy-on-write:
    /// `Arc::make_mut` mutates in place while no snapshot pins the index
    /// and clones the whole index off-path when one does (unlike the
    /// heap, indexes share no structure between versions yet).
    ///
    /// The un-sharing happens *before* `apply_delta` looks at the delta,
    /// so an `Update` that keeps the indexed columns — which changes
    /// nothing in the index — still pays the whole clone. That is left
    /// alone on purpose: skipping it was measured to make commits on a
    /// 120 k-row relation ≈ 40× faster (3.8 ms → 99 µs), after which two
    /// publishes fit inside one query, the reader becomes the last holder
    /// of the retired index versions and frees them in its own re-pin
    /// (33 µs → 1.9 ms each; `mixed_2t` set-up +70 %). Reclamation has to
    /// move off the reader first (ROADMAP item 10, after the
    /// benchmark paces its writer: item 1(c)).
    fn maintain_indexes(&mut self, relation: &str, delta: &Delta) {
        for (def, idx) in indexes_mut(&mut self.current.indexes, relation) {
            def.apply_delta(Arc::make_mut(idx), delta);
        }
    }

    /// Insert a tuple; maintains indexes; returns the delta. Fails with
    /// [`QueryError::Unique`] when the tuple collides with a live row on
    /// a declared unique key.
    pub fn insert(&mut self, relation: &str, tuple: Tuple) -> Result<Delta> {
        self.check_unique(relation, &tuple, None)?;
        let row = relation_mut(&mut self.current.relations, relation)?.insert(tuple.clone())?;
        let delta = Delta::Insert { row, tuple };
        self.maintain_indexes(relation, &delta);
        self.current.epoch += 1;
        Ok(delta)
    }

    /// Bulk-load tuples (still index-maintained, but un-shares the
    /// relation and its indexes once, not per row). Returns the number
    /// loaded.
    pub fn load(
        &mut self,
        relation: &str,
        tuples: impl IntoIterator<Item = Tuple>,
    ) -> Result<usize> {
        let rel = relation_mut(&mut self.current.relations, relation)?;
        let mut covering: Vec<_> = indexes_mut(&mut self.current.indexes, relation).collect();
        let mut n = 0;
        let mut keys = Vec::with_capacity(covering.len());
        for t in tuples {
            // Keys first, from the borrowed tuple, so the tuple itself
            // moves into the heap uncopied.
            keys.extend(covering.iter().map(|(def, _)| def.key_of(&t)));
            let row = rel.insert(t)?;
            for ((_, idx), key) in covering.iter_mut().zip(keys.drain(..)) {
                Arc::make_mut(idx).insert(key, row);
            }
            n += 1;
        }
        self.current.epoch += 1;
        Ok(n)
    }

    /// Delete the tuple at `row`; maintains indexes; returns the delta.
    pub fn delete(&mut self, relation: &str, row: RowId) -> Result<Delta> {
        let tuple = relation_mut(&mut self.current.relations, relation)?.delete(row)?;
        let delta = Delta::Delete { row, tuple };
        self.maintain_indexes(relation, &delta);
        self.current.epoch += 1;
        Ok(delta)
    }

    /// Replace the tuple at `row`; maintains indexes; returns the delta.
    /// Fails with [`QueryError::Unique`] when the new values collide
    /// with a different live row on a declared unique key.
    pub fn update(&mut self, relation: &str, row: RowId, new: Tuple) -> Result<Delta> {
        self.check_unique(relation, &new, Some(row))?;
        let old = relation_mut(&mut self.current.relations, relation)?.update(row, new.clone())?;
        let delta = Delta::Update { row, old, new };
        self.maintain_indexes(relation, &delta);
        self.current.epoch += 1;
        Ok(delta)
    }

    /// Let replay reach `relation`'s slots below `slots`
    /// ([`HeapRelation::reserve_slots`]): the slot count a checkpoint
    /// image recorded, holes past its last row included.
    pub fn reserve_slots(&mut self, relation: &str, slots: u32) -> Result<()> {
        relation_mut(&mut self.current.relations, relation)?.reserve_slots(slots);
        Ok(())
    }

    /// [`Self::apply_delta_exact`] of a delta read back from a log,
    /// refusing an insert into a slot the log cannot have been written
    /// against ([`HeapRelation::check_insert_at`]) before anything
    /// changes.
    pub fn replay_delta(&mut self, relation: &str, delta: &Delta) -> Result<()> {
        if let Delta::Insert { row, .. } = delta {
            self.relation(relation)?.check_insert_at(*row)?;
        }
        self.apply_delta_exact(relation, delta)
    }

    /// Re-apply a logged delta at its original `RowId` — the WAL replay
    /// primitive. Unlike [`Database::insert`] this never allocates a
    /// fresh slot: an `Insert` lands exactly at the logged row
    /// ([`HeapRelation::insert_at`]), so later logged deletes/updates
    /// that name the row still resolve. Indexes and the version are
    /// maintained like ordinary DML.
    pub fn apply_delta_exact(&mut self, relation: &str, delta: &Delta) -> Result<()> {
        let rel = relation_mut(&mut self.current.relations, relation)?;
        match delta {
            Delta::Insert { row, tuple } => rel.insert_at(*row, tuple.clone())?,
            Delta::Delete { row, .. } => {
                rel.delete(*row)?;
            }
            Delta::Update { row, new, .. } => {
                rel.update(*row, new.clone())?;
            }
        }
        self.maintain_indexes(relation, delta);
        self.current.epoch += 1;
        Ok(())
    }
    /// Exact-slot inverse of one applied delta — the rollback primitive
    /// for a commit whose WAL record could not be made durable. The
    /// already-applied deltas are undone in reverse order, restoring
    /// every row to its *original* slot (a plain abort re-inserts at a
    /// fresh slot, which would desynchronize the heap layout from the
    /// log).
    pub fn undo_delta_exact(&mut self, relation: &str, delta: &Delta) -> Result<()> {
        let inverse = match delta {
            Delta::Insert { row, tuple } => Delta::Delete {
                row: *row,
                tuple: tuple.clone(),
            },
            Delta::Delete { row, tuple } => Delta::Insert {
                row: *row,
                tuple: tuple.clone(),
            },
            Delta::Update { row, old, new } => Delta::Update {
                row: *row,
                old: new.clone(),
                new: old.clone(),
            },
        };
        self.apply_delta_exact(relation, &inverse)
    }

    /// Tuple at `row`, cloned out.
    pub fn get(&self, relation: &str, row: RowId) -> Result<Tuple> {
        self.relation(relation)?.get(row).cloned().ok_or_else(|| {
            StorageError::RowNotFound {
                relation: relation.to_string(),
                slot: row.0,
            }
            .into()
        })
    }

    /// Number of live tuples in a relation.
    pub fn len(&self, relation: &str) -> Result<usize> {
        self.current.len(relation)
    }

    /// Collect table statistics over every relation (the paper's "we ran
    /// the PostgreSQL statistics collection program on all the
    /// relations"). The executor then drives from the most selective
    /// condition instead of blindly using the first one. Statistics are
    /// a snapshot — re-run after bulk changes.
    pub fn analyze(&mut self) -> Result<()> {
        let names: Vec<&str> = self.current.relations.keys().map(String::as_str).collect();
        let stats = TableStats::analyze(self, &names)?;
        self.current.stats = Some(Arc::new(stats));
        self.current.epoch += 1;
        Ok(())
    }

    /// Table statistics, if `analyze` has been run.
    pub fn table_stats(&self) -> Option<&TableStats> {
        self.current.stats.as_deref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmv_storage::{tuple, Column, ColumnType, Value};

    fn db_with_r() -> Database {
        let mut db = Database::new();
        db.create_relation(Schema::new(
            "r",
            vec![
                Column::new("a", ColumnType::Int),
                Column::new("b", ColumnType::Int),
            ],
        ))
        .unwrap();
        db
    }

    #[test]
    fn declare_unique_key_validates_existing_rows() {
        let mut db = db_with_r();
        db.load("r", vec![tuple![1i64, 10i64], tuple![1i64, 20i64]])
            .unwrap();
        // Column `a` already holds duplicates: the declaration must fail.
        assert!(matches!(
            db.declare_unique_key("r", &["a"]),
            Err(QueryError::Unique(_))
        ));
        // The pair (a, b) is duplicate-free, so that declaration lands.
        db.declare_unique_key("r", &["a", "b"]).unwrap();
        assert_eq!(db.unique_keys("r"), &[vec![0, 1]]);
    }

    #[test]
    fn unique_key_rejects_duplicate_insert_and_update() {
        let mut db = db_with_r();
        db.insert("r", tuple![1i64, 10i64]).unwrap();
        db.insert("r", tuple![2i64, 20i64]).unwrap();
        db.declare_unique_key("r", &["a"]).unwrap();
        assert!(matches!(
            db.insert("r", tuple![1i64, 99i64]),
            Err(QueryError::Unique(_))
        ));
        // A fresh key is fine; re-writing a row's own key must not
        // trip over itself (`skip` excludes the updated row).
        db.insert("r", tuple![3i64, 30i64]).unwrap();
        let Delta::Insert { row, .. } = db.insert("r", tuple![4i64, 40i64]).unwrap() else {
            panic!()
        };
        db.update("r", row, tuple![4i64, 41i64]).unwrap();
        // Moving onto another row's key is rejected.
        assert!(matches!(
            db.update("r", row, tuple![3i64, 42i64]),
            Err(QueryError::Unique(_))
        ));
    }

    #[test]
    fn unique_key_enforced_through_index_probe() {
        let mut db = db_with_r();
        db.create_index(IndexDef::btree("r", vec![0])).unwrap();
        db.insert("r", tuple![7i64, 70i64]).unwrap();
        db.declare_unique_key("r", &["a"]).unwrap();
        // With an exact-column index present enforcement goes through
        // the probe path; behaviour must match the scan path.
        assert!(matches!(
            db.insert("r", tuple![7i64, 71i64]),
            Err(QueryError::Unique(_))
        ));
        db.insert("r", tuple![8i64, 80i64]).unwrap();
    }

    #[test]
    fn insert_maintains_index() {
        let mut db = db_with_r();
        db.create_index(IndexDef::btree("r", vec![0])).unwrap();
        let d = db.insert("r", tuple![5i64, 50i64]).unwrap();
        let Delta::Insert { row, .. } = d else {
            panic!()
        };
        let idx = db.index_on("r", &[0]).unwrap();
        assert_eq!(idx.get(&pmv_index::IndexKey::single(Value::Int(5))), &[row]);
    }

    #[test]
    fn index_created_after_load_backfills() {
        let mut db = db_with_r();
        db.load("r", vec![tuple![1i64, 10i64], tuple![2i64, 20i64]])
            .unwrap();
        db.create_index(IndexDef::hash("r", vec![1])).unwrap();
        let idx = db.index_on("r", &[1]).unwrap();
        assert_eq!(
            idx.get(&pmv_index::IndexKey::single(Value::Int(20))).len(),
            1
        );
    }

    #[test]
    fn delete_and_update_maintain_index() {
        let mut db = db_with_r();
        db.create_index(IndexDef::btree("r", vec![0])).unwrap();
        let Delta::Insert { row, .. } = db.insert("r", tuple![5i64, 50i64]).unwrap() else {
            panic!()
        };
        db.update("r", row, tuple![6i64, 50i64]).unwrap();
        let idx = db.index_on("r", &[0]).unwrap();
        assert!(idx
            .get(&pmv_index::IndexKey::single(Value::Int(5)))
            .is_empty());
        assert_eq!(idx.get(&pmv_index::IndexKey::single(Value::Int(6))), &[row]);
        db.delete("r", row).unwrap();
        let idx = db.index_on("r", &[0]).unwrap();
        assert!(idx
            .get(&pmv_index::IndexKey::single(Value::Int(6)))
            .is_empty());
        assert_eq!(db.len("r").unwrap(), 0);
    }

    #[test]
    fn index_on_requires_exact_columns() {
        let mut db = db_with_r();
        db.create_index(IndexDef::btree("r", vec![0])).unwrap();
        assert!(db.index_on("r", &[0]).is_some());
        assert!(db.index_on("r", &[1]).is_none());
        assert!(db.index_on("r", &[0, 1]).is_none());
        assert!(db.index_on("s", &[0]).is_none());
    }

    #[test]
    fn relation_names_are_unique_and_checked() {
        let mut db = db_with_r();
        assert!(matches!(
            db.create_relation(Schema::new("r", vec![Column::new("x", ColumnType::Int)])),
            Err(QueryError::Storage(StorageError::DuplicateRelation(_)))
        ));
        assert!(matches!(
            db.relation("nope"),
            Err(QueryError::Storage(StorageError::UnknownRelation(_)))
        ));
        assert!(db.insert("nope", tuple![1i64]).is_err());
        assert_eq!(db.len("r").unwrap(), 0, "the failed create left r alone");
    }

    #[test]
    fn get_and_len() {
        let mut db = db_with_r();
        let Delta::Insert { row, .. } = db.insert("r", tuple![1i64, 2i64]).unwrap() else {
            panic!()
        };
        assert_eq!(db.get("r", row).unwrap(), tuple![1i64, 2i64]);
        assert_eq!(db.len("r").unwrap(), 1);
        db.delete("r", row).unwrap();
        assert!(db.get("r", row).is_err());
    }

    #[test]
    fn publish_snapshot_reuses_untouched_entries() {
        use crate::dbview::DataView;
        let mut db = db_with_r();
        db.create_relation(Schema::new("s", vec![Column::new("x", ColumnType::Int)]))
            .unwrap();
        db.insert("r", tuple![1i64, 10i64]).unwrap();
        db.insert("s", tuple![7i64]).unwrap();
        let a = db.publish_snapshot();
        // No mutation: the next publish reuses the whole relation map.
        let b = db.publish_snapshot();
        assert!(Arc::ptr_eq(a.relations_arc(), b.relations_arc()));
        assert!(Arc::ptr_eq(a.indexes_arc(), b.indexes_arc()));
        // Mutating r re-captures r but reuses s's entry untouched.
        db.insert("r", tuple![2i64, 20i64]).unwrap();
        let c = db.publish_snapshot();
        assert!(!Arc::ptr_eq(b.relations_arc(), c.relations_arc()));
        assert!(Arc::ptr_eq(
            &b.relation_version("s").unwrap(),
            &c.relation_version("s").unwrap()
        ));
        assert_eq!(c.len("r").unwrap(), 2);
        assert_eq!(b.len("r").unwrap(), 1, "pinned snapshot mutated");
        // Index list only re-captured when an indexed relation moves.
        db.create_index(IndexDef::btree("r", vec![0])).unwrap();
        let d = db.publish_snapshot();
        assert!(!Arc::ptr_eq(c.indexes_arc(), d.indexes_arc()));
        db.insert("s", tuple![8i64]).unwrap();
        let e = db.publish_snapshot();
        assert!(Arc::ptr_eq(d.indexes_arc(), e.indexes_arc()));
        db.insert("r", tuple![3i64, 30i64]).unwrap();
        let f = db.publish_snapshot();
        assert!(!Arc::ptr_eq(e.indexes_arc(), f.indexes_arc()));
        assert_eq!(
            f.index_arc("r", &[0])
                .unwrap()
                .probe(&[Value::Int(3)])
                .len(),
            1
        );
        // Incremental publish and full snapshot agree.
        let full = db.snapshot();
        assert_eq!(full.epoch(), f.epoch());
        assert_eq!(full.len("r").unwrap(), f.len("r").unwrap());
        assert_eq!(full.len("s").unwrap(), f.len("s").unwrap());
    }

    #[test]
    fn apply_delta_exact_replays_slot_layout_and_indexes() {
        // Record a little history on one database...
        let mut db = db_with_r();
        db.create_index(IndexDef::btree("r", vec![0])).unwrap();
        let mut log = Vec::new();
        log.push(db.insert("r", tuple![1i64, 10i64]).unwrap());
        log.push(db.insert("r", tuple![2i64, 20i64]).unwrap());
        let Delta::Insert { row: r0, .. } = log[0].clone() else {
            panic!()
        };
        log.push(db.delete("r", r0).unwrap());
        log.push(db.insert("r", tuple![3i64, 30i64]).unwrap()); // reuses slot 0
        let Delta::Insert { row: r1, .. } = log[1].clone() else {
            panic!()
        };
        log.push(db.update("r", r1, tuple![4i64, 20i64]).unwrap());

        // ...and replay it into a fresh database with the same schema.
        let mut replica = db_with_r();
        replica.create_index(IndexDef::btree("r", vec![0])).unwrap();
        for d in &log {
            replica.apply_delta_exact("r", d).unwrap();
        }
        assert_eq!(replica.len("r").unwrap(), db.len("r").unwrap());
        for (row, t) in [(RowId(0), tuple![3i64, 30i64]), (r1, tuple![4i64, 20i64])] {
            assert_eq!(replica.get("r", row).unwrap(), t);
        }
        let idx = replica.index_on("r", &[0]).unwrap();
        assert_eq!(idx.get(&pmv_index::IndexKey::single(Value::Int(4))), &[r1]);
        assert!(idx
            .get(&pmv_index::IndexKey::single(Value::Int(1)))
            .is_empty());
    }

    #[test]
    fn undo_delta_exact_restores_original_slots() {
        let mut db = db_with_r();
        db.create_index(IndexDef::btree("r", vec![0])).unwrap();
        db.insert("r", tuple![1i64, 10i64]).unwrap();
        let before: Vec<_> = db
            .relation("r")
            .unwrap()
            .iter()
            .map(|(id, t)| (id, t.clone()))
            .collect();
        // A "failed commit": three deltas applied, then undone in reverse.
        let applied = [
            db.insert("r", tuple![2i64, 20i64]).unwrap(),
            db.delete("r", RowId(0)).unwrap(),
            db.insert("r", tuple![3i64, 30i64]).unwrap(),
        ];
        for d in applied.iter().rev() {
            db.undo_delta_exact("r", d).unwrap();
        }
        let after: Vec<_> = db
            .relation("r")
            .unwrap()
            .iter()
            .map(|(id, t)| (id, t.clone()))
            .collect();
        assert_eq!(before, after, "rollback must restore exact slot layout");
        let idx = db.index_on("r", &[0]).unwrap();
        assert!(idx
            .get(&pmv_index::IndexKey::single(Value::Int(3)))
            .is_empty());
        assert_eq!(
            idx.get(&pmv_index::IndexKey::single(Value::Int(1))),
            &[RowId(0)]
        );
    }

    #[test]
    fn multiple_indexes_on_one_relation() {
        let mut db = db_with_r();
        db.create_index(IndexDef::btree("r", vec![0])).unwrap();
        db.create_index(IndexDef::hash("r", vec![1])).unwrap();
        db.insert("r", tuple![1i64, 2i64]).unwrap();
        assert_eq!(db.index_defs("r").len(), 2);
        assert_eq!(db.index_on("r", &[1]).unwrap().entry_count(), 1);
    }
}
