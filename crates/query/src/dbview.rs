//! Read views over the database: the abstraction the executor runs on.
//!
//! The executor does not care whether it reads the live [`Database`]
//! (maintenance joins, revalidation, the plain-executor oracle) or an
//! immutable [`DbSnapshot`] published by the epoch serving path — it only
//! needs relation versions, index handles, and statistics. [`DataView`]
//! captures exactly that surface. Both implementations hand out
//! `Arc<HeapRelation>` / `Arc<AnyIndex>` versions, so once the executor
//! has resolved its inputs **no lock is held for the rest of the
//! query**: O3 runs entirely on immutable data.
//!
//! A [`DbSnapshot`] additionally carries the database's `version` as its
//! **epoch**: the number the serving path pins, gates cache fills by,
//! and reasons about staleness with (DESIGN.md §10).

use std::collections::BTreeMap;
use std::sync::Arc;

use pmv_index::{AnyIndex, IndexDef};
use pmv_storage::{HeapRelation, Schema, StorageError};

use crate::engine::Database;
use crate::table_stats::TableStats;
use crate::Result;

/// A consistent read surface: everything the executor needs to run a
/// query, resolvable to immutable `Arc` versions.
pub trait DataView {
    /// Current published version of `relation`. The returned `Arc` is
    /// immutable; scanning it requires no lock.
    fn relation_version(&self, relation: &str) -> Result<Arc<HeapRelation>>;

    /// `Arc` handle to the first index on exactly `(relation, columns)`.
    fn index_arc(&self, relation: &str, columns: &[usize]) -> Option<Arc<AnyIndex>>;

    /// Table statistics, if collected.
    fn stats_view(&self) -> Option<&TableStats>;

    /// The version/epoch this view reads at.
    fn view_epoch(&self) -> u64;
}

impl DataView for Database {
    fn relation_version(&self, relation: &str) -> Result<Arc<HeapRelation>> {
        let handle = self.relation(relation)?;
        Ok(pmv_storage::relation_snapshot(&handle))
    }

    fn index_arc(&self, relation: &str, columns: &[usize]) -> Option<Arc<AnyIndex>> {
        Database::index_arc(self, relation, columns)
    }

    fn stats_view(&self) -> Option<&TableStats> {
        self.table_stats()
    }

    fn view_epoch(&self) -> u64 {
        self.version()
    }
}

/// An immutable snapshot of the whole database at one version: the unit
/// the epoch serving path publishes and queries pin. The relation map
/// and index list are themselves behind `Arc`s, so cloning a snapshot —
/// and, more importantly, publishing a new one that reuses the previous
/// snapshot's entries for untouched relations
/// ([`Database::publish_snapshot`]) — costs a handful of pointer clones
/// regardless of how many relations the catalog holds.
#[derive(Clone)]
pub struct DbSnapshot {
    relations: Arc<BTreeMap<String, Arc<HeapRelation>>>,
    indexes: Arc<Vec<(IndexDef, Arc<AnyIndex>)>>,
    stats: Option<Arc<TableStats>>,
    epoch: u64,
}

impl DbSnapshot {
    pub(crate) fn new(
        relations: Arc<BTreeMap<String, Arc<HeapRelation>>>,
        indexes: Arc<Vec<(IndexDef, Arc<AnyIndex>)>>,
        stats: Option<Arc<TableStats>>,
        epoch: u64,
    ) -> Self {
        DbSnapshot {
            relations,
            indexes,
            stats,
            epoch,
        }
    }

    /// The database version this snapshot was taken at.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Schema of `relation`.
    pub fn schema(&self, relation: &str) -> Result<Schema> {
        Ok(self.relation_version(relation)?.schema().clone())
    }

    /// Number of live tuples in `relation`.
    pub fn len(&self, relation: &str) -> Result<usize> {
        Ok(self.relation_version(relation)?.len())
    }

    /// True when the snapshot holds no relations.
    pub fn is_empty(&self) -> bool {
        self.relations.is_empty()
    }

    /// Names of all relations, sorted.
    pub fn relation_names(&self) -> Vec<String> {
        self.relations.keys().cloned().collect()
    }

    /// Definitions of every index captured by the snapshot. Checkpoint
    /// serialization records these (indexes themselves are derived
    /// state, rebuilt on recovery).
    pub fn index_defs(&self) -> Vec<IndexDef> {
        self.indexes.iter().map(|(d, _)| d.clone()).collect()
    }

    /// Shared handle to the relation map (incremental publish reuses it).
    pub(crate) fn relations_arc(&self) -> &Arc<BTreeMap<String, Arc<HeapRelation>>> {
        &self.relations
    }

    /// Shared handle to the index list (incremental publish reuses it).
    pub(crate) fn indexes_arc(&self) -> &Arc<Vec<(IndexDef, Arc<AnyIndex>)>> {
        &self.indexes
    }
}

impl DataView for DbSnapshot {
    fn relation_version(&self, relation: &str) -> Result<Arc<HeapRelation>> {
        self.relations
            .get(relation)
            .cloned()
            .ok_or_else(|| StorageError::UnknownRelation(relation.to_string()).into())
    }

    fn index_arc(&self, relation: &str, columns: &[usize]) -> Option<Arc<AnyIndex>> {
        self.indexes
            .iter()
            .find(|(d, _)| d.relation == relation && d.columns == columns)
            .map(|(_, i)| Arc::clone(i))
    }

    fn stats_view(&self) -> Option<&TableStats> {
        self.stats.as_deref()
    }

    fn view_epoch(&self) -> u64 {
        self.epoch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmv_index::IndexDef;
    use pmv_storage::{tuple, Column, ColumnType, Schema};

    fn db() -> Database {
        let mut db = Database::new();
        db.create_relation(Schema::new(
            "r",
            vec![
                Column::new("a", ColumnType::Int),
                Column::new("b", ColumnType::Int),
            ],
        ))
        .unwrap();
        db.load("r", (0..5i64).map(|i| tuple![i, i * 10])).unwrap();
        db.create_index(IndexDef::btree("r", vec![0])).unwrap();
        db
    }

    #[test]
    fn snapshot_is_a_frozen_version() {
        let mut db = db();
        let snap = db.snapshot();
        let epoch = snap.epoch();
        db.insert("r", tuple![99i64, 990i64]).unwrap();
        // The pinned snapshot still reads the old version (relation and
        // index alike) while the live database moved on.
        assert_eq!(snap.len("r").unwrap(), 5);
        assert_eq!(db.len("r").unwrap(), 6);
        assert_eq!(snap.epoch(), epoch);
        assert!(db.version() > epoch);
        let idx = snap.index_arc("r", &[0]).unwrap();
        assert!(idx.probe(&[pmv_storage::Value::Int(99)]).is_empty());
        let live_idx = DataView::index_arc(&db, "r", &[0]).unwrap();
        assert_eq!(live_idx.probe(&[pmv_storage::Value::Int(99)]).len(), 1);
    }

    #[test]
    fn snapshot_cost_is_pointer_clones() {
        let db = db();
        let a = db.snapshot();
        let b = db.snapshot();
        // Same published versions — no tuple data copied.
        assert!(Arc::ptr_eq(
            &a.relation_version("r").unwrap(),
            &b.relation_version("r").unwrap()
        ));
        assert_eq!(a.epoch(), b.epoch());
        assert_eq!(a.relation_names(), vec!["r".to_string()]);
    }

    #[test]
    fn unknown_relation_errors() {
        let snap = db().snapshot();
        assert!(snap.relation_version("nope").is_err());
        assert!(snap.index_arc("r", &[1]).is_none());
    }
}
