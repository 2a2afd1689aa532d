//! Catalog of named relations.
//!
//! The catalog owns every base relation behind a copy-on-write handle:
//! `Arc<RwLock<Arc<HeapRelation>>>`. The outer `Arc` is the shared
//! handle, the `RwLock` guards only the *pointer slot*, and the inner
//! `Arc` is the immutable published version of the relation. Readers
//! take the read lock just long enough to clone the inner `Arc`
//! ([`relation_snapshot`]) and then scan with no lock held at all — the
//! lock-free serving path. Writers mutate through [`with_relation_mut`],
//! which uses `Arc::make_mut`: while no snapshot pins the old version
//! this is an in-place mutation (refcount 1, zero copies, the classic
//! single-writer fast path); when a reader still pins it, the writer
//! transparently builds the next version off-path — exactly the
//! copy-on-write discipline the epoch snapshot layer in `pmv-query`
//! relies on. That clone is cheap whatever the relation's size: a
//! [`HeapRelation`]'s slot array is paged and structurally shared, so
//! `Clone` copies one pointer per 4096 slots and the write that follows
//! copies only the 64-slot page it lands on (see [`crate::relation`]).
//! The pinned snapshot keeps the old page; every other page is shared
//! between the two versions until one of them is dropped.
//!
//! [`relation_snapshot`]: crate::relation_snapshot
//! [`with_relation_mut`]: crate::with_relation_mut

use std::collections::BTreeMap;
use std::sync::Arc;

use parking_lot::RwLock;

use crate::error::StorageError;
use crate::relation::HeapRelation;
use crate::schema::Schema;

/// Shared copy-on-write handle to one relation (see module docs).
pub type RelationHandle = Arc<RwLock<Arc<HeapRelation>>>;

/// Clone the current published version out of a handle: a brief read
/// lock around one `Arc::clone`, never blocking on in-progress readers
/// and never copying tuple data. The returned snapshot is immutable and
/// valid forever (it simply stops receiving new versions).
pub fn relation_snapshot(handle: &RelationHandle) -> Arc<HeapRelation> {
    Arc::clone(&handle.read())
}

/// Mutate a relation through its copy-on-write handle. Takes the write
/// lock on the pointer slot and hands `f` a `&mut HeapRelation` via
/// `Arc::make_mut`: in-place when unshared; when a snapshot still pins
/// the current version, a clone that shares every page with it (O(rows /
/// 4096) pointers), of which `f`'s writes then copy the pages they touch.
pub fn with_relation_mut<T>(handle: &RelationHandle, f: impl FnOnce(&mut HeapRelation) -> T) -> T {
    let mut slot = handle.write();
    f(Arc::make_mut(&mut slot))
}

/// Named collection of relations.
#[derive(Default)]
pub struct Catalog {
    relations: BTreeMap<String, RelationHandle>,
}

impl Catalog {
    /// Empty catalog.
    pub fn new() -> Self {
        Catalog::default()
    }

    /// Create a relation with the given schema.
    pub fn create_relation(&mut self, schema: Schema) -> Result<RelationHandle, StorageError> {
        let name = schema.name().to_string();
        if self.relations.contains_key(&name) {
            return Err(StorageError::DuplicateRelation(name));
        }
        let handle = Arc::new(RwLock::new(Arc::new(HeapRelation::new(schema))));
        self.relations.insert(name, Arc::clone(&handle));
        Ok(handle)
    }

    /// Look up a relation by name.
    pub fn relation(&self, name: &str) -> Result<RelationHandle, StorageError> {
        self.relations
            .get(name)
            .cloned()
            .ok_or_else(|| StorageError::UnknownRelation(name.to_string()))
    }

    /// True if the named relation exists.
    pub fn contains(&self, name: &str) -> bool {
        self.relations.contains_key(name)
    }

    /// Names of all relations, sorted.
    pub fn relation_names(&self) -> Vec<String> {
        self.relations.keys().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Column, ColumnType};
    use crate::tuple;

    fn schema(name: &str) -> Schema {
        Schema::new(name, vec![Column::new("a", ColumnType::Int)])
    }

    #[test]
    fn create_and_lookup() {
        let mut c = Catalog::new();
        c.create_relation(schema("r")).unwrap();
        assert!(c.contains("r"));
        let h = c.relation("r").unwrap();
        with_relation_mut(&h, |r| r.insert(tuple![1i64])).unwrap();
        assert_eq!(c.relation("r").unwrap().read().len(), 1);
    }

    #[test]
    fn duplicate_creation_fails() {
        let mut c = Catalog::new();
        c.create_relation(schema("r")).unwrap();
        assert!(matches!(
            c.create_relation(schema("r")),
            Err(StorageError::DuplicateRelation(_))
        ));
    }

    #[test]
    fn missing_relation_errors() {
        let c = Catalog::new();
        assert!(matches!(
            c.relation("nope"),
            Err(StorageError::UnknownRelation(_))
        ));
    }

    #[test]
    fn names_sorted() {
        let mut c = Catalog::new();
        c.create_relation(schema("z")).unwrap();
        c.create_relation(schema("a")).unwrap();
        assert_eq!(c.relation_names(), vec!["a".to_string(), "z".to_string()]);
    }

    #[test]
    fn handles_share_state() {
        let mut c = Catalog::new();
        let h1 = c.create_relation(schema("r")).unwrap();
        let h2 = c.relation("r").unwrap();
        with_relation_mut(&h1, |r| r.insert(tuple![5i64])).unwrap();
        assert_eq!(h2.read().len(), 1);
    }

    #[test]
    fn snapshots_are_immutable_versions() {
        let mut c = Catalog::new();
        let h = c.create_relation(schema("r")).unwrap();
        with_relation_mut(&h, |r| r.insert(tuple![1i64])).unwrap();
        let snap = relation_snapshot(&h);
        // Writer builds the next version off-path (copy-on-write: the
        // pinned snapshot forces a clone, which shares its pages) …
        with_relation_mut(&h, |r| r.insert(tuple![2i64])).unwrap();
        // … so the pinned snapshot still sees the old version while new
        // readers see the new one.
        assert_eq!(snap.len(), 1);
        assert_eq!(relation_snapshot(&h).len(), 2);
    }
}
