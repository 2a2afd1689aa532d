//! Slotted in-memory heap relations with stable row ids.
//!
//! A [`HeapRelation`] stores tuples in slots. Deleting a tuple frees its
//! slot (reused by later inserts), but a live tuple's [`RowId`] never
//! changes — indexes and deltas can therefore refer to rows by id, just as
//! the paper's PostgreSQL prototype refers to heap TIDs.
//!
//! The slot array is paged and structurally shared (`cowvec`): cloning a
//! relation — what `Arc::make_mut` does on the first write after a
//! snapshot was published — copies one pointer per 4096 slots plus the
//! free list, the write itself copies the one 64-slot page (and the
//! 64-pointer spine chunk) that holds the row, and dropping a retired
//! version frees only the pages it alone still holds. A commit's heap
//! cost is therefore O(|Δ|) pages, not O(|R|) tuples.

use std::sync::Arc;

use crate::cowvec::CowVec;
use crate::error::StorageError;
use crate::prefetch::prefetch_read;
use crate::schema::Schema;
use crate::size::HeapSize;
use crate::tuple::Tuple;

/// Stable identifier of a tuple slot within one relation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RowId(pub u32);

impl RowId {
    /// Slot number as an index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// An in-memory heap relation.
#[derive(Clone, Debug)]
pub struct HeapRelation {
    schema: Arc<Schema>,
    slots: CowVec<Option<Tuple>>,
    /// Freed slots, reused LIFO. A plain `Vec`: O(#holes) to clone, and
    /// holes are rare.
    free: Vec<u32>,
    live: usize,
    /// Slots a log may name past the next one ([`Self::reserve_slots`]);
    /// 0 unless restored from an image.
    reserved: u32,
    /// Monotone counter bumped on every mutation; cheap change detection
    /// for layers that cache derived state.
    version: u64,
}

impl HeapRelation {
    /// Create an empty relation with the given schema.
    pub fn new(schema: Schema) -> Self {
        HeapRelation {
            schema: Arc::new(schema),
            slots: CowVec::new(),
            free: Vec::new(),
            live: 0,
            reserved: 0,
            version: 0,
        }
    }

    /// The relation's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Relation name (from the schema).
    pub fn name(&self) -> &str {
        self.schema.name()
    }

    /// Number of live tuples.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True if no live tuples exist.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Slots the relation has allocated, live or free: one past the
    /// highest `RowId` it has held.
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// Mutation counter; bumps on insert/delete/update.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Insert a tuple, validating it against the schema. Returns its id.
    pub fn insert(&mut self, tuple: Tuple) -> Result<RowId, StorageError> {
        self.schema.check(tuple.values())?;
        self.version += 1;
        self.live += 1;
        let id = match self.free.pop() {
            Some(slot) => {
                *self.slots.get_mut(slot as usize).expect("free slot exists") = Some(tuple);
                RowId(slot)
            }
            None => {
                let slot = u32::try_from(self.slots.len()).expect("relation exceeds u32 slots");
                self.slots.push(Some(tuple));
                RowId(slot)
            }
        };
        Ok(id)
    }

    /// Insert a tuple into the *specific* slot `id`, extending the slot
    /// array (and free list) as needed. Errors if the slot is already
    /// occupied.
    ///
    /// This is the WAL-replay primitive: logged deltas refer to rows by
    /// id (deletes and updates name their victim's `RowId`), so recovery
    /// must reproduce the exact slot layout the log was written against,
    /// not merely an equal multiset of tuples. Replay checks an id it
    /// read back first ([`Self::check_insert_at`]).
    pub fn insert_at(&mut self, id: RowId, tuple: Tuple) -> Result<(), StorageError> {
        self.schema.check(tuple.values())?;
        let idx = id.index();
        if idx >= self.slots.len() {
            // Holes opened by the extension become free slots, matching
            // what a sequence of inserts+deletes would have left behind.
            for gap in self.slots.len()..idx {
                self.free.push(gap as u32);
            }
            self.slots.grow(idx + 1);
        } else if self.occupied(idx) {
            return Err(StorageError::SlotOccupied {
                relation: self.schema.name().to_string(),
                slot: id.0,
            });
        } else {
            // Reusing a hole: drop it from the free list so a later
            // plain insert cannot land on the same slot.
            if let Some(pos) = self.free.iter().rposition(|&s| s == id.0) {
                self.free.swap_remove(pos);
            }
        }
        *self.slots.get_mut(idx).expect("slot in range") = Some(tuple);
        self.live += 1;
        self.version += 1;
        Ok(())
    }

    /// Whether a log written against this relation can name slot `id`
    /// for an insert: a slot it holds, the next one, or one below the
    /// count a checkpoint image reserved ([`Self::reserve_slots`]) —
    /// inserts grow a relation one slot at a time, and an image's holes
    /// past its last row are still free. Anything further is
    /// [`StorageError::SlotPastEnd`]: replay checks it before
    /// [`Self::insert_at`], so a damaged id cannot make the relation
    /// allocate slots up to itself.
    pub fn check_insert_at(&self, id: RowId) -> Result<(), StorageError> {
        if id.index() > self.slots.len() && id.0 >= self.reserved {
            return Err(StorageError::SlotPastEnd {
                relation: self.schema.name().to_string(),
                slot: id.0,
                slots: self.slots.len().max(self.reserved as usize),
            });
        }
        Ok(())
    }

    /// Let [`Self::check_insert_at`] pass any slot below `slots`: the
    /// slot count a checkpoint image recorded for the relation, holes
    /// past its last row included. Nothing is allocated until a row lands
    /// in or beyond such a slot, so a damaged count allocates nothing by
    /// itself.
    pub fn reserve_slots(&mut self, slots: u32) {
        self.reserved = self.reserved.max(slots);
    }

    fn occupied(&self, idx: usize) -> bool {
        self.slots.get(idx).is_some_and(Option::is_some)
    }

    /// The occupied slot at `id`, for writing. Checks liveness on the
    /// shared pages first, so a miss copies nothing.
    fn live_slot_mut(&mut self, id: RowId) -> Result<&mut Option<Tuple>, StorageError> {
        if !self.occupied(id.index()) {
            return Err(StorageError::RowNotFound {
                relation: self.schema.name().to_string(),
                slot: id.0,
            });
        }
        Ok(self.slots.get_mut(id.index()).expect("slot checked above"))
    }

    /// Delete the tuple at `id`, returning it.
    pub fn delete(&mut self, id: RowId) -> Result<Tuple, StorageError> {
        let old = self.live_slot_mut(id)?.take().expect("live slot");
        self.free.push(id.0);
        self.live -= 1;
        self.version += 1;
        Ok(old)
    }

    /// Replace the tuple at `id`, returning the old tuple.
    pub fn update(&mut self, id: RowId, new: Tuple) -> Result<Tuple, StorageError> {
        self.schema.check(new.values())?;
        let old = self.live_slot_mut(id)?.replace(new).expect("live slot");
        self.version += 1;
        Ok(old)
    }

    /// Tuple at `id`, if live.
    ///
    /// This is the executor's row-fetch path, so it carries a soft fault
    /// site (latency / panic injection only — the `Option` return has no
    /// error channel).
    pub fn get(&self, id: RowId) -> Option<&Tuple> {
        pmv_faultinject::fire_soft(pmv_faultinject::Site::StorageRead);
        self.slots.get(id.index())?.as_ref()
    }

    /// Hint that the slot of `id` is about to be [`get`](Self::get): the
    /// first of the two dependent loads a row fetch costs (slot, then
    /// tuple body), issued for a whole batch before any of them is
    /// waited for. Finding the slot walks spine and chunk (a few KiB per
    /// relation, shared by every row, so normally cached) but does not
    /// load it. Not a read, so no fault site fires.
    pub fn prefetch(&self, id: RowId) {
        if let Some(slot) = self.slots.get(id.index()) {
            prefetch_read(slot, std::mem::size_of_val(slot));
        }
    }

    /// Iterate over `(RowId, &Tuple)` for all live tuples.
    pub fn iter(&self) -> impl Iterator<Item = (RowId, &Tuple)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, t)| t.as_ref().map(|t| (RowId(i as u32), t)))
    }

    /// Average total tuple size in bytes (the paper's `At`), or 0 if empty.
    pub fn avg_tuple_bytes(&self) -> usize {
        if self.live == 0 {
            return 0;
        }
        let total: usize = self
            .iter()
            .map(|(_, t)| std::mem::size_of::<Tuple>() + t.heap_size())
            .sum();
        total / self.live
    }
}

impl HeapSize for HeapRelation {
    fn heap_size(&self) -> usize {
        self.slots.heap_size()
            + self.free.capacity() * std::mem::size_of::<u32>()
            + self.schema.name().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Column, ColumnType};
    use crate::tuple;

    fn rel() -> HeapRelation {
        HeapRelation::new(Schema::new(
            "r",
            vec![
                Column::new("a", ColumnType::Int),
                Column::new("b", ColumnType::Str),
            ],
        ))
    }

    #[test]
    fn insert_get_roundtrip() {
        let mut r = rel();
        let id = r.insert(tuple![1i64, "x"]).unwrap();
        assert_eq!(r.get(id), Some(&tuple![1i64, "x"]));
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn insert_validates_schema() {
        let mut r = rel();
        assert!(r.insert(tuple![1i64]).is_err());
        assert!(r.insert(tuple!["wrong", "x"]).is_err());
        assert_eq!(r.len(), 0);
    }

    #[test]
    fn delete_frees_slot_for_reuse() {
        let mut r = rel();
        let id1 = r.insert(tuple![1i64, "x"]).unwrap();
        let id2 = r.insert(tuple![2i64, "y"]).unwrap();
        let removed = r.delete(id1).unwrap();
        assert_eq!(removed, tuple![1i64, "x"]);
        assert_eq!(r.get(id1), None);
        assert_eq!(r.len(), 1);
        // New insert reuses the freed slot.
        let id3 = r.insert(tuple![3i64, "z"]).unwrap();
        assert_eq!(id3, id1);
        assert_ne!(id3, id2);
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn double_delete_errors() {
        let mut r = rel();
        let id = r.insert(tuple![1i64, "x"]).unwrap();
        r.delete(id).unwrap();
        assert!(matches!(
            r.delete(id),
            Err(StorageError::RowNotFound { .. })
        ));
    }

    #[test]
    fn update_replaces_in_place() {
        let mut r = rel();
        let id = r.insert(tuple![1i64, "x"]).unwrap();
        let old = r.update(id, tuple![9i64, "y"]).unwrap();
        assert_eq!(old, tuple![1i64, "x"]);
        assert_eq!(r.get(id), Some(&tuple![9i64, "y"]));
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn update_validates_schema() {
        let mut r = rel();
        let id = r.insert(tuple![1i64, "x"]).unwrap();
        assert!(r.update(id, tuple!["bad", "y"]).is_err());
        assert_eq!(r.get(id), Some(&tuple![1i64, "x"]));
    }

    #[test]
    fn iter_skips_deleted() {
        let mut r = rel();
        let a = r.insert(tuple![1i64, "a"]).unwrap();
        let _b = r.insert(tuple![2i64, "b"]).unwrap();
        r.delete(a).unwrap();
        let rows: Vec<_> = r.iter().map(|(_, t)| t.get(0).clone()).collect();
        assert_eq!(rows, vec![crate::value::Value::Int(2)]);
    }

    #[test]
    fn version_bumps_on_every_mutation() {
        let mut r = rel();
        let v0 = r.version();
        let id = r.insert(tuple![1i64, "a"]).unwrap();
        let v1 = r.version();
        r.update(id, tuple![2i64, "b"]).unwrap();
        let v2 = r.version();
        r.delete(id).unwrap();
        let v3 = r.version();
        assert!(v0 < v1 && v1 < v2 && v2 < v3);
    }

    #[test]
    fn insert_at_reproduces_slot_layout() {
        let mut r = rel();
        // Replay-style population: slot 2 first, then slot 0.
        r.insert_at(RowId(2), tuple![2i64, "c"]).unwrap();
        r.insert_at(RowId(0), tuple![0i64, "a"]).unwrap();
        assert_eq!(r.len(), 2);
        assert_eq!(r.get(RowId(2)), Some(&tuple![2i64, "c"]));
        // Slot 1 is a hole: a plain insert fills it, not a fresh slot.
        let id = r.insert(tuple![1i64, "b"]).unwrap();
        assert_eq!(id, RowId(1));
        // Occupied slot is rejected; schema still validated.
        assert!(matches!(
            r.insert_at(RowId(0), tuple![9i64, "x"]),
            Err(StorageError::SlotOccupied { .. })
        ));
        assert!(r.insert_at(RowId(7), tuple!["bad", "y"]).is_err());
    }

    /// Past the next slot, a log reaches only the slots an image
    /// reserved: a damaged id is an error, and nothing is allocated for
    /// it or for the reservation.
    #[test]
    fn a_log_reaches_only_the_next_or_a_reserved_slot() {
        let mut r = rel();
        let past = |r: &HeapRelation, slot: u32| {
            matches!(
                r.check_insert_at(RowId(slot)),
                Err(StorageError::SlotPastEnd { slot: s, .. }) if s == slot
            )
        };
        assert!(past(&r, 1));
        r.check_insert_at(RowId(0)).unwrap();
        r.insert_at(RowId(0), tuple![0i64, "a"]).unwrap();
        assert!(past(&r, u32::MAX));
        r.reserve_slots(4);
        assert_eq!(r.slot_count(), 1, "a reservation allocates no slot");
        assert!(past(&r, 5));
        r.check_insert_at(RowId(3)).unwrap();
        r.insert_at(RowId(3), tuple![3i64, "d"]).unwrap();
        r.check_insert_at(RowId(4)).unwrap();
        assert!(past(&r, 5));
        // A slot it holds is reachable, occupied or not.
        r.check_insert_at(RowId(2)).unwrap();
        r.check_insert_at(RowId(3)).unwrap();
    }

    #[test]
    fn insert_at_into_freed_slot_unlinks_free_list() {
        let mut r = rel();
        let a = r.insert(tuple![1i64, "a"]).unwrap();
        let _b = r.insert(tuple![2i64, "b"]).unwrap();
        r.delete(a).unwrap();
        r.insert_at(a, tuple![3i64, "c"]).unwrap();
        // The freed slot was consumed by insert_at; a new insert must
        // open a fresh slot rather than clobber it.
        let c = r.insert(tuple![4i64, "d"]).unwrap();
        assert_ne!(c, a);
        assert_eq!(r.get(a), Some(&tuple![3i64, "c"]));
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn avg_tuple_bytes_reasonable() {
        let mut r = rel();
        r.insert(tuple![1i64, "abcd"]).unwrap();
        assert!(r.avg_tuple_bytes() > 4);
        let empty = rel();
        assert_eq!(empty.avg_tuple_bytes(), 0);
    }
}
