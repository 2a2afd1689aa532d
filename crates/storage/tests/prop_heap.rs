//! Model-based property test of the paged, structurally shared
//! `HeapRelation`: random scripts of `insert` / `insert_at` / `delete` /
//! `update` / take-a-snapshot (`Clone`) against a flat
//! `Vec<Option<Tuple>>` + free-list model. After every step the
//! relation hands out the same `RowId`s and answers `get` / `iter` /
//! `len` / `version` and the error variants as the model does; at the
//! end every snapshot still equals the model state at the moment it was
//! taken, whatever pages and spine chunks later writes copied.

use pmv_storage::{Column, ColumnType, HeapRelation, RowId, Schema, StorageError, Tuple, Value};
use proptest::prelude::*;

/// Slots per spine chunk (64 pages of 64): scripts aim at its boundary.
const CHUNK_SLOTS: usize = 64 * 64;

#[derive(Clone, Copy, Debug, PartialEq)]
enum Miss {
    RowNotFound,
    SlotOccupied,
}

fn miss(e: StorageError) -> Miss {
    match e {
        StorageError::RowNotFound { .. } => Miss::RowNotFound,
        StorageError::SlotOccupied { .. } => Miss::SlotOccupied,
        other => panic!("unexpected storage error {other:?}"),
    }
}

/// The flat heap the paged one replaced, op for op.
#[derive(Clone, Default)]
struct Model {
    slots: Vec<Option<Tuple>>,
    free: Vec<u32>,
    version: u64,
}

impl Model {
    fn insert(&mut self, t: Tuple) -> RowId {
        self.version += 1;
        match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = Some(t);
                RowId(slot)
            }
            None => {
                self.slots.push(Some(t));
                RowId(self.slots.len() as u32 - 1)
            }
        }
    }

    fn insert_at(&mut self, id: RowId, t: Tuple) -> Result<(), Miss> {
        let idx = id.index();
        if idx >= self.slots.len() {
            self.free.extend(self.slots.len() as u32..id.0);
            self.slots.resize(idx + 1, None);
        } else if self.slots[idx].is_some() {
            return Err(Miss::SlotOccupied);
        } else if let Some(pos) = self.free.iter().rposition(|&s| s == id.0) {
            self.free.swap_remove(pos);
        }
        self.slots[idx] = Some(t);
        self.version += 1;
        Ok(())
    }

    fn delete(&mut self, id: RowId) -> Result<Tuple, Miss> {
        let old = self
            .slots
            .get_mut(id.index())
            .and_then(Option::take)
            .ok_or(Miss::RowNotFound)?;
        self.free.push(id.0);
        self.version += 1;
        Ok(old)
    }

    fn update(&mut self, id: RowId, t: Tuple) -> Result<Tuple, Miss> {
        let slot = self
            .slots
            .get_mut(id.index())
            .and_then(Option::as_mut)
            .ok_or(Miss::RowNotFound)?;
        self.version += 1;
        Ok(std::mem::replace(slot, t))
    }

    fn live(&self) -> usize {
        self.slots.iter().flatten().count()
    }
}

#[derive(Clone, Debug)]
enum Op {
    Insert(i64),
    /// Exact-slot insert `past` slots beyond a `base` slot.
    InsertAt(usize, i64),
    Delete(usize),
    Update(usize, i64),
    Snapshot,
}

/// Slots worth hitting: the first pages, both sides of the chunk
/// boundary, and (for `insert_at`) far past any end a script reaches.
fn slot_strategy() -> impl Strategy<Value = usize> {
    prop_oneof![
        6 => 0usize..200,
        3 => CHUNK_SLOTS - 70..CHUNK_SLOTS + 70,
        1 => 2 * CHUNK_SLOTS - 3..2 * CHUNK_SLOTS + 200,
    ]
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => any::<i64>().prop_map(Op::Insert),
        2 => (slot_strategy(), any::<i64>()).prop_map(|(s, v)| Op::InsertAt(s, v)),
        3 => slot_strategy().prop_map(Op::Delete),
        3 => (slot_strategy(), any::<i64>()).prop_map(|(s, v)| Op::Update(s, v)),
        2 => Just(Op::Snapshot),
    ]
}

/// Rows loaded before the script: none, one page and a bit, or up to
/// just short of the chunk boundary so inserts walk across it.
fn prefill_strategy() -> impl Strategy<Value = usize> {
    prop_oneof![
        Just(0usize),
        60usize..70,
        CHUNK_SLOTS - 10..CHUNK_SLOTS + 10,
    ]
}

fn schema() -> Schema {
    Schema::new(
        "r",
        vec![
            Column::new("v", ColumnType::Int),
            Column::new("s", ColumnType::Str),
        ],
    )
}

fn tup(v: i64) -> Tuple {
    Tuple::new(vec![Value::Int(v), Value::str("x")])
}

fn check_equal(rel: &HeapRelation, model: &Model) -> Result<(), TestCaseError> {
    prop_assert_eq!(rel.len(), model.live());
    prop_assert_eq!(rel.version(), model.version);
    for (i, slot) in model.slots.iter().enumerate() {
        prop_assert_eq!(rel.get(RowId(i as u32)), slot.as_ref(), "get({})", i);
    }
    prop_assert_eq!(rel.get(RowId(model.slots.len() as u32)), None);
    let live = model
        .slots
        .iter()
        .enumerate()
        .filter_map(|(i, t)| t.as_ref().map(|t| (RowId(i as u32), t)));
    prop_assert!(rel.iter().eq(live), "iter diverged from the model");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn paged_heap_matches_flat_model_and_snapshots_stay_frozen(
        prefill in prefill_strategy(),
        ops in proptest::collection::vec(op_strategy(), 1..60),
    ) {
        let mut rel = HeapRelation::new(schema());
        let mut model = Model::default();
        for i in 0..prefill as i64 {
            prop_assert_eq!(rel.insert(tup(i)).unwrap(), model.insert(tup(i)));
        }
        let mut snapshots: Vec<(HeapRelation, Model)> = Vec::new();

        for op in ops {
            match op {
                Op::Insert(v) => {
                    prop_assert_eq!(rel.insert(tup(v)).unwrap(), model.insert(tup(v)));
                }
                Op::InsertAt(slot, v) => {
                    let id = RowId(slot as u32);
                    prop_assert_eq!(
                        rel.insert_at(id, tup(v)).map_err(miss),
                        model.insert_at(id, tup(v))
                    );
                }
                Op::Delete(slot) => {
                    let id = RowId(slot as u32);
                    prop_assert_eq!(rel.delete(id).map_err(miss), model.delete(id));
                }
                Op::Update(slot, v) => {
                    let id = RowId(slot as u32);
                    prop_assert_eq!(
                        rel.update(id, tup(v)).map_err(miss),
                        model.update(id, tup(v))
                    );
                }
                Op::Snapshot => snapshots.push((rel.clone(), model.clone())),
            }
            check_equal(&rel, &model)?;
        }

        for (snap, at_snapshot) in &snapshots {
            check_equal(snap, at_snapshot)?;
        }
    }
}
