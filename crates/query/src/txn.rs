//! Transactions: grouped DML with undo, producing the per-relation
//! [`DeltaBatch`]es that drive PMV maintenance (the paper's transaction T
//! in Section 4.3 inserts `p·|ΔR|` tuples and deletes `(1-p)·|ΔR|` tuples
//! in one unit).

use std::collections::HashMap;

use pmv_storage::{Delta, DeltaBatch, RowId, Tuple};

use crate::engine::Database;
use crate::Result;

/// A transaction over a mutable database.
///
/// Changes apply eagerly; a transaction dropped without [`commit`]
/// undoes them, in reverse order and at their original row ids, so an
/// early return (`txn.insert(..)?` failing after `txn.delete(..)?`
/// succeeded) leaves the database exactly as the transaction found it.
///
/// [`commit`]: Transaction::commit
pub struct Transaction<'a> {
    db: &'a mut Database,
    applied: Vec<(String, Delta)>,
}

impl<'a> Transaction<'a> {
    /// Begin a transaction.
    pub fn begin(db: &'a mut Database) -> Self {
        Transaction {
            db,
            applied: Vec::new(),
        }
    }

    /// Insert a tuple.
    pub fn insert(&mut self, relation: &str, tuple: Tuple) -> Result<RowId> {
        let delta = self.db.insert(relation, tuple)?;
        let row = delta.row();
        self.applied.push((relation.to_string(), delta));
        Ok(row)
    }

    /// Delete the tuple at `row`, returning it.
    pub fn delete(&mut self, relation: &str, row: RowId) -> Result<Tuple> {
        let delta = self.db.delete(relation, row)?;
        let Delta::Delete { ref tuple, .. } = delta else {
            unreachable!("Database::delete returns Delta::Delete")
        };
        let t = tuple.clone();
        self.applied.push((relation.to_string(), delta));
        Ok(t)
    }

    /// Replace the tuple at `row`.
    pub fn update(&mut self, relation: &str, row: RowId, new: Tuple) -> Result<Tuple> {
        let delta = self.db.update(relation, row, new)?;
        let Delta::Update { ref old, .. } = delta else {
            unreachable!("Database::update returns Delta::Update")
        };
        let t = old.clone();
        self.applied.push((relation.to_string(), delta));
        Ok(t)
    }

    /// Read through the transaction (sees own writes, trivially, since
    /// changes are applied eagerly).
    pub fn get(&self, relation: &str, row: RowId) -> Result<Tuple> {
        self.db.get(relation, row)
    }

    /// Commit: keep all changes, return per-relation delta batches in the
    /// order relations were first touched.
    pub fn commit(mut self) -> Vec<DeltaBatch> {
        let mut order: Vec<String> = Vec::new();
        let mut batches: HashMap<String, DeltaBatch> = HashMap::new();
        for (rel, delta) in std::mem::take(&mut self.applied) {
            if !batches.contains_key(&rel) {
                order.push(rel.clone());
                batches.insert(rel.clone(), DeltaBatch::new(rel.clone()));
            }
            batches.get_mut(&rel).expect("just inserted").push(delta);
        }
        order
            .into_iter()
            .map(|rel| batches.remove(&rel).expect("present"))
            .collect()
    }

    /// Abort: undo all changes in reverse order, each at its original
    /// row id.
    pub fn abort(mut self) -> Result<()> {
        self.undo()
    }

    fn undo(&mut self) -> Result<()> {
        while let Some((rel, delta)) = self.applied.pop() {
            self.db.undo_delta_exact(&rel, &delta)?;
        }
        Ok(())
    }

    /// Number of changes applied so far.
    pub fn change_count(&self) -> usize {
        self.applied.len()
    }
}

impl Drop for Transaction<'_> {
    /// Undo whatever was applied and not committed (a committed or
    /// aborted transaction has nothing left to undo).
    fn drop(&mut self) {
        // Each inverse targets the exact slot its delta just wrote, so
        // this cannot fail; a drop must not panic in any case (it may run
        // while a panic unwinds), and `abort` is the form that reports.
        let _ = self.undo();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmv_index::IndexDef;
    use pmv_storage::{tuple, Column, ColumnType, Schema, Value};

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
        db.create_index(IndexDef::hash("r", vec![0])).unwrap();
        db
    }

    #[test]
    fn commit_groups_deltas_by_relation() {
        let mut db = db();
        let mut txn = Transaction::begin(&mut db);
        let row = txn.insert("r", tuple![1i64, 10i64]).unwrap();
        txn.update("r", row, tuple![1i64, 11i64]).unwrap();
        let batches = txn.commit();
        assert_eq!(batches.len(), 1);
        assert_eq!(batches[0].relation(), "r");
        assert_eq!(batches[0].len(), 2);
        assert_eq!(db.len("r").unwrap(), 1);
    }

    /// `abort` and a drop without `commit` both restore the content, the
    /// indexes and each row's original slot.
    #[test]
    fn abort_and_drop_restore_content_and_indexes() {
        for abort in [true, false] {
            let mut db = db();
            let kept = match db.insert("r", tuple![7i64, 70i64]).unwrap() {
                Delta::Insert { row, .. } => row,
                _ => unreachable!(),
            };
            let mut txn = Transaction::begin(&mut db);
            txn.insert("r", tuple![1i64, 10i64]).unwrap();
            txn.delete("r", kept).unwrap();
            if abort {
                txn.abort().unwrap();
            } else {
                drop(txn);
            }
            assert_eq!(db.len("r").unwrap(), 1);
            assert_eq!(db.get("r", kept).unwrap(), tuple![7i64, 70i64]);
            // The kept tuple is back and indexed.
            let idx = db.index_on("r", &[0]).unwrap();
            use pmv_index::SecondaryIndex;
            assert_eq!(
                idx.get(&pmv_index::IndexKey::single(Value::Int(7))).len(),
                1
            );
            assert_eq!(
                idx.get(&pmv_index::IndexKey::single(Value::Int(1))).len(),
                0
            );
        }
    }

    #[test]
    fn abort_undoes_updates() {
        let mut db = db();
        let row = match db.insert("r", tuple![5i64, 50i64]).unwrap() {
            Delta::Insert { row, .. } => row,
            _ => unreachable!(),
        };
        let mut txn = Transaction::begin(&mut db);
        txn.update("r", row, tuple![5i64, 99i64]).unwrap();
        txn.update("r", row, tuple![6i64, 99i64]).unwrap();
        txn.abort().unwrap();
        assert_eq!(db.get("r", row).unwrap(), tuple![5i64, 50i64]);
    }

    #[test]
    fn mixed_insert_delete_transaction() {
        let mut db = db();
        // Pre-populate.
        let mut rows = Vec::new();
        for i in 0..5i64 {
            match db.insert("r", tuple![i, i * 10]).unwrap() {
                Delta::Insert { row, .. } => rows.push(row),
                _ => unreachable!(),
            }
        }
        // The Section 4.3 transaction shape: p inserts, (1-p) deletes.
        let mut txn = Transaction::begin(&mut db);
        txn.insert("r", tuple![100i64, 1i64]).unwrap();
        txn.insert("r", tuple![101i64, 1i64]).unwrap();
        txn.delete("r", rows[0]).unwrap();
        assert_eq!(txn.change_count(), 3);
        let batches = txn.commit();
        assert_eq!(batches[0].inserted_tuples().count(), 2);
        assert_eq!(batches[0].deleted_tuples().count(), 1);
        assert_eq!(db.len("r").unwrap(), 6);
    }
}
