//! `AnyIndex::probe_many` is `probe`, key by key: the batched B-tree
//! descent may reorder *when* each leaf is read, never *what* a probe
//! returns. Checked slice for slice on bulk-loaded and row-by-row trees
//! and on the hash index, before and after a tail of inserts and removes,
//! for batches with duplicates, misses, more keys than one staging block,
//! and none at all.
//!
//! The fault plan is process-global, so the tests here serialize on one
//! lock (the counting test must see only its own probes).

use std::sync::{Arc, Mutex, MutexGuard};

use pmv_faultinject::{FaultKind, FaultPlan, Site};
use pmv_index::{AnyIndex, BTreeIndex, HashIndex, IndexKey, SecondaryIndex};
use pmv_storage::{RowId, Value};
use proptest::prelude::*;

static TEST_LOCK: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// A small domain of mixed variants, so probes hit, miss and collide.
fn value() -> impl Strategy<Value = Value> {
    prop_oneof![
        1 => Just(Value::Null),
        6 => (-6i64..6).prop_map(Value::Int),
        1 => (-2i64..2).prop_map(|x| Value::from(x as f64 / 2.0)),
        2 => (0usize..3).prop_map(|i| Value::str(["", "a", "ab"][i])),
    ]
}

/// `probe_many(keys)` against `probe(&[key])` for each key, in order.
fn assert_batch_equals_single(idx: &AnyIndex, keys: &[Value], what: &str) -> TestCaseResult {
    let refs: Vec<&Value> = keys.iter().collect();
    // Appends: whatever `out` held stays in front.
    let mut out: Vec<&[RowId]> = vec![&[]];
    idx.probe_many(&refs, &mut out);
    prop_assert_eq!(out.len(), 1 + keys.len(), "{}: one slice per key", what);
    for (key, got) in keys.iter().zip(&out[1..]) {
        let want = idx.probe(std::slice::from_ref(key));
        prop_assert_eq!(*got, want, "{}: key {:?}", what, key);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn probe_many_equals_probe_key_by_key(
        stored in proptest::collection::vec(proptest::collection::vec(value(), 1..3), 0..300),
        composite in any::<bool>(),
        small_order in any::<bool>(),
        tail in proptest::collection::vec((any::<bool>(), value(), 0u32..40), 0..120),
        batch in proptest::collection::vec(value(), 0..200),
    ) {
        let _serial = serial();
        // Mixed one- and two-column keys by default: a one-value probe
        // must find the one-column key and never a composite that starts
        // with the same value. `composite` makes every key two columns —
        // the bcp-index shape — where a one-value probe finds nothing.
        let key = |mut parts: Vec<Value>| {
            if composite && parts.len() == 1 {
                parts.push(Value::Int(0));
            }
            IndexKey::new(parts)
        };
        let pairs: Vec<(IndexKey, RowId)> = stored
            .into_iter()
            .enumerate()
            .map(|(row, parts)| (key(parts), RowId(row as u32)))
            .collect();
        let order = if small_order { 4 } else { 32 };
        let mut grown = BTreeIndex::with_order(order);
        let mut hashed = HashIndex::new();
        for (k, row) in &pairs {
            grown.insert(k.clone(), *row);
            hashed.insert(k.clone(), *row);
        }
        let mut indexes = [
            ("bulk-loaded", AnyIndex::BTree(BTreeIndex::bulk_load_with_order(order, pairs))),
            ("row by row", AnyIndex::BTree(grown)),
            ("hash", AnyIndex::Hash(hashed)),
        ];
        for (what, idx) in &indexes {
            assert_batch_equals_single(idx, &batch, what)?;
            assert_batch_equals_single(idx, &[], what)?;
            if composite {
                let refs: Vec<&Value> = batch.iter().collect();
                let mut out = Vec::new();
                idx.probe_many(&refs, &mut out);
                prop_assert!(out.iter().all(|rows| rows.is_empty()), "{}: composite only", what);
            }
        }

        // Packed leaves split, and a key whose last posting goes is
        // dropped from its leaf.
        for (what, idx) in &mut indexes {
            for (insert, v, row) in &tail {
                let k = key(vec![v.clone()]);
                if *insert {
                    idx.insert(k, RowId(*row));
                } else {
                    idx.remove(&k, RowId(*row));
                }
            }
            assert_batch_equals_single(idx, &batch, what)?;
        }
    }
}

#[test]
fn probe_many_fires_the_probe_site_once_per_key() {
    let _serial = serial();
    let mut tree = BTreeIndex::new();
    let mut hash = HashIndex::new();
    for i in 0..500i64 {
        tree.insert(IndexKey::single(Value::Int(i % 100)), RowId(i as u32));
        hash.insert(IndexKey::single(Value::Int(i % 100)), RowId(i as u32));
    }
    let keys: Vec<Value> = (0..150i64).map(Value::Int).collect();
    let refs: Vec<&Value> = keys.iter().collect();
    for idx in [AnyIndex::BTree(tree), AnyIndex::Hash(hash)] {
        // A rate-0 rule injects nothing and counts invocations.
        let plan = Arc::new(FaultPlan::new(0).with_rule(Site::IndexProbe, FaultKind::Error, 0.0));
        let guard = pmv_faultinject::install(Arc::clone(&plan));
        let mut out = Vec::new();
        idx.probe_many(&refs, &mut out);
        drop(guard);
        assert_eq!(plan.invocations(Site::IndexProbe), keys.len() as u64);
        assert_eq!(out.iter().filter(|rows| rows.len() == 5).count(), 100);
        assert_eq!(out.iter().filter(|rows| rows.is_empty()).count(), 50);
    }
}
