//! Property tests tying the two ways an index comes to exist —
//! `BTreeIndex::bulk_load` (what `create_index` runs) and one `insert`
//! per row (what `load` and DML run) — and the laws `IndexKey`'s two
//! shapes must obey for the borrowed probes to find what `insert`
//! stored.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::ops::Bound;

use pmv_index::{BTreeIndex, HashIndex, IndexKey, SecondaryIndex};
use pmv_storage::{RowId, Value};
use proptest::prelude::*;

/// A small domain of mixed variants, so keys collide and cross-variant
/// ordering is exercised.
fn value() -> impl Strategy<Value = Value> {
    prop_oneof![
        1 => Just(Value::Null),
        6 => (-6i64..6).prop_map(Value::Int),
        1 => (-2i64..2).prop_map(|x| Value::from(x as f64 / 2.0)),
        2 => (0usize..3).prop_map(|i| Value::str(["", "a", "ab"][i])),
    ]
}

/// One- and two-column keys, mixed: a prefix must sort before its
/// extensions wherever they meet in one tree.
fn key() -> impl Strategy<Value = IndexKey> {
    proptest::collection::vec(value(), 1..3).prop_map(IndexKey::new)
}

fn bound() -> impl Strategy<Value = Bound<IndexKey>> {
    prop_oneof![
        1 => Just(Bound::Unbounded),
        2 => key().prop_map(Bound::Included),
        2 => key().prop_map(Bound::Excluded),
    ]
}

fn hash_of(x: &(impl Hash + ?Sized)) -> u64 {
    let mut h = DefaultHasher::new();
    x.hash(&mut h);
    h.finish()
}

/// Same answers from every read, postings in the same order.
fn assert_same(
    bulk: &BTreeIndex,
    model: &BTreeIndex,
    probes: &[IndexKey],
    ranges: &[(Bound<IndexKey>, Bound<IndexKey>)],
) -> TestCaseResult {
    bulk.validate();
    model.validate();
    prop_assert_eq!(bulk.key_count(), model.key_count());
    prop_assert_eq!(bulk.entry_count(), model.entry_count());
    for k in probes {
        prop_assert_eq!(bulk.get(k), model.get(k), "get {:?}", k);
        prop_assert_eq!(bulk.get_by_parts(k.parts()), model.get(k), "parts {:?}", k);
    }
    for (lo, hi) in ranges {
        prop_assert_eq!(
            bulk.range(lo.as_ref(), hi.as_ref()),
            model.range(lo.as_ref(), hi.as_ref()),
            "range {:?}..{:?}",
            lo,
            hi
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn bulk_load_equals_inserting_one_by_one(
        keys in proptest::collection::vec(key(), 0..300),
        small_order in any::<bool>(),
        tail in proptest::collection::vec((any::<bool>(), key(), 0u32..40), 0..120),
        probes in proptest::collection::vec(key(), 1..40),
        ranges in proptest::collection::vec((bound(), bound()), 1..12),
    ) {
        // Order 4 builds several internal levels out of a few hundred
        // keys; the default order is the one `create_index` packs.
        let order = if small_order { 4 } else { 32 };
        let pairs: Vec<(IndexKey, RowId)> = keys
            .into_iter()
            .enumerate()
            .map(|(row, k)| (k, RowId(row as u32)))
            .collect();
        let mut model = BTreeIndex::with_order(order);
        for (k, row) in &pairs {
            model.insert(k.clone(), *row);
        }
        let stored: Vec<IndexKey> = pairs.iter().map(|(k, _)| k.clone()).collect();
        let mut bulk = BTreeIndex::bulk_load_with_order(order, pairs);
        assert_same(&bulk, &model, &stored, &ranges)?;
        assert_same(&bulk, &model, &probes, &[])?;

        // A packed leaf splits on its first insert, and removing a key's
        // last posting drops the key: both trees must keep agreeing.
        for (insert, k, row) in tail {
            if insert {
                bulk.insert(k.clone(), RowId(row));
                model.insert(k, RowId(row));
            } else {
                prop_assert_eq!(bulk.remove(&k, RowId(row)), model.remove(&k, RowId(row)));
            }
        }
        assert_same(&bulk, &model, &stored, &ranges)?;
        assert_same(&bulk, &model, &probes, &[])?;
    }

    #[test]
    fn index_key_agrees_with_the_slice_it_borrows_as(
        a in proptest::collection::vec(value(), 0..4),
        b in proptest::collection::vec(value(), 0..4),
        row in 0u32..100,
    ) {
        let (ka, kb) = (IndexKey::new(a.clone()), IndexKey::new(b.clone()));
        prop_assert_eq!(ka.parts(), a.as_slice());
        prop_assert_eq!(ka == kb, a == b);
        prop_assert_eq!(ka.cmp(&kb), a.cmp(&b));
        prop_assert_eq!(hash_of(&ka), hash_of(a.as_slice()));
        if let [v] = a.as_slice() {
            prop_assert_eq!(&ka, &IndexKey::single(v.clone()));
            prop_assert_eq!(hash_of(&ka), hash_of(&IndexKey::single(v.clone())));
        }
        // A prefix sorts before each of its extensions.
        let mut longer = a.clone();
        longer.extend(b.iter().cloned());
        if !b.is_empty() {
            prop_assert!(ka < IndexKey::new(longer));
        }

        // So a borrowed probe finds what `insert` stored, in both shapes.
        let mut hash = HashIndex::new();
        let mut tree = BTreeIndex::with_order(4);
        hash.insert(ka.clone(), RowId(row));
        tree.insert(ka.clone(), RowId(row));
        hash.insert(kb.clone(), RowId(row + 1));
        tree.insert(kb.clone(), RowId(row + 1));
        let want = tree.get(&ka).to_vec();
        prop_assert!(want.contains(&RowId(row)));
        prop_assert_eq!(hash.get_by_parts(&a), hash.get(&ka));
        prop_assert_eq!(hash.get(&ka), want.as_slice());
        prop_assert_eq!(tree.get_by_parts(&a), want.as_slice());
    }
}
