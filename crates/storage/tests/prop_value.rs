//! Property tests for the `Value` total order and tuple operations —
//! every PMV structure (B-trees, bcp keys, DS) relies on `Ord`/`Eq`/
//! `Hash` agreeing.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use pmv_storage::{Tuple, Value};
use proptest::prelude::*;

fn value_strategy() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<i64>().prop_map(Value::Int),
        // Includes NaN/±0 via special values.
        prop_oneof![
            any::<f64>(),
            Just(f64::NAN),
            Just(-0.0),
            Just(f64::INFINITY),
            Just(f64::NEG_INFINITY)
        ]
        .prop_map(Value::Double),
        "[a-z]{0,8}".prop_map(|s| Value::str(&s)),
    ]
}

fn hash_of(v: &impl Hash) -> u64 {
    let mut h = DefaultHasher::new();
    v.hash(&mut h);
    h.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(500))]

    #[test]
    fn ord_is_total_and_consistent(a in value_strategy(), b in value_strategy(), c in value_strategy()) {
        use std::cmp::Ordering::*;
        // Antisymmetry.
        match a.cmp(&b) {
            Less => prop_assert_eq!(b.cmp(&a), Greater),
            Greater => prop_assert_eq!(b.cmp(&a), Less),
            Equal => {
                prop_assert_eq!(b.cmp(&a), Equal);
                prop_assert_eq!(&a, &b);
            }
        }
        // Transitivity (one representative pattern; sort() below covers
        // the rest via the stdlib's internal checks).
        if a <= b && b <= c {
            prop_assert!(a <= c);
        }
        // Eq ⇔ Ordering::Equal.
        prop_assert_eq!(a == b, a.cmp(&b) == Equal);
    }

    #[test]
    fn eq_implies_same_hash(a in value_strategy(), b in value_strategy()) {
        if a == b {
            prop_assert_eq!(hash_of(&a), hash_of(&b));
        }
    }

    #[test]
    fn sorting_values_never_panics(mut vs in proptest::collection::vec(value_strategy(), 0..50)) {
        // A broken Ord makes sort_unstable panic ("comparison method
        // violates its contract") on adversarial inputs.
        vs.sort_unstable();
        for w in vs.windows(2) {
            prop_assert!(w[0] <= w[1]);
        }
    }

    #[test]
    fn tuple_project_concat_roundtrip(
        vals in proptest::collection::vec(value_strategy(), 1..8),
        extra in proptest::collection::vec(value_strategy(), 0..4),
    ) {
        let t = Tuple::new(vals.clone());
        let joined = Tuple::new([vals.as_slice(), extra.as_slice()].concat());
        prop_assert_eq!(joined.arity(), vals.len() + extra.len());
        // Projecting the original positions recovers t.
        let positions: Vec<usize> = (0..vals.len()).collect();
        prop_assert_eq!(joined.project(&positions), t);
        // Identity projection.
        let all: Vec<usize> = (0..joined.arity()).collect();
        prop_assert_eq!(&joined.project(&all), &joined);
    }

    #[test]
    fn tuple_hash_agrees_with_eq(
        vals in proptest::collection::vec(value_strategy(), 0..6)
    ) {
        let a = Tuple::new(vals.clone());
        let b = Tuple::new(vals);
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(hash_of(&a), hash_of(&b));
    }
}
