//! Property tests for the `Value` total order and tuple operations —
//! every PMV structure (B-trees, bcp keys, DS) relies on `Ord`/`Eq`/
//! `Hash` agreeing — and the pinned hashes bcps are placed by.

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
        .prop_map(Value::from),
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

/// What bcps hash to. A view's store chunk and its admission sketch
/// (both Fx) are chosen by `Value`'s hash: a variant byte, then the
/// payload. Changing it moves entries between chunks and changes hit
/// ratios. A `-0.0` or a NaN payload hashes as the canonical
/// value it is built as.
#[test]
fn value_hashes_are_pinned() {
    let golden = [
        (Value::Null, 0x68a9_1412_8e01_e473),
        (Value::Int(0), 0xdc58_fdc2_e5c5_babe),
        (Value::Int(-1), 0x4b94_278e_5a63_8004),
        (Value::Int(i64::MIN), 0x5250_89ce_864e_500f),
        (Value::Int(i64::MAX), 0x2b72_95dd_a0b0_f127),
        (Value::str(""), 0x2949_ea95_f1d5_658c),
        (Value::str("a".repeat(12)), 0x3fa5_9f2c_cba1_6043),
        (Value::str("a".repeat(13)), 0x854f_6642_2794_3e03),
        (Value::from(1.5), 0xb17a_4cbc_4369_d857),
        (Value::from(0.0), 0xc76a_a09f_bfb2_ffdb),
        (Value::from(-0.0), 0xc76a_a09f_bfb2_ffdb),
        (Value::from(f64::NAN), 0x4945_0f0b_b59d_3739),
        (
            Value::from(f64::from_bits(0xfff0_0000_0000_0001)),
            0x4945_0f0b_b59d_3739,
        ),
    ];
    for (v, want) in golden {
        assert_eq!(hash_of(&v), want, "{v:?}");
    }
}
