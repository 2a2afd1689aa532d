//! Property tests on the replacement policies: structural invariants for
//! both, and 2Q's probation discipline.

use pmv::cache::{AdmitOutcome, ClockPolicy, ReplacementPolicy, TwoQPolicy};
use proptest::prelude::*;
use std::collections::HashSet;

#[derive(Clone, Debug)]
enum Op {
    Touch(u16),
    Admit(u16),
    Remove(u16),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        1 => (0u16..40).prop_map(Op::Touch),
        3 => (0u16..40).prop_map(Op::Admit),
        1 => (0u16..40).prop_map(Op::Remove),
    ]
}

fn run_invariant_check(
    mut policy: Box<dyn ReplacementPolicy<u16>>,
    ops: Vec<Op>,
) -> Result<(), TestCaseError> {
    let cap = policy.capacity();
    let mut resident: HashSet<u16> = HashSet::new();
    for op in ops {
        match op {
            Op::Touch(k) => policy.touch(&k),
            Op::Admit(k) => match policy.admit(k) {
                AdmitOutcome::Resident { evicted } => {
                    for e in &evicted {
                        prop_assert!(resident.remove(e), "evicted key {e} was not resident");
                        prop_assert!(!policy.contains(e), "evicted key still resident");
                        prop_assert_ne!(*e, k, "policy evicted the admitted key");
                    }
                    resident.insert(k);
                    prop_assert!(policy.contains(&k));
                }
                AdmitOutcome::Probation => {
                    prop_assert!(!policy.contains(&k) || resident.contains(&k));
                }
            },
            Op::Remove(k) => {
                policy.remove(&k);
                resident.remove(&k);
                prop_assert!(!policy.contains(&k));
            }
        }
        prop_assert!(policy.resident_count() <= cap, "over capacity");
        prop_assert_eq!(policy.resident_count(), resident.len());
        let keys: HashSet<u16> = policy.resident_keys().into_iter().collect();
        prop_assert_eq!(&keys, &resident, "resident set mismatch");
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(150))]

    #[test]
    fn clock_invariants(ops in proptest::collection::vec(op_strategy(), 1..300)) {
        run_invariant_check(Box::new(ClockPolicy::new(8)), ops)?;
    }

    #[test]
    fn two_q_invariants(ops in proptest::collection::vec(op_strategy(), 1..300)) {
        run_invariant_check(Box::new(TwoQPolicy::new(8)), ops)?;
    }

    /// 2Q: a key only becomes resident on its second admit while in A1,
    /// and A1 membership expires FIFO.
    #[test]
    fn two_q_probation_discipline(keys in proptest::collection::vec(0u16..30, 1..200)) {
        let mut q = TwoQPolicy::with_a1_capacity(8, 4);
        let mut admitted_once: Vec<u16> = Vec::new(); // FIFO window of A1
        for k in keys {
            let was_resident = q.contains(&k);
            let in_a1 = q.in_probation(&k);
            let out = q.admit(k);
            if was_resident {
                prop_assert!(out.is_resident());
            } else if in_a1 {
                prop_assert!(out.is_resident(), "second admit in A1 must promote");
                admitted_once.retain(|&x| x != k);
            } else {
                prop_assert_eq!(out, AdmitOutcome::Probation);
                admitted_once.push(k);
                if admitted_once.len() > 4 {
                    admitted_once.remove(0);
                }
            }
            // A1 content matches our FIFO window.
            for &x in &admitted_once {
                prop_assert!(q.in_probation(&x), "key {x} should be in A1");
            }
            prop_assert_eq!(q.probation_len(), admitted_once.len());
        }
    }
}
