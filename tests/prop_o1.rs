//! Property tests for Operation O1 (Section 3.3): for arbitrary valid
//! queries, the generated condition parts must
//!   1. be pairwise disjoint,
//!   2. cover exactly the query's `Cselect`,
//!   3. each be contained in its containing bcp,
//!   4. have `is_basic` set iff the part equals its bcp.

use pmv::core::{decompose, Discretizer, PartDim, PartialViewDef};
use pmv::prelude::*;
use pmv::query::Interval;
use proptest::prelude::*;
use std::sync::Arc;

fn template() -> Arc<pmv::query::QueryTemplate> {
    TemplateBuilder::new("p")
        .relation(Schema::new(
            "r",
            vec![
                Column::new("a", ColumnType::Int),
                Column::new("f", ColumnType::Int),
                Column::new("g", ColumnType::Int),
            ],
        ))
        .select("r", "a")
        .unwrap()
        .cond_eq("r", "f")
        .unwrap()
        .cond_interval("r", "g")
        .unwrap()
        .build()
        .unwrap()
}

/// Random sorted dividers in a small domain.
fn dividers() -> impl Strategy<Value = Vec<i64>> {
    proptest::collection::btree_set(-30i64..30, 1..6).prop_map(|s| s.into_iter().collect())
}

/// Random disjoint half-open intervals: derived from a sorted set of cut
/// points, taking every other gap.
fn disjoint_intervals() -> impl Strategy<Value = Vec<Interval>> {
    proptest::collection::btree_set(-40i64..40, 2..8).prop_map(|cuts| {
        let cuts: Vec<i64> = cuts.into_iter().collect();
        cuts.chunks(2)
            .filter(|c| c.len() == 2 && c[0] < c[1])
            .map(|c| Interval::half_open(c[0], c[1]))
            .collect()
    })
}

fn eq_values() -> impl Strategy<Value = Vec<i64>> {
    proptest::collection::btree_set(0i64..10, 1..4).prop_map(|s| s.into_iter().collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    #[test]
    fn o1_invariants(
        divs in dividers(),
        ivs in disjoint_intervals(),
        eqs in eq_values(),
    ) {
        prop_assume!(!ivs.is_empty());
        let t = template();
        let def = PartialViewDef::new(
            "v",
            Arc::clone(&t),
            vec![None, Some(Discretizer::new(divs.iter().map(|&d| Value::Int(d)).collect()))],
        )
        .unwrap();
        let q = t
            .bind(vec![
                Condition::Equality(eqs.iter().map(|&v| Value::Int(v)).collect()),
                Condition::Intervals(ivs.clone()),
            ])
            .unwrap();
        let parts = decompose(&def, &q).unwrap();
        prop_assert!(!parts.is_empty());

        // Probe a dense grid of (f, g) points.
        for f in 0..10i64 {
            for g in -45..45i64 {
                let tup = pmv::storage::Tuple::new(vec![
                    Value::Int(0),
                    Value::Int(f),
                    Value::Int(g),
                ]);
                let n_parts = parts
                    .iter()
                    .filter(|p| p.contains_tuple(&def, &tup))
                    .count();
                // (1) disjoint and (2) exact coverage.
                let in_query = q.matches_select(&tup);
                prop_assert!(
                    n_parts <= 1,
                    "tuple (f={f}, g={g}) is in {n_parts} parts"
                );
                prop_assert_eq!(
                    n_parts == 1,
                    in_query,
                    "coverage mismatch at (f={}, g={})", f, g
                );
            }
        }

        // (5) `bcp_part` numbers the first part of each containing bcp.
        for (n, p) in parts.iter().enumerate() {
            let first = parts.iter().position(|o| o.bcp == p.bcp).unwrap();
            prop_assert_eq!(p.bcp_part, first, "part {}", n);
        }

        for p in &parts {
            // (3) containment in the bcp & (4) is_basic correctness.
            let disc = def.discretizer(1).unwrap();
            match (&p.bcp.dims()[1], &p.dims[1]) {
                (pmv::core::BcpDim::Iv(id), PartDim::Iv(frag)) => {
                    let basic = disc.interval_of(*id);
                    let clipped = basic.intersect(frag);
                    prop_assert_eq!(
                        clipped.as_ref(),
                        Some(frag),
                        "fragment escapes its basic interval"
                    );
                    let whole = &basic == frag;
                    prop_assert_eq!(p.is_basic, whole);
                }
                other => prop_assert!(false, "unexpected dims {:?}", other),
            }
        }
    }

    /// bcp recovery agrees with decomposition: a tuple matching a part
    /// maps to that part's containing bcp.
    #[test]
    fn bcp_of_tuple_consistent_with_parts(
        divs in dividers(),
        g in -45i64..45,
        f in 0i64..10,
    ) {
        let t = template();
        let def = PartialViewDef::new(
            "v",
            Arc::clone(&t),
            vec![None, Some(Discretizer::new(divs.iter().map(|&d| Value::Int(d)).collect()))],
        )
        .unwrap();
        let q = t
            .bind(vec![
                Condition::Equality(vec![Value::Int(f)]),
                Condition::Intervals(vec![Interval::everything()]),
            ])
            .unwrap();
        let parts = decompose(&def, &q).unwrap();
        let tup = pmv::storage::Tuple::new(vec![Value::Int(0), Value::Int(f), Value::Int(g)]);
        let holder: Vec<_> = parts
            .iter()
            .filter(|p| p.contains_tuple(&def, &tup))
            .collect();
        prop_assert_eq!(holder.len(), 1, "everything-query must cover any g");
        prop_assert_eq!(&def.bcp_of_tuple(&tup), &holder[0].bcp);
        // The serving path's in-place test picks the same bcp and no other.
        for p in &parts {
            prop_assert_eq!(def.tuple_in_bcp(&tup, &p.bcp), p.bcp == holder[0].bcp);
        }
    }
}
