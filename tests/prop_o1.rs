//! Property tests for Operation O1 (Section 3.3): for arbitrary valid
//! queries, the generated condition parts must
//!   1. be pairwise disjoint,
//!   2. cover exactly the query's `Cselect`,
//!   3. each be contained in its containing bcp,
//!   4. have `is_basic` set iff the part equals its bcp.
//!
//! A part carries only its bcp, so what it asks for in each dimension is
//! derived here ([`part_dims`]) from the bcp and the query.

use pmv::core::{decompose, BcpDim, ConditionPart, Discretizer, PartialViewDef};
use pmv::prelude::*;
use pmv::query::{Interval, QueryInstance};
use proptest::prelude::*;
use std::sync::Arc;

/// What a condition part asks for in one dimension.
#[derive(Debug)]
enum PartDim {
    Eq(Value),
    Iv(Interval),
}

impl PartDim {
    fn matches(&self, v: &Value) -> bool {
        match self {
            PartDim::Eq(x) => v == x,
            PartDim::Iv(iv) => iv.contains(v),
        }
    }
}

/// Each part's per-dimension constraint: its bcp's value in an equality
/// dimension; in an interval dimension, the bcp's basic interval clipped
/// by the query interval that produced the part. Parts sharing a bcp
/// differ only there, one per query interval overlapping the basic
/// interval, in query order: the k-th such part takes the k-th.
fn part_dims(
    def: &PartialViewDef,
    q: &QueryInstance,
    parts: &[ConditionPart],
) -> Vec<Vec<PartDim>> {
    parts
        .iter()
        .enumerate()
        .map(|(n, p)| {
            let rank = parts[..n].iter().filter(|o| o.bcp == p.bcp).count();
            def.bcp_dims(&p.bcp)
                .iter()
                .zip(q.conds())
                .enumerate()
                .map(|(i, (dim, cond))| match (dim, cond) {
                    (BcpDim::Eq(v), _) => PartDim::Eq(v.clone()),
                    (BcpDim::Iv(id), Condition::Intervals(ivs)) => {
                        let basic = def.discretizer(i).unwrap().interval_of(*id);
                        let frag = ivs.iter().filter_map(|iv| basic.intersect(iv)).nth(rank);
                        PartDim::Iv(frag.expect("one query interval per part of a bcp"))
                    }
                    other => panic!("interval dimension for {other:?}"),
                })
                .collect()
        })
        .collect()
}

/// Whether an `Ls'` tuple lies inside a part with constraints `dims`.
fn contains(def: &PartialViewDef, dims: &[PartDim], tuple: &Tuple) -> bool {
    dims.iter()
        .enumerate()
        .all(|(i, d)| d.matches(tuple.get(def.template().cond_position(i))))
}

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
        let dims = part_dims(&def, &q, &parts);

        // Probe a dense grid of (f, g) points.
        for f in 0..10i64 {
            for g in -45..45i64 {
                let tup = pmv::storage::Tuple::new(vec![
                    Value::Int(0),
                    Value::Int(f),
                    Value::Int(g),
                ]);
                let n_parts = dims.iter().filter(|d| contains(&def, d, &tup)).count();
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

        for (p, d) in parts.iter().zip(&dims) {
            // (3) containment in the bcp & (4) is_basic correctness.
            let disc = def.discretizer(1).unwrap();
            match (&def.bcp_dims(&p.bcp)[1], &d[1]) {
                (BcpDim::Iv(id), PartDim::Iv(frag)) => {
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
        let dims = part_dims(&def, &q, &parts);
        let tup = pmv::storage::Tuple::new(vec![Value::Int(0), Value::Int(f), Value::Int(g)]);
        let holder: Vec<_> = parts
            .iter()
            .zip(&dims)
            .filter(|(_, d)| contains(&def, d, &tup))
            .map(|(p, _)| p)
            .collect();
        prop_assert_eq!(holder.len(), 1, "everything-query must cover any g");
        prop_assert_eq!(&def.bcp_of_tuple(&tup), &holder[0].bcp);
        // The serving path's in-place test picks the same bcp and no other.
        for p in &parts {
            prop_assert_eq!(def.tuple_in_bcp(&tup, &p.bcp), p.bcp == holder[0].bcp);
        }
    }
}
