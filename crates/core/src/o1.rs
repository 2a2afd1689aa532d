//! Operation O1: break a query's `Cselect` into non-overlapping condition
//! parts (Section 3.3).
//!
//! For each condition `Ci` a set `S_i` is formed — the equality values, or
//! the fragments of basic intervals overlapped by the query's intervals —
//! and `Cselect` is broken into the cross product `∏ S_i`. Each resulting
//! condition part is either a basic condition part itself or is contained
//! in exactly one (its *containing* bcp), as in the paper's Figure 5 grid.

use std::borrow::Cow;

use pmv_query::{Condition, QueryInstance};
use pmv_storage::Value;

use crate::bcp::BcpKey;
use crate::view::PartialViewDef;
use crate::{CoreError, Result};

/// A condition part, named by its containing bcp. What the part asks for
/// in each dimension — the bcp's equality value, or the fragment of the
/// bcp's basic interval that one query interval covers — is not kept:
/// serving checks the query's full `Cselect` instead, which is
/// equivalent for the tuples of the containing bcp.
#[derive(Clone, Debug, PartialEq)]
pub struct ConditionPart {
    /// The containing basic condition part.
    pub bcp: BcpKey,
    /// True iff this part *is* its containing bcp (every interval
    /// dimension covers its whole basic interval).
    pub is_basic: bool,
    /// Number (position in [`decompose`]'s output) of the first part
    /// with the same containing bcp — this part's own number, unless two
    /// query intervals fall inside one basic interval. The serving path
    /// keeps what it learns about a bcp under this number, so nothing
    /// there hashes or clones a [`BcpKey`].
    pub bcp_part: usize,
}

/// Per-dimension element used during cross-product construction.
struct DimElement {
    /// The containing bcp's field in this dimension: the equality value,
    /// or the basic interval's id as an `Int`.
    field: Value,
    whole: bool,
    /// Index of the first element of this dimension with the same
    /// `field`.
    first: usize,
}

/// Hard cap on generated condition parts; queries beyond this are
/// malformed for PMV purposes (the paper's h tops out at 10).
pub const MAX_CONDITION_PARTS: usize = 1 << 20;

/// Operation O1: decompose `q`'s `Cselect` into condition parts.
pub fn decompose(def: &PartialViewDef, q: &QueryInstance) -> Result<Vec<ConditionPart>> {
    def.check_instance(q)?;
    let m = q.conds().len();
    let mut per_dim: Vec<Vec<DimElement>> = Vec::with_capacity(m);
    for (i, cond) in q.conds().iter().enumerate() {
        let mut elems = Vec::new();
        match cond {
            Condition::Equality(values) => {
                // Equality values are distinct (checked at bind).
                for (first, v) in values.iter().enumerate() {
                    elems.push(DimElement {
                        field: v.clone(),
                        whole: true,
                        first,
                    });
                }
            }
            Condition::Intervals(intervals) => {
                let d = def
                    .discretizer(i)
                    .expect("interval-form condition has a discretizer (validated at definition)");
                for iv in intervals {
                    for id in d.overlapping_ids(iv) {
                        if let Some((_, whole)) = d.fragment(id, iv) {
                            let field = Value::Int(i64::from(id));
                            let first = elems
                                .iter()
                                .position(|e: &DimElement| e.field == field)
                                .unwrap_or(elems.len());
                            elems.push(DimElement {
                                field,
                                whole,
                                first,
                            });
                        }
                    }
                }
            }
        }
        if elems.is_empty() {
            // A condition with no satisfiable disjunct: the whole query is
            // empty, so there are no condition parts.
            return Ok(Vec::new());
        }
        per_dim.push(elems);
    }

    let total: usize = per_dim.iter().map(Vec::len).product();
    if total > MAX_CONDITION_PARTS {
        return Err(CoreError::Definition(format!(
            "query decomposes into {total} condition parts (cap {MAX_CONDITION_PARTS})"
        )));
    }

    // Cross product ∏ S_i. Each part's key is written straight from its
    // elements' fields.
    let mut parts = Vec::with_capacity(total);
    let mut cursor = vec![0usize; m];
    loop {
        let elems = || cursor.iter().enumerate().map(|(i, &c)| &per_dim[i][c]);
        let mut is_basic = true;
        // The odometer below turns the last dimension fastest, so a part's
        // number is its cursor read as a mixed-radix numeral.
        let mut bcp_part = 0;
        for (e, dim) in elems().zip(&per_dim) {
            is_basic &= e.whole;
            bcp_part = bcp_part * dim.len() + e.first;
        }
        parts.push(ConditionPart {
            bcp: BcpKey::pack(elems().map(|e| Cow::Borrowed(&e.field))),
            is_basic,
            bcp_part,
        });
        // Odometer increment.
        let mut i = m;
        loop {
            if i == 0 {
                return Ok(parts);
            }
            i -= 1;
            cursor[i] += 1;
            if cursor[i] < per_dim[i].len() {
                break;
            }
            cursor[i] = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bcp::{BcpDim, Discretizer};
    use pmv_query::{Interval, QueryTemplate, TemplateBuilder};
    use pmv_storage::{Column, ColumnType, Schema, Tuple, Value};
    use std::sync::Arc;

    /// What each part asks for in the interval dimension (condition 1)
    /// of these tests' template: the basic interval of its bcp clipped by
    /// the query interval that produced it — the k-th query interval
    /// overlapping that basic interval for the k-th part with that bcp.
    fn fragments(d: &PartialViewDef, q: &QueryInstance, parts: &[ConditionPart]) -> Vec<Interval> {
        let Condition::Intervals(ivs) = &q.conds()[1] else {
            panic!("condition 1 is interval-form");
        };
        parts
            .iter()
            .enumerate()
            .map(|(n, p)| {
                let BcpDim::Iv(id) = d.bcp_dims(&p.bcp)[1] else {
                    panic!("an interval condition has an Iv dimension");
                };
                let basic = d.discretizer(1).unwrap().interval_of(id);
                let rank = parts[..n].iter().filter(|o| o.bcp == p.bcp).count();
                ivs.iter()
                    .filter_map(|iv| basic.intersect(iv))
                    .nth(rank)
                    .expect("one query interval per part of a bcp")
            })
            .collect()
    }

    /// Whether `(0, f, g)` lies in the part whose fragment is `frag`.
    fn in_part(p: &ConditionPart, frag: &Interval, tup: &Tuple) -> bool {
        p.bcp.fields().next().unwrap() == *tup.get(1) && frag.contains(tup.get(2))
    }

    fn template() -> Arc<QueryTemplate> {
        TemplateBuilder::new("t")
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

    fn def() -> PartialViewDef {
        PartialViewDef::new(
            "v",
            template(),
            vec![None, Some(Discretizer::int_grid(0, 10, 4))], // dividers 0,10,20,30
        )
        .unwrap()
    }

    #[test]
    fn equality_times_interval_cross_product() {
        let d = def();
        let q = d
            .template()
            .bind(vec![
                Condition::Equality(vec![Value::Int(1), Value::Int(2)]),
                // (5, 25) overlaps basic intervals [0,10), [10,20), [20,30).
                Condition::Intervals(vec![Interval::open(5i64, 25i64)]),
            ])
            .unwrap();
        let parts = decompose(&d, &q).unwrap();
        assert_eq!(parts.len(), 2 * 3);
        // Exactly the middle fragment is a whole basic interval, so parts
        // with bcp dim Iv(2) ([10,20)) are basic.
        let basics: Vec<_> = parts.iter().filter(|p| p.is_basic).collect();
        assert_eq!(basics.len(), 2);
        for b in basics {
            assert_eq!(d.bcp_dims(&b.bcp)[1], BcpDim::Iv(2));
        }
    }

    #[test]
    fn parts_are_pairwise_disjoint() {
        let d = def();
        let q = d
            .template()
            .bind(vec![
                Condition::Equality(vec![Value::Int(1), Value::Int(2)]),
                Condition::Intervals(vec![
                    Interval::open(5i64, 15i64),
                    Interval::open(22i64, 28i64),
                ]),
            ])
            .unwrap();
        let parts = decompose(&d, &q).unwrap();
        let frags = fragments(&d, &q, &parts);
        // Probe a grid of tuples; each must fall in at most one part.
        for f in 0..4i64 {
            for g in -5..40i64 {
                let tup = pmv_storage::tuple![0i64, f, g];
                let n = parts
                    .iter()
                    .zip(&frags)
                    .filter(|(p, frag)| in_part(p, frag, &tup))
                    .count();
                assert!(n <= 1, "tuple (f={f}, g={g}) in {n} parts");
            }
        }
    }

    #[test]
    fn parts_cover_exactly_the_query() {
        let d = def();
        let q = d
            .template()
            .bind(vec![
                Condition::Equality(vec![Value::Int(1)]),
                Condition::Intervals(vec![Interval::closed(5i64, 25i64)]),
            ])
            .unwrap();
        let parts = decompose(&d, &q).unwrap();
        let frags = fragments(&d, &q, &parts);
        for g in -5..40i64 {
            let tup = pmv_storage::tuple![0i64, 1i64, g];
            let in_query = q.matches_select(&tup);
            let in_parts = parts
                .iter()
                .zip(&frags)
                .any(|(p, frag)| in_part(p, frag, &tup));
            assert_eq!(in_query, in_parts, "coverage mismatch at g={g}");
        }
    }

    #[test]
    fn each_part_contained_in_its_bcp() {
        let d = def();
        let q = d
            .template()
            .bind(vec![
                Condition::Equality(vec![Value::Int(9)]),
                Condition::Intervals(vec![Interval::open(-3i64, 33i64)]),
            ])
            .unwrap();
        let parts = decompose(&d, &q).unwrap();
        let frags = fragments(&d, &q, &parts);
        for (p, frag) in parts.iter().zip(&frags) {
            assert_eq!(d.bcp_dims(&p.bcp)[0], BcpDim::Eq(Value::Int(9)));
            let BcpDim::Iv(id) = d.bcp_dims(&p.bcp)[1] else {
                panic!("mismatched dims {:?}", p.bcp);
            };
            // Fragment ⊆ basic interval, and whole exactly when basic.
            let basic = d.discretizer(1).unwrap().interval_of(id);
            assert_eq!(basic.intersect(frag), Some(frag.clone()));
            assert_eq!(p.is_basic, basic == *frag);
        }
    }

    #[test]
    fn whole_basic_interval_marks_basic_part() {
        let d = def();
        let q = d
            .template()
            .bind(vec![
                Condition::Equality(vec![Value::Int(1)]),
                // Exactly [10, 20): one basic part.
                Condition::Intervals(vec![Interval::half_open(10i64, 20i64)]),
            ])
            .unwrap();
        let parts = decompose(&d, &q).unwrap();
        assert_eq!(parts.len(), 1);
        assert!(parts[0].is_basic);
        assert_eq!(d.bcp_dims(&parts[0].bcp)[1], BcpDim::Iv(2));
    }

    #[test]
    fn two_query_intervals_can_share_one_bcp() {
        let d = def();
        let q = d
            .template()
            .bind(vec![
                Condition::Equality(vec![Value::Int(1)]),
                // Both inside basic interval [10, 20).
                Condition::Intervals(vec![
                    Interval::open(11i64, 13i64),
                    Interval::open(15i64, 17i64),
                ]),
            ])
            .unwrap();
        let parts = decompose(&d, &q).unwrap();
        assert_eq!(parts.len(), 2);
        assert_eq!(parts[0].bcp, parts[1].bcp);
        assert!(!parts[0].is_basic && !parts[1].is_basic);
        assert_eq!((parts[0].bcp_part, parts[1].bcp_part), (0, 0));
    }

    #[test]
    fn bcp_part_names_the_first_part_of_each_bcp() {
        let d = def();
        let q = d
            .template()
            .bind(vec![
                Condition::Equality(vec![Value::Int(1), Value::Int(2)]),
                // [10, 20) is hit three times (twice by the last two
                // intervals, once as the tail of the first), [0, 10) once.
                Condition::Intervals(vec![
                    Interval::open(5i64, 12i64),
                    Interval::open(13i64, 15i64),
                    Interval::open(16i64, 18i64),
                ]),
            ])
            .unwrap();
        let parts = decompose(&d, &q).unwrap();
        assert_eq!(parts.len(), 2 * 4);
        for (n, p) in parts.iter().enumerate() {
            let first = parts.iter().position(|o| o.bcp == p.bcp).unwrap();
            assert_eq!(p.bcp_part, first, "part {n}");
        }
        let distinct = parts.iter().enumerate().filter(|(n, p)| p.bcp_part == *n);
        assert_eq!(distinct.count(), 2 * 2);
    }

    #[test]
    fn combination_factor_matches_part_count_for_basic_queries() {
        // When every disjunct is exactly one basic interval or equality
        // value, h = ∏ u_i (the paper's combination factor).
        let d = def();
        let q = d
            .template()
            .bind(vec![
                Condition::Equality(vec![Value::Int(1), Value::Int(2), Value::Int(3)]),
                Condition::Intervals(vec![
                    Interval::half_open(0i64, 10i64),
                    Interval::half_open(20i64, 30i64),
                ]),
            ])
            .unwrap();
        let parts = decompose(&d, &q).unwrap();
        assert_eq!(parts.len(), q.combination_factor());
        assert!(parts.iter().all(|p| p.is_basic));
    }
}
