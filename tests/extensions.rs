//! Integration tests for the Section 3.6 extensions: DISTINCT queries,
//! aggregate queries, EXISTS-nested queries, and popularity ranking.

mod common;

use common::{eqt_fixture, eqt_query};
use pmv::core::ext::{
    exists_accelerated, rank_by_popularity, run_aggregate, run_distinct, run_ordered, AggFn,
    AggValue, Direction, GroupBySpec, OrderBy,
};
use pmv::prelude::*;
use std::collections::HashSet;

fn new_pmv(template: &std::sync::Arc<pmv::query::QueryTemplate>) -> SharedPmv {
    SharedPmv::new(
        PartialViewDef::all_equality("ext_pmv", template.clone()).unwrap(),
        PmvConfig::new(3, 32, pmv::cache::PolicyKind::Clock),
    )
}

#[test]
fn distinct_returns_each_tuple_once() {
    let fx = eqt_fixture(120);
    let pmv = new_pmv(&fx.template);
    let edb = EpochDb::new(fx.db);
    let q = eqt_query(&fx.template, &[1, 2, 3], &[0, 1]);

    // Warm so the next run serves partial results too.
    edb.query(&pmv, &q).unwrap();
    let out = run_distinct(&edb, &pmv, &q).unwrap();

    let all = out.all_results();
    let set: HashSet<&Tuple> = all.iter().collect();
    assert_eq!(set.len(), all.len(), "distinct output must not repeat");

    // Same distinct set as the oracle's.
    let (rows, _) = pmv::query::execute(&*edb.read(), &q).unwrap();
    let oracle_set: HashSet<Tuple> = rows.iter().map(|t| fx.template.user_tuple(t)).collect();
    assert_eq!(set.len(), oracle_set.len());
    for t in &all {
        assert!(oracle_set.contains(t));
    }
    // Partial and remaining never overlap.
    let p: HashSet<&Tuple> = out.partial.iter().collect();
    assert!(out.remaining.iter().all(|t| !p.contains(t)));
}

#[test]
fn aggregate_partial_bounds_exact() {
    let fx = eqt_fixture(150);
    let pmv = new_pmv(&fx.template);
    let edb = EpochDb::new(fx.db);
    let q = eqt_query(&fx.template, &[1], &[1]);
    edb.query(&pmv, &q).unwrap();

    // COUNT grouped by r.a (user position 0).
    let spec = GroupBySpec {
        group_by: vec![0],
        agg: AggFn::Count,
    };
    let out = run_aggregate(&edb, &pmv, &q, &spec).unwrap();
    // Partial counts never exceed exact counts.
    for (group, pv) in &out.partial {
        let AggValue::Count(p) = pv else { panic!() };
        let exact = out
            .exact
            .iter()
            .find(|(g, _)| g == group)
            .map(|(_, v)| match v {
                AggValue::Count(n) => *n,
                _ => unreachable!(),
            })
            .expect("partial group must exist in exact groups");
        assert!(*p <= exact, "partial count {p} exceeds exact {exact}");
    }
    // Exact aggregates match a straight recount of the oracle.
    let (rows, _) = pmv::query::execute(&*edb.read(), &q).unwrap();
    let mut truth: std::collections::HashMap<Value, u64> = Default::default();
    for r in &rows {
        let user = fx.template.user_tuple(r);
        *truth.entry(user.get(0).clone()).or_insert(0) += 1;
    }
    assert_eq!(out.exact.len(), truth.len());
    for (group, v) in &out.exact {
        let AggValue::Count(n) = v else { panic!() };
        assert_eq!(truth[group.get(0)], *n);
    }
}

#[test]
fn aggregate_sum_partial_is_lower_bound_for_nonnegative() {
    let fx = eqt_fixture(150);
    let pmv = new_pmv(&fx.template);
    let edb = EpochDb::new(fx.db);
    let q = eqt_query(&fx.template, &[2], &[2]);
    edb.query(&pmv, &q).unwrap();
    // SUM over s.e (user position 1); fixture values are non-negative.
    let spec = GroupBySpec {
        group_by: vec![],
        agg: AggFn::Sum(1),
    };
    let out = run_aggregate(&edb, &pmv, &q, &spec).unwrap();
    if let (Some((_, AggValue::Sum(p))), Some((_, AggValue::Sum(e)))) =
        (out.partial.first(), out.exact.first())
    {
        assert!(p <= e, "partial sum {p} exceeds exact {e}");
    }
}

#[test]
fn exists_fast_path_after_warming() {
    let fx = eqt_fixture(120);
    let pmv = new_pmv(&fx.template);
    let edb = EpochDb::new(fx.db);
    // A subquery with at least one result.
    let q = eqt_query(&fx.template, &[1], &[1]);
    let (rows, _) = pmv::query::execute(&*edb.read(), &q).unwrap();
    assert!(!rows.is_empty(), "fixture must give the subquery results");

    // Cold: slow path executes (and warms the PMV).
    let out = exists_accelerated(&edb, &pmv, &q).unwrap();
    assert!(out.exists);
    assert!(!out.fast_path);

    // Warm: a cached witness answers without execution.
    let out = exists_accelerated(&edb, &pmv, &q).unwrap();
    assert!(out.exists);
    assert!(out.fast_path, "warm EXISTS must take the fast path");

    // A predicate with no results: never a false positive.
    let empty_q = eqt_query(&fx.template, &[999], &[999]);
    let out = exists_accelerated(&edb, &pmv, &empty_q).unwrap();
    assert!(!out.exists);
    assert!(!out.fast_path);
}

#[test]
fn ranking_orders_hot_results_first() {
    let fx = eqt_fixture(120);
    let pmv = new_pmv(&fx.template);
    let edb = EpochDb::new(fx.db);
    let hot = eqt_query(&fx.template, &[1], &[1]);
    let cold = eqt_query(&fx.template, &[2], &[2]);
    // Make (1,1) popular: warm + several hits.
    for _ in 0..5 {
        edb.query(&pmv, &hot).unwrap();
    }
    // One query touching both cells.
    let both = eqt_query(&fx.template, &[1, 2], &[1, 2]);
    let out = edb.query(&pmv, &both).unwrap();
    let ranked = rank_by_popularity(&pmv, &out);
    assert!(!ranked.is_empty());
    // Popularity must be non-increasing.
    for w in ranked.windows(2) {
        assert!(w[0].1 >= w[1].1, "ranking not sorted: {:?}", ranked);
    }
    // The hot cell's tuples lead (its hit count is ≥ 4).
    assert!(ranked[0].1 >= 4, "hot results should lead: {:?}", ranked);
    let _ = edb.query(&pmv, &cold);
}

#[test]
fn order_by_delivers_sorted_prefix_and_total_order() {
    let fx = eqt_fixture(150);
    let pmv = new_pmv(&fx.template);
    let edb = EpochDb::new(fx.db);
    let q = eqt_query(&fx.template, &[1, 2], &[0, 1]);
    edb.query(&pmv, &q).unwrap();

    let order = OrderBy {
        keys: vec![(1, Direction::Asc), (0, Direction::Asc)], // by s.e then r.a
    };
    let out = run_ordered(&edb, &pmv, &q, &order).unwrap();
    // Partial prefix is sorted.
    for w in out.partial_sorted.windows(2) {
        assert_ne!(order.cmp(&w[0], &w[1]), std::cmp::Ordering::Greater);
    }
    // The full answer is totally sorted and matches the oracle multiset.
    for w in out.all_sorted.windows(2) {
        assert_ne!(order.cmp(&w[0], &w[1]), std::cmp::Ordering::Greater);
    }
    let (rows, _) = pmv::query::execute(&*edb.read(), &q).unwrap();
    assert_eq!(out.all_sorted.len(), rows.len());
}

/// The host routes each query to its template's view; the view stays
/// within its own `L` by shedding (evicting) entries, never by refusing
/// to answer.
#[test]
fn host_routes_and_sheds() {
    let fx = eqt_fixture(120);
    let edb = EpochDb::new(fx.db);
    let def = PartialViewDef::all_equality("host_pmv", fx.template.clone()).unwrap();
    edb.register(def, PmvConfig::new(2, 4, PolicyKind::Clock))
        .unwrap();
    for f in 0..7i64 {
        for g in 0..5i64 {
            let q = eqt_query(&fx.template, &[f], &[g]);
            let view = edb.view_for(q.template()).expect("routed by template");
            let out = edb.query(&view, &q).unwrap();
            assert_eq!(out.ds_leftover, 0);
            let (rows, _) = pmv::query::execute(&*edb.read(), &q).unwrap();
            assert_eq!(out.all_results().len(), rows.len());
        }
    }
    let view = edb.view_for(&fx.template).unwrap();
    assert_eq!(view.stats().queries, 35);
    assert!(view.entry_count() <= 4, "{} entries", view.entry_count());
    assert!(view.evictions() > 0, "35 bcps through L = 4 must evict");
}
