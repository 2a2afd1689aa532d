//! Integration test: the PMV advisor watches a live workload, its
//! recommendation is instantiated, and the resulting PMV actually serves
//! that workload well.

mod common;

use common::{eqt_fixture, eqt_query};
use pmv::core::{AdvisorConfig, PmvAdvisor};
use pmv::prelude::*;
use pmv::query::Interval;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[test]
fn recommended_pmv_serves_the_observed_workload() {
    let fx = eqt_fixture(300);
    let mut advisor = PmvAdvisor::new();
    let mut rng = StdRng::seed_from_u64(9);

    // Phase 1: observe a skewed workload (f=1 hot).
    let mut workload = Vec::new();
    for _ in 0..100 {
        let f = if rng.gen_bool(0.7) {
            1
        } else {
            rng.gen_range(0..7)
        };
        let q = eqt_query(&fx.template, &[f], &[rng.gen_range(0..5)]);
        advisor.observe(&q);
        workload.push(q);
    }

    // Phase 2: take the recommendation and build the PMV.
    let recs = advisor
        .recommend(&AdvisorConfig {
            min_queries: 10,
            byte_budget: 1 << 20,
            ..Default::default()
        })
        .unwrap();
    assert_eq!(recs.len(), 1);
    let rec = &recs[0];
    assert!(rec.config.l >= 1);
    let pmv = SharedPmv::with_shards(rec.def.clone(), rec.config.clone(), 1);
    let edb = EpochDb::new(fx.db);

    // Phase 3: replay the workload; the recommended PMV gets warm and
    // serves a healthy share of it.
    for q in &workload {
        let out = edb.query(&pmv, q).unwrap();
        assert_eq!(out.ds_leftover, 0);
    }
    assert!(
        pmv.stats().hit_probability() > 0.5,
        "recommended PMV should serve the skewed workload, hit = {}",
        pmv.stats().hit_probability()
    );
}

#[test]
fn advisor_learns_interval_dividers_that_make_queries_basic() {
    // A template with an interval condition; the workload always asks
    // for one of three ranges. The advisor's learned discretizer should
    // turn each range into whole basic condition parts (mean h == 1 on
    // replay).
    let fx = eqt_fixture(100);
    let template = TemplateBuilder::new("iv")
        .relation(fx.db.schema("r").unwrap())
        .relation(fx.db.schema("s").unwrap())
        .join("r", "c", "s", "d")
        .unwrap()
        .select("r", "a")
        .unwrap()
        .cond_eq("s", "g")
        .unwrap()
        .cond_interval("r", "f")
        .unwrap()
        .build()
        .unwrap();
    let ranges = [
        Interval::half_open(0i64, 2i64),
        Interval::half_open(2i64, 5i64),
        Interval::half_open(5i64, 7i64),
    ];
    let mut advisor = PmvAdvisor::new();
    let mut rng = StdRng::seed_from_u64(10);
    for _ in 0..50 {
        let q = template
            .bind(vec![
                Condition::Equality(vec![Value::Int(rng.gen_range(0..5))]),
                Condition::Intervals(vec![ranges[rng.gen_range(0..3)].clone()]),
            ])
            .unwrap();
        advisor.observe(&q);
    }
    let recs = advisor.recommend(&AdvisorConfig::default()).unwrap();
    assert_eq!(recs.len(), 1);
    let def = &recs[0].def;
    let disc = def.discretizer(1).expect("interval cond learned");
    assert_eq!(
        disc.dividers(),
        &[Value::Int(0), Value::Int(2), Value::Int(5), Value::Int(7)]
    );
    // Replaying any workload range decomposes into basic parts only.
    for r in &ranges {
        let q = template
            .bind(vec![
                Condition::Equality(vec![Value::Int(1)]),
                Condition::Intervals(vec![r.clone()]),
            ])
            .unwrap();
        let parts = pmv::core::decompose(def, &q).unwrap();
        assert!(parts.iter().all(|p| p.is_basic), "range {r} not basic");
    }
}
