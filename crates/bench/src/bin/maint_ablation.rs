//! Ablation — the Section 3.4 / \[25\] maintenance filter.
//!
//! A mixed delete workload against a warmed PMV, with and without the
//! filter indices on V_PM attributes. The filter should skip the vast
//! majority of ΔR joins (most deleted tuples touch nothing cached in a
//! small PMV), directly supporting the paper's claim that PMV
//! maintenance "mainly performs cheap in-memory operations".

use std::time::Instant;

use pmv_bench::tpcr_harness::{arg_flag, arg_value, build_db};
use pmv_bench::ExperimentReport;
use pmv_cache::PolicyKind;
use pmv_core::{PartialViewDef, PmvConfig, SharedPmv};
use pmv_query::Transaction;
use pmv_storage::Value;
use pmv_workload::queries::{t1_query, template_t1};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    let scale: f64 = arg_value("--scale")
        .and_then(|s| s.parse().ok())
        .unwrap_or(if arg_flag("--quick") { 0.005 } else { 0.02 });
    let deletes: usize = arg_value("--deletes")
        .and_then(|s| s.parse().ok())
        .unwrap_or(1_000);

    let mut report = ExperimentReport::new(
        "maint_ablation",
        format!("Maintenance-filter ablation: {deletes} random lineitem deletes, s={scale}"),
        "filter",
    );

    for use_filter in [false, true] {
        eprintln!("building database (filter={use_filter})…");
        let mut db = build_db(scale, 0xfeed);
        let t1 = template_t1(&db).expect("T1");
        let def = PartialViewDef::all_equality("ablate", t1.clone()).expect("def");
        let mut config = PmvConfig::new(3, 20_000, PolicyKind::Clock);
        config.maint_filter = use_filter;
        let pmv = SharedPmv::with_shards(def, config, 1);
        let mut rng = StdRng::seed_from_u64(99);

        // Warm the PMV over 200 hot queries.
        let n_orders = db.len("orders").unwrap() as i64;
        for _ in 0..200 {
            let okey = rng.gen_range(1..=n_orders);
            let (date, supp) = order_combo(&db, okey);
            let q = t1_query(&t1, &[date], &[supp]).expect("bind");
            pmv.run(&db, &q).expect("warm");
        }

        // Delete random lineitems, maintaining the PMV each time.
        let started = Instant::now();
        let mut joins = 0usize;
        let mut avoided = 0usize;
        let mut removed = 0usize;
        for _ in 0..deletes {
            let handle = db.relation("lineitem").unwrap();
            let row = {
                let guard = handle.read();
                let nth = rng.gen_range(0..guard.len());
                let r = guard.iter().nth(nth).map(|(r, _)| r).unwrap();
                r
            };
            let mut txn = Transaction::begin(&mut db);
            txn.delete("lineitem", row).expect("delete");
            for b in txn.commit() {
                let out = pmv.maintain(&db, &b).expect("maintain");
                joins += out.deletes_joined - out.joins_avoided;
                avoided += out.joins_avoided;
                removed += out.view_tuples_removed;
            }
        }
        let elapsed = started.elapsed();
        report.push(
            if use_filter { "with" } else { "without" },
            vec![
                ("joins_computed".into(), joins as f64),
                ("joins_avoided".into(), avoided as f64),
                ("tuples_evicted".into(), removed as f64),
                ("seconds".into(), elapsed.as_secs_f64()),
            ],
        );
        eprintln!(
            "filter={use_filter}: {joins} joins, {avoided} avoided, {removed} evicted in {elapsed:?}"
        );
    }
    report.print();
}

/// (orderdate, one suppkey) of an order, via the standard indexes.
fn order_combo(db: &pmv_query::Database, okey: i64) -> (i64, i64) {
    use pmv_index::SecondaryIndex;
    let o_idx = db.index_on("orders", &[0]).unwrap();
    let row = o_idx.get(&pmv_index::IndexKey::single(Value::Int(okey)))[0];
    let order = db.get("orders", row).unwrap();
    let date = order.get(2).as_int().unwrap();
    let l_idx = db.index_on("lineitem", &[0]).unwrap();
    let lrows = l_idx.get(&pmv_index::IndexKey::single(Value::Int(okey)));
    let supp = db
        .get("lineitem", lrows[0])
        .unwrap()
        .get(1)
        .as_int()
        .unwrap();
    (date, supp)
}
