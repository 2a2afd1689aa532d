//! Shared harness for the Section 4.2 experiments (Figures 8, 9, 10).
//!
//! The paper's procedure: build the TPC-R data set, one PMV per template
//! (20K entries), and issue queries whose `Cselect` breaks into exactly
//! `h` basic condition parts, **one of which is PMV-resident**. Each
//! experiment is repeated over many runs; reported numbers are averages.
//!
//! A run here uses a fresh PMV warmed with exactly the hot bcp, so
//! "exactly one of the h bcps is resident" holds by construction.

use std::time::Duration;

use pmv_core::{PartialViewDef, PmvConfig, SharedPmv};
use pmv_query::{Database, QueryInstance};
use pmv_storage::Value;
use pmv_workload::queries::{t1_query, t2_query, template_t1, template_t2, values_including};
use pmv_workload::tpcr::{self, TpcrConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Which template an experiment runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Template {
    /// orders ⋈ lineitem.
    T1,
    /// orders ⋈ lineitem ⋈ customer.
    T2,
}

/// Build the TPC-R database with standard indexes at `scale`.
///
/// Uses a date→supplier pool of 2 so realistic hot `(orderdate, suppkey)`
/// bcps hold well over `F` result tuples, as the Section 4.2 setup
/// requires.
pub fn build_db(scale: f64, seed: u64) -> Database {
    let mut db = Database::new();
    tpcr::generate(
        &mut db,
        &TpcrConfig {
            scale,
            seed,
            pad: false,
            date_supplier_pool: Some(2),
        },
    )
    .expect("generate TPC-R data");
    tpcr::standard_indexes(&mut db).expect("build indexes");
    db
}

/// A hot `(orderdate, suppkey, nationkey)` combination guaranteed to have
/// at least one query result, sampled from the data itself.
pub struct HotCombo {
    /// orderdate of a real order.
    pub date: i64,
    /// suppkey of a lineitem of that order.
    pub supp: i64,
    /// nationkey of the order's customer.
    pub nation: i64,
}

/// Fetch the first tuple matching `key` on the index over column 0 of
/// `relation`.
fn lookup_by_key(db: &Database, relation: &str, key: i64) -> Option<pmv_storage::Tuple> {
    let idx = db
        .index_on(relation, &[0])
        .expect("standard index on key column");
    use pmv_index::SecondaryIndex;
    let rows = idx.get(&pmv_index::IndexKey::single(Value::Int(key)));
    let row = *rows.first()?;
    db.get(relation, row).ok()
}

/// Sample a hot combo by picking a random order and walking its foreign
/// keys through the standard indexes.
pub fn sample_hot(db: &Database, rng: &mut StdRng) -> HotCombo {
    let n_orders = db.len("orders").expect("orders") as i64;
    loop {
        let okey = rng.gen_range(1..=n_orders);
        let Some(order) = lookup_by_key(db, "orders", okey) else {
            continue;
        };
        let date = order.get(2).as_int().expect("orderdate");
        let cust = order.get(1).as_int().expect("custkey");
        let Some(line) = lookup_by_key(db, "lineitem", okey) else {
            continue;
        };
        let supp = line.get(1).as_int().expect("suppkey");
        let Some(customer) = lookup_by_key(db, "customer", cust) else {
            continue;
        };
        let nation = customer.get(1).as_int().expect("nationkey");
        return HotCombo { date, supp, nation };
    }
}

/// Aggregated measurements over the runs of one experiment cell.
/// Durations are **medians** (robust against allocator/scheduler
/// outliers at microsecond scale); counts are means.
#[derive(Clone, Copy, Debug, Default)]
pub struct OverheadSample {
    /// Median overhead of "our techniques" (O1 + O2 + O3 bookkeeping).
    pub overhead: Duration,
    /// Median probe-side overhead only (O1 + O2), which excludes the
    /// result-set-size-dependent O3 bookkeeping.
    pub probe: Duration,
    /// Median full execution time.
    pub exec: Duration,
    /// Mean partial tuples served.
    pub partial_tuples: f64,
    /// Mean executor operations (index probes + range scans + tuples
    /// examined) — the unit count a disk-cost model multiplies.
    pub exec_ops: f64,
    /// Runs measured.
    pub runs: usize,
}

fn median(mut xs: Vec<Duration>) -> Duration {
    xs.sort_unstable();
    xs[xs.len() / 2]
}

/// Parameters for one measurement cell.
#[derive(Clone, Copy, Debug)]
pub struct CellConfig {
    /// Template under test.
    pub template: Template,
    /// Disjunct counts (e, f, g); `g` ignored for T1. `h = e·f(·g)`.
    pub e: usize,
    pub f_disjuncts: usize,
    pub g: usize,
    /// Tuples stored per bcp (`F`).
    pub f_cap: usize,
    /// PMV entries (paper: 20K).
    pub entries: usize,
    /// Measurement repetitions.
    pub runs: usize,
    /// RNG seed.
    pub seed: u64,
}

/// Run one cell: fresh PMV per run, warm exactly the hot bcp, then
/// measure a query with `h` bcps of which exactly the hot one is
/// resident.
pub fn measure_cell(db: &Database, cfg: &CellConfig) -> OverheadSample {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let (t, def) = match cfg.template {
        Template::T1 => {
            let t = template_t1(db).expect("T1");
            let def = PartialViewDef::all_equality("pmv_t1", t.clone()).expect("def");
            (t, def)
        }
        Template::T2 => {
            let t = template_t2(db).expect("T2");
            let def = PartialViewDef::all_equality("pmv_t2", t.clone()).expect("def");
            (t, def)
        }
    };
    let scale_supp = tpcr::supplier_count(estimate_scale(db));

    let mut overheads = Vec::with_capacity(cfg.runs);
    let mut probes = Vec::with_capacity(cfg.runs);
    let mut execs = Vec::with_capacity(cfg.runs);
    let mut total = OverheadSample::default();
    for run in 0..cfg.runs {
        // One shard: a Fig. 8–10 cell means exactly `entries` bcps.
        let pmv = SharedPmv::with_shards(
            def.clone(),
            PmvConfig::new(cfg.f_cap, cfg.entries, pmv_cache::PolicyKind::Clock),
            1,
        );
        let hot = sample_hot(db, &mut rng);
        // Warm: make the hot bcp resident with its (≤ F) tuples.
        let warm_q = build_query(&t, cfg.template, &[hot.date], &[hot.supp], &[hot.nation]);
        pmv.run(db, &warm_q).expect("warm query");

        // Measured query: hot value in each dimension + random fillers.
        let dates = values_including(&mut rng, tpcr::NUM_DATES, cfg.e, hot.date);
        let supps = values_including(&mut rng, scale_supp, cfg.f_disjuncts, hot.supp);
        let nations = values_including(&mut rng, tpcr::NUM_NATIONS, cfg.g.max(1), hot.nation);
        let q = build_query(&t, cfg.template, &dates, &supps, &nations);
        let out = pmv.run(db, &q).expect("measured query");
        debug_assert_eq!(out.ds_leftover, 0);
        let _ = run;
        overheads.push(out.timings.overhead());
        probes.push(out.timings.o1 + out.timings.o2);
        execs.push(out.timings.exec);
        total.partial_tuples += out.partial.len() as f64;
        total.exec_ops += (out.exec_stats.index_probes
            + out.exec_stats.range_scans
            + out.exec_stats.tuples_examined) as f64;
    }
    OverheadSample {
        overhead: median(overheads),
        probe: median(probes),
        exec: median(execs),
        partial_tuples: total.partial_tuples / cfg.runs as f64,
        exec_ops: total.exec_ops / cfg.runs as f64,
        runs: cfg.runs,
    }
}

fn build_query(
    t: &std::sync::Arc<pmv_query::QueryTemplate>,
    which: Template,
    dates: &[i64],
    supps: &[i64],
    nations: &[i64],
) -> QueryInstance {
    match which {
        Template::T1 => t1_query(t, dates, supps).expect("bind T1"),
        Template::T2 => t2_query(t, dates, supps, nations).expect("bind T2"),
    }
}

/// Recover the scale factor from the generated orders cardinality.
pub fn estimate_scale(db: &Database) -> f64 {
    db.len("orders").expect("orders") as f64 / 1_500_000.0
}

/// Tiny CLI helper: `--flag value` style lookup over `std::env::args`.
pub fn arg_value(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    let prefix = format!("{name}=");
    args.iter()
        .find_map(|a| a.strip_prefix(&prefix).map(str::to_string))
        .or_else(|| {
            args.iter()
                .position(|a| a == name)
                .and_then(|i| args.get(i + 1).cloned())
        })
}

/// Presence of a bare `--flag`.
pub fn arg_flag(name: &str) -> bool {
    std::env::args().any(|a| a == name)
}
