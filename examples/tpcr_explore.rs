//! Exploring a TPC-R-style warehouse with PMVs: the paper's Section 4.2
//! setting at example scale.
//!
//! Shows templates T1 and T2, a Zipf-skewed analyst workload, the PMV
//! adapting as the hot set shifts, and the "early termination" benefit of
//! Benefit 2 in the introduction: an analyst who refines a query after
//! seeing partial results never pays for full execution.
//!
//! ```bash
//! cargo run --release --example tpcr_explore
//! ```

use pmv::prelude::*;
use pmv::workload::queries::{t1_query, template_t1};
use pmv::workload::tpcr::{self, TpcrConfig};
use pmv::workload::Zipf;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A small warehouse: s = 0.01 → 1.5K customers, 15K orders, 60K
    // lineitems, with date-correlated suppliers so hot cells are dense.
    println!("generating TPC-R data (s = 0.01)…");
    let mut db = Database::new();
    tpcr::generate(
        &mut db,
        &TpcrConfig {
            scale: 0.01,
            seed: 42,
            pad: false,
            date_supplier_pool: Some(2),
        },
    )?;
    tpcr::standard_indexes(&mut db)?;

    let t1 = template_t1(&db)?;
    let def = PartialViewDef::all_equality("t1_pmv", t1.clone())?;
    let pmv = SharedPmv::new(def, PmvConfig::new(3, 5_000, pmv::cache::PolicyKind::TwoQ));
    let edb = EpochDb::new(db);

    // An analyst's workload: dates drawn Zipf-skewed (recent days are
    // hot), suppliers from each date's pool.
    let zipf = Zipf::new(tpcr::NUM_DATES as usize, 1.2);
    let mut rng = StdRng::seed_from_u64(7);
    let n_supp = tpcr::supplier_count(0.01);

    let mut served_early = 0usize;
    let total_queries = 2_000;
    for _ in 0..total_queries {
        let date = zipf.sample(&mut rng) as i64;
        let supp = (date * 31).rem_euclid(n_supp) + 1; // pool member 0
        let q = t1_query(&t1, &[date], &[supp])?;
        let out = edb.query(&pmv, &q)?;
        if !out.partial.is_empty() {
            served_early += 1;
        }
    }
    println!(
        "workload phase 1: {}/{} queries got early partial results \
         (bcp hit probability {:.1}%)",
        served_early,
        total_queries,
        pmv.stats().hit_probability() * 100.0
    );

    // The hot set shifts: the analyst pivots to a different date range.
    // The PMV adapts via its replacement policy.
    pmv.reset_stats();
    let mut served_early = 0usize;
    for _ in 0..total_queries {
        let date = tpcr::NUM_DATES - 1 - zipf.sample(&mut rng) as i64;
        let supp = (date * 31).rem_euclid(n_supp) + 1;
        let q = t1_query(&t1, &[date], &[supp])?;
        let out = edb.query(&pmv, &q)?;
        if !out.partial.is_empty() {
            served_early += 1;
        }
    }
    println!(
        "workload phase 2 (shifted hot set): {}/{} served early, hit {:.1}%",
        served_early,
        total_queries,
        pmv.stats().hit_probability() * 100.0
    );

    // Benefit 2: early termination. The analyst looks at partial results
    // and refines instead of waiting — saving the full execution time.
    let hot_date = zipf.sample(&mut rng) as i64;
    let supp = (hot_date * 31).rem_euclid(n_supp) + 1;
    let q = t1_query(&t1, &[hot_date], &[supp])?;
    edb.query(&pmv, &q)?; // warm
    edb.query(&pmv, &q)?; // 2Q promotion
    let out = edb.query(&pmv, &q)?;
    if out.partial.is_empty() {
        println!("\n(hot cell was empty — rerun with another seed)");
    } else {
        println!(
            "\nearly-termination scenario: {} sample rows arrived after {:?};",
            out.partial.len(),
            out.timings.o2
        );
        println!(
            "an analyst who refines now skips the remaining {:?} of execution",
            out.timings.exec
        );
    }

    println!(
        "\nPMV footprint: {} entries, {} tuples, {:.1} KiB",
        pmv.entry_count(),
        pmv.tuple_count(),
        pmv.byte_size() as f64 / 1024.0
    );
    Ok(())
}
