//! Integration test: a generated TPC-R database round-trips through the
//! one database image format — a durable checkpoint — and recovery
//! brings back identical query behaviour.

use std::sync::Arc;

use pmv::core::ObsRegistry;
use pmv::prelude::*;
use pmv::workload::queries::{t1_query, template_t1};
use pmv::workload::tpcr::{self, TpcrConfig};

const SCALE: f64 = 0.002;
const RELATIONS: [&str; 3] = ["customer", "orders", "lineitem"];
const DATES: [i64; 4] = [0, 100, 500, 1000];

fn supplier_for(date: i64) -> i64 {
    (date * 31).rem_euclid(tpcr::supplier_count(SCALE)) + 1
}

/// What must survive recovery: every relation's cardinality and T1's
/// sorted answer for each of `DATES`. Every probe must find an index.
fn image(db: &Database) -> (Vec<usize>, Vec<Vec<Tuple>>) {
    let lens = RELATIONS.iter().map(|r| db.len(r).unwrap()).collect();
    let t1 = template_t1(db).unwrap();
    let answers = DATES
        .iter()
        .map(|&date| {
            let q = t1_query(&t1, &[date], &[supplier_for(date)]).unwrap();
            let (mut rows, stats) = pmv::query::execute(db, &q).unwrap();
            assert_eq!(stats.fallback_scans, 0, "date {date}: an index was missing");
            rows.sort();
            rows
        })
        .collect();
    (lens, answers)
}

#[test]
fn tpcr_snapshot_roundtrip_preserves_query_results() {
    let dir = std::env::temp_dir().join(format!("pmv_tpcr_checkpoint_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let open = || EpochDb::open_durable(&dir, Arc::new(ObsRegistry::new())).unwrap();

    let (edb, _) = open();
    edb.with_write(|db| {
        tpcr::generate(
            db,
            &TpcrConfig {
                scale: SCALE,
                seed: 31,
                pad: false,
                date_supplier_pool: Some(2),
            },
        )?;
        tpcr::standard_indexes(db)
    })
    .unwrap();
    // A bulk load bypasses the WAL: only the checkpoint carries it.
    let ckpt = edb.checkpoint(Vec::new()).unwrap();
    // The image is deterministic, so its size is exact: 15 300 rows of
    // 152 164 packed bytes in all — five values each, behind three tag
    // bytes — each behind a one-byte length, and the frames, schemas and
    // trailer around them.
    assert_eq!(std::fs::metadata(&ckpt).unwrap().len(), 229_637);
    let before = image(&edb.read());
    drop(edb);
    let hot = before.1.iter().position(|rows| !rows.is_empty());
    let hot = hot.expect("some T1 binding must have results");

    let (edb, meta) = open();
    let info = edb.durability().unwrap().recovery_info().clone();
    assert!(
        info.checkpoint_found && info.replayed_records == 0,
        "{info:?}"
    );
    assert!(meta.views.is_empty());
    assert_eq!(image(&edb.read()), before);

    // A PMV over the recovered database fills on the first query and
    // serves partials on the second, with nothing stale.
    let t1 = template_t1(&edb.read()).unwrap();
    let def = PartialViewDef::all_equality("ckpt_pmv", t1.clone()).unwrap();
    let pmv = SharedPmv::new(def, PmvConfig::default());
    let date = DATES[hot];
    let q = t1_query(&t1, &[date], &[supplier_for(date)]).unwrap();
    let cold = edb.query(&pmv, &q).unwrap();
    let warm = edb.query(&pmv, &q).unwrap();
    assert!(cold.partial.is_empty());
    assert!(!warm.partial.is_empty(), "warm query served no partials");
    assert_eq!(warm.all_results().len(), before.1[hot].len());
    assert_eq!(cold.ds_leftover, 0);
    assert_eq!(warm.ds_leftover, 0);
    drop(edb);
    std::fs::remove_dir_all(&dir).ok();
}
