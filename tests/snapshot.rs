//! Integration test: a generated TPC-R database round-trips through a
//! JSON snapshot with identical query behaviour.

use pmv::prelude::*;
use pmv::query::snapshot;
use pmv::workload::queries::{t1_query, template_t1};
use pmv::workload::tpcr::{self, TpcrConfig};

#[test]
fn tpcr_snapshot_roundtrip_preserves_query_results() {
    let mut db = Database::new();
    tpcr::generate(
        &mut db,
        &TpcrConfig {
            scale: 0.002,
            seed: 31,
            pad: false,
            date_supplier_pool: Some(2),
        },
    )
    .unwrap();
    tpcr::standard_indexes(&mut db).unwrap();

    let mut buf = Vec::new();
    snapshot::save(&db, &["customer", "orders", "lineitem"], &mut buf).unwrap();
    let restored = snapshot::load(buf.as_slice()).unwrap();

    for rel in ["customer", "orders", "lineitem"] {
        assert_eq!(db.len(rel).unwrap(), restored.len(rel).unwrap(), "{rel}");
    }

    // Same queries, same answers, still fully indexed.
    let t_orig = template_t1(&db).unwrap();
    let t_rest = template_t1(&restored).unwrap();
    for date in [0i64, 100, 500, 1000] {
        let supp = (date * 31).rem_euclid(tpcr::supplier_count(0.002)) + 1;
        let q1 = t1_query(&t_orig, &[date], &[supp]).unwrap();
        let q2 = t1_query(&t_rest, &[date], &[supp]).unwrap();
        let (mut a, s1) = pmv::query::execute(&db, &q1).unwrap();
        let (mut b, s2) = pmv::query::execute(&restored, &q2).unwrap();
        a.sort();
        b.sort();
        assert_eq!(a, b, "date {date}");
        assert_eq!(s1.fallback_scans, 0);
        assert_eq!(s2.fallback_scans, 0, "restored indexes must be used");
    }

    // A PMV built over the restored database behaves identically.
    let pmv = SharedPmv::with_shards(
        PartialViewDef::all_equality("snap_pmv", t_rest.clone()).unwrap(),
        PmvConfig::default(),
        1,
    );
    let supp = (100i64 * 31).rem_euclid(tpcr::supplier_count(0.002)) + 1;
    let q = t1_query(&t_rest, &[100], &[supp]).unwrap();
    let edb = EpochDb::new(restored);
    let cold = edb.query(&pmv, &q).unwrap();
    let warm = edb.query(&pmv, &q).unwrap();
    assert_eq!(cold.all_results().len(), warm.all_results().len());
    assert_eq!(warm.ds_leftover, 0);
}
