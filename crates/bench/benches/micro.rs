//! Criterion microbenchmarks for the hot paths of the PMV method and
//! its substrates, including the DESIGN.md ablations:
//!
//! * bcp-index shape: hash probe vs B+-tree probe (the PMV's index I is
//!   exact-match, so hash should win).
//! * Operation O1 decomposition cost vs h.
//! * Operation O2 probe cost (the "within a millisecond" claim: a probe
//!   must be microseconds).
//! * DS insert/remove cost (per-result-tuple O3 bookkeeping).
//! * Replacement-policy touch/admit cost (CLOCK vs 2Q vs LRU vs LRU-2).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use pmv_cache::{PolicyKind, ReplacementPolicy};
use pmv_core::{decompose, BcpDim, BcpKey, Discretizer, Ds, PartialViewDef, PmvConfig, SharedPmv};
use pmv_index::{BTreeIndex, HashIndex, IndexKey, SecondaryIndex};
use pmv_query::{Condition, Database, TemplateBuilder};
use pmv_storage::{tuple, Column, ColumnType, RowId, Schema, Tuple, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn bench_index_probe(c: &mut Criterion) {
    let mut group = c.benchmark_group("index_probe");
    let n = 100_000;
    let mut hash = HashIndex::new();
    let mut btree = BTreeIndex::new();
    for i in 0..n {
        hash.insert(IndexKey::single(Value::Int(i)), RowId(i as u32));
        btree.insert(IndexKey::single(Value::Int(i)), RowId(i as u32));
    }
    let mut rng = StdRng::seed_from_u64(1);
    let keys: Vec<IndexKey> = (0..1024)
        .map(|_| IndexKey::single(Value::Int(rng.gen_range(0..n))))
        .collect();
    let mut i = 0;
    group.bench_function("hash_get", |b| {
        b.iter(|| {
            i = (i + 1) & 1023;
            black_box(hash.get(&keys[i]))
        })
    });
    group.bench_function("btree_get", |b| {
        b.iter(|| {
            i = (i + 1) & 1023;
            black_box(btree.get(&keys[i]))
        })
    });
    group.finish();
}

fn bench_btree_insert(c: &mut Criterion) {
    c.bench_function("btree_insert_100k", |b| {
        b.iter(|| {
            let mut t = BTreeIndex::new();
            for i in 0..100_000i64 {
                t.insert(IndexKey::single(Value::Int(i)), RowId(i as u32));
            }
            black_box(t.key_count())
        })
    });
}

/// One-relation PMV fixture over equality + interval conditions.
fn fixture() -> (Database, SharedPmv) {
    let mut db = Database::new();
    db.create_relation(Schema::new(
        "r",
        vec![
            Column::new("a", ColumnType::Int),
            Column::new("f", ColumnType::Int),
            Column::new("g", ColumnType::Int),
        ],
    ))
    .unwrap();
    let mut rng = StdRng::seed_from_u64(2);
    db.load(
        "r",
        (0..50_000).map(|i| {
            tuple![
                i as i64,
                rng.gen_range(0..1000i64),
                rng.gen_range(0..10_000i64)
            ]
        }),
    )
    .unwrap();
    db.create_index(pmv_index::IndexDef::btree("r", vec![1]))
        .unwrap();
    db.create_index(pmv_index::IndexDef::btree("r", vec![2]))
        .unwrap();
    let t = TemplateBuilder::new("bench")
        .relation(db.schema("r").unwrap())
        .select("r", "a")
        .unwrap()
        .cond_eq("r", "f")
        .unwrap()
        .cond_interval("r", "g")
        .unwrap()
        .build()
        .unwrap();
    let def = PartialViewDef::new(
        "bench_pmv",
        t,
        vec![None, Some(Discretizer::int_grid(0, 100, 100))],
    )
    .unwrap();
    let pmv = SharedPmv::with_shards(def, PmvConfig::new(3, 20_000, PolicyKind::Clock), 1);
    (db, pmv)
}

fn bench_o1_decompose(c: &mut Criterion) {
    let (_db, pmv) = fixture();
    let mut group = c.benchmark_group("o1_decompose");
    for h in [1usize, 4, 16] {
        let q = pmv
            .def()
            .template()
            .bind(vec![
                Condition::Equality((0..h as i64).map(Value::Int).collect()),
                Condition::Intervals(vec![pmv_query::Interval::half_open(0i64, 100i64)]),
            ])
            .unwrap();
        group.bench_with_input(BenchmarkId::from_parameter(h), &q, |b, q| {
            b.iter(|| black_box(decompose(pmv.def(), q).unwrap().len()))
        });
    }
    group.finish();
}

fn bench_pipeline_hit(c: &mut Criterion) {
    let (db, pmv) = fixture();
    let q = pmv
        .def()
        .template()
        .bind(vec![
            Condition::Equality(vec![Value::Int(1)]),
            Condition::Intervals(vec![pmv_query::Interval::half_open(0i64, 100i64)]),
        ])
        .unwrap();
    // Warm.
    pmv.run(&db, &q).unwrap();
    c.bench_function("pipeline_warm_query", |b| {
        b.iter(|| black_box(pmv.run(&db, &q).unwrap().partial.len()))
    });
}

fn bench_ds(c: &mut Criterion) {
    let tuples: Vec<Tuple> = (0..1000i64).map(|i| tuple![i, i * 3, i * 7]).collect();
    c.bench_function("ds_insert_remove_1k", |b| {
        b.iter(|| {
            let mut ds = Ds::new();
            for t in &tuples {
                ds.insert(t.clone());
            }
            for t in &tuples {
                ds.remove_one(t);
            }
            black_box(ds.is_empty())
        })
    });
}

fn bench_policies(c: &mut Criterion) {
    let mut group = c.benchmark_group("policy_admit_touch");
    for kind in [
        PolicyKind::Clock,
        PolicyKind::TwoQ,
        PolicyKind::TwoQFull,
        PolicyKind::Lru,
        PolicyKind::LruK,
    ] {
        group.bench_function(kind.name(), |b| {
            let mut policy: Box<dyn ReplacementPolicy<u64>> = kind.build(4_096);
            let mut rng = StdRng::seed_from_u64(3);
            b.iter(|| {
                let k = rng.gen_range(0..100_000u64);
                policy.touch(&k);
                black_box(policy.admit(k).is_resident())
            })
        });
    }
    group.finish();
}

fn bench_bcp_recovery(c: &mut Criterion) {
    let (_db, pmv) = fixture();
    let t = tuple![5i64, 42i64, 777i64];
    c.bench_function("bcp_of_tuple", |b| {
        b.iter(|| black_box(pmv.def().bcp_of_tuple(&t)))
    });
    let key = BcpKey::new(vec![BcpDim::Eq(Value::Int(42)), BcpDim::Iv(7)]);
    c.bench_function("bcp_key_clone_hash", |b| {
        b.iter(|| {
            let k = key.clone();
            black_box(k.arity())
        })
    });
}

criterion_group!(
    benches,
    bench_index_probe,
    bench_btree_insert,
    bench_o1_decompose,
    bench_pipeline_hit,
    bench_ds,
    bench_policies,
    bench_bcp_recovery
);
criterion_main!(benches);
