//! Workload definitions and set-up: TPC-R data, indexes, the T1 partial
//! view over an `EpochDb`, and the harness's own bookkeeping (the bcp
//! universe queries and commits draw from, and a shadow of `lineitem`).

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use pmv_cache::PolicyKind;
use pmv_core::{EpochDb, ObsRegistry, PartialViewDef, PmvConfig, SharedPmv, ViewSpec};
use pmv_query::{DataView, Database, DbSnapshot, QueryTemplate};
use pmv_storage::RowId;
use pmv_workload::queries::template_t1;
use pmv_workload::tpcr::{self, TpcrConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Data seed. Fixed: `--seed` changes only the op sequence.
pub const DATA_SEED: u64 = 0xc0ffee;
/// Result tuples kept per bcp (`F`).
pub const F: usize = 3;
/// Shards of the partial view.
pub const SHARDS: usize = 4;

/// One workload. Op *counts* are constants here, never derived from
/// timing, so every trial of every run replays the same amount of work.
#[derive(Clone, Debug)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    /// TPC-R scale factor (0.02 → 120 k `lineitem`, 0.001 → 6 k).
    pub scale: f64,
    /// Durable `EpochDb`: one WAL append + fsync per commit (the flush
    /// policy is the engine's only one: fsync before publish).
    pub durable: bool,
    /// Zipf skew of the hot bcp of queries and of the rows commits touch.
    pub alpha: f64,
    /// View capacity in bcps (`L`).
    pub l: usize,
    /// Queries per trial.
    pub queries: usize,
    /// One-thread workloads: one commit after this many queries.
    pub queries_per_commit: usize,
    /// `mixed_2t`: commits run on a second thread, in a closed loop,
    /// until the reader's queries of the trial are done.
    pub writer_thread: bool,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
}

/// Length of the writer's commit sequence on `mixed_2t`; it wraps if a
/// trial outlasts it.
pub const WRITER_SEQUENCE: usize = 4096;

const SPECS: [Spec; 4] = [
    Spec {
        name: "read_hot",
        why: "skewed reads, view holds every bcp: all hits, serving path and executor carry the time",
        scale: 0.02,
        durable: false,
        alpha: 1.1,
        l: 8192,
        queries: 6_000,
        queries_per_commit: 500,
        writer_thread: false,
        setups: 2,
    },
    Spec {
        name: "read_churn",
        why: "flat reads over a view 5% of the bcp universe: misses admit, evict and fill",
        scale: 0.02,
        durable: false,
        alpha: 0.6,
        l: 256,
        queries: 5_000,
        queries_per_commit: 500,
        writer_thread: false,
        setups: 2,
    },
    Spec {
        name: "write_wal",
        why: "small durable relation, 8 queries per commit: WAL, maintenance and publish carry commit time",
        scale: 0.001,
        durable: true,
        alpha: 1.1,
        l: 8192,
        queries: 1_600,
        queries_per_commit: 8,
        writer_thread: false,
        setups: 3,
    },
    Spec {
        name: "mixed_2t",
        why: "reader and closed-loop writer on a large relation: copy-on-write, LeftRight and group commit",
        scale: 0.02,
        durable: false,
        alpha: 1.1,
        l: 8192,
        queries: 9_000,
        queries_per_commit: 0,
        writer_thread: true,
        setups: 2,
    },
];

/// All workload names, in `BENCHMARK.json` order.
pub fn workload_names() -> Vec<&'static str> {
    SPECS.iter().map(|s| s.name).collect()
}

/// The workload called `name`. `smoke` shrinks data and counts so all
/// four finish in seconds; the code path is the same, the numbers are
/// not comparable.
pub fn spec(name: &str, smoke: bool) -> Option<Spec> {
    let mut s = SPECS.iter().find(|s| s.name == name)?.clone();
    if smoke {
        s.scale = 0.001;
        // Still enough samples per trial for p99 (1 000) and p50 (20).
        s.queries = if s.writer_thread { 4_000 } else { 1_200 };
        s.queries_per_commit = s.queries_per_commit.min(50);
        if s.l < 1000 {
            s.l = 128; // still ≈ 5 % of the (smaller) universe
        }
        s.setups = 1;
    }
    Some(s)
}

/// Timed parts of one set-up, in seconds. Only calls into the system
/// count; the harness's own bookkeeping is outside.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    pub generate_s: f64,
    pub index_build_s: f64,
    pub register_s: f64,
    pub checkpoint_s: f64,
    /// Added by the caller: the priming trial that fills the view.
    pub prime_s: f64,
}

impl SetupTimes {
    pub fn total_s(&self) -> f64 {
        self.generate_s + self.index_build_s + self.register_s + self.checkpoint_s + self.prime_s
    }
}

/// One `lineitem` row as the harness believes it to be.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShadowRow {
    pub row: RowId,
    pub orderkey: i64,
    pub suppkey: i64,
    pub quantity: i64,
    pub extendedprice: i64,
}

/// A non-empty `(orderdate, suppkey)` bcp and the shadow rows in it.
#[derive(Clone, Debug)]
pub struct Combo {
    pub date: i64,
    pub supp: i64,
    pub rows: Vec<u32>,
}

/// The bcp universe, hottest rank first. The ranking is a fixed shuffle
/// of the data, so it is the same for every `--seed`.
pub struct Universe {
    pub combos: Vec<Combo>,
    pub suppliers: i64,
}

/// A system under test, set up and ready to serve.
pub struct Fixture {
    pub edb: EpochDb,
    pub pmv: SharedPmv,
    pub template: Arc<QueryTemplate>,
    pub def: PartialViewDef,
    pub times: SetupTimes,
    /// Data directory of a durable fixture.
    pub dir: Option<PathBuf>,
}

fn tpcr_config(scale: f64) -> TpcrConfig {
    TpcrConfig {
        scale,
        seed: DATA_SEED,
        pad: false,
        date_supplier_pool: Some(2),
    }
}

const T1_SQL: &str = "select * from orders o, lineitem l where o.orderkey = l.orderkey \
                      and o.orderdate = ? and l.suppkey = ?";

impl Fixture {
    /// Generate the data, build the indexes, register the view, and (on
    /// a durable workload) checkpoint. `dir` is wiped first.
    pub fn build(spec: &Spec, dir: &Path) -> Result<Fixture, String> {
        let mut times = SetupTimes::default();
        let mut load = |db: &mut Database| -> Result<(), String> {
            let t = Instant::now();
            tpcr::generate(db, &tpcr_config(spec.scale)).map_err(|e| e.to_string())?;
            times.generate_s = t.elapsed().as_secs_f64();
            let t = Instant::now();
            tpcr::standard_indexes(db).map_err(|e| e.to_string())?;
            times.index_build_s = t.elapsed().as_secs_f64();
            Ok(())
        };
        let (edb, dir) = if spec.durable {
            let _ = std::fs::remove_dir_all(dir);
            let (edb, _) = EpochDb::open_durable(dir, Arc::new(ObsRegistry::new()))
                .map_err(|e| e.to_string())?;
            edb.with_write(&mut load)?;
            (edb, Some(dir.to_path_buf()))
        } else {
            let mut db = Database::new();
            load(&mut db)?;
            let t = Instant::now();
            let edb = EpochDb::new(db);
            times.register_s += t.elapsed().as_secs_f64();
            (edb, None)
        };

        let t = Instant::now();
        let template = template_t1(&edb.read()).map_err(|e| e.to_string())?;
        let def =
            PartialViewDef::all_equality("pmv_t1", template.clone()).map_err(|e| e.to_string())?;
        let config = PmvConfig::new(F, spec.l, PolicyKind::Clock);
        let pmv = SharedPmv::with_shards(def.clone(), config, SHARDS);
        times.register_s += t.elapsed().as_secs_f64();

        if spec.durable {
            let t = Instant::now();
            edb.checkpoint(vec![ViewSpec {
                name: "pmv_t1".to_string(),
                sql: T1_SQL.to_string(),
                f: F,
                l: spec.l,
                policy: "clock".to_string(),
                shards: SHARDS,
                dividers: vec![None, None],
            }])
            .map_err(|e| e.to_string())?;
            times.checkpoint_s = t.elapsed().as_secs_f64();
        }
        Ok(Fixture {
            edb,
            pmv,
            template,
            def,
            times,
            dir,
        })
    }

    /// Turn the program's own observability on or off, on both registries.
    pub fn set_obs(&self, on: bool) {
        self.pmv.set_obs_enabled(on);
        self.edb.obs().set_enabled(on);
    }
}

/// `orderdate` of every order, indexed by `orderkey` (keys are 1..=n).
fn order_dates(snap: &DbSnapshot) -> Result<Vec<i64>, String> {
    let orders = snap.relation_version("orders").map_err(|e| e.to_string())?;
    let mut dates = vec![0i64; orders.len() + 1];
    for (_, t) in orders.iter() {
        let key = t.get(0).as_int().ok_or("orderkey is not an int")? as usize;
        dates[key] = t.get(2).as_int().ok_or("orderdate is not an int")?;
    }
    Ok(dates)
}

/// Read `lineitem` into the shadow and group it into the bcp universe.
pub fn survey(snap: &DbSnapshot, scale: f64) -> Result<(Vec<ShadowRow>, Universe), String> {
    let dates = order_dates(snap)?;
    let lineitem = snap
        .relation_version("lineitem")
        .map_err(|e| e.to_string())?;
    let mut shadow = Vec::with_capacity(lineitem.len());
    let mut by_bcp: BTreeMap<(i64, i64), Vec<u32>> = BTreeMap::new();
    for (row, t) in lineitem.iter() {
        let int = |i: usize| t.get(i).as_int().ok_or("lineitem column is not an int");
        let r = ShadowRow {
            row,
            orderkey: int(0)?,
            suppkey: int(1)?,
            quantity: int(2)?,
            extendedprice: int(3)?,
        };
        by_bcp
            .entry((dates[r.orderkey as usize], r.suppkey))
            .or_default()
            .push(shadow.len() as u32);
        shadow.push(r);
    }
    let mut combos: Vec<Combo> = by_bcp
        .into_iter()
        .map(|((date, supp), rows)| Combo { date, supp, rows })
        .collect();
    // Which bcps are hot must not follow date order; a fixed shuffle.
    let mut rng = StdRng::seed_from_u64(DATA_SEED);
    for i in (1..combos.len()).rev() {
        combos.swap(i, rng.gen_range(0..=i));
    }
    Ok((
        shadow,
        Universe {
            combos,
            suppliers: tpcr::supplier_count(scale),
        },
    ))
}

/// Order-independent fingerprint of the bcp populations of a snapshot:
/// `(lineitem rows, Σ mix(orderdate, suppkey))`. A size-preserving commit
/// mix must leave it unchanged at every trial boundary.
pub fn population_fingerprint(snap: &DbSnapshot) -> Result<(usize, u64), String> {
    let dates = order_dates(snap)?;
    let lineitem = snap
        .relation_version("lineitem")
        .map_err(|e| e.to_string())?;
    let mut sum = 0u64;
    for (_, t) in lineitem.iter() {
        let key = t.get(0).as_int().ok_or("orderkey is not an int")? as usize;
        let supp = t.get(1).as_int().ok_or("suppkey is not an int")? as u64;
        let x = ((dates[key] as u64) << 32 | supp).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        sum = sum.wrapping_add(x ^ (x >> 29));
    }
    Ok((lineitem.len(), sum))
}
