//! Deterministic kill-point crash/recovery matrix.
//!
//! Each case runs a seeded workload of durable commits —
//! interleaved with checkpoints — against an [`EpochDb`] whose disk I/O
//! is routed through `pmv_wal::dio`, with a one-shot fault armed at one
//! disk site (`wal.append`, `wal.fsync`, `ckpt.write`, `ckpt.rename`,
//! `wal.truncate`). [`FaultKind::CrashPoint`] rules simulate `kill -9`:
//! the process state is torn down mid-operation (an unwind the harness
//! catches via [`is_crash_panic`]) and the directory is reopened as a
//! fresh process would. The oracle then asserts the recovery contract:
//!
//! * the recovered heap equals, RowId for RowId, the in-memory shadow
//!   database advanced to exactly `durable_lsn` commits — no committed
//!   transaction lost, no uncommitted delta visible;
//! * every acked commit is within the durable prefix
//!   (`acked <= durable_lsn <= attempted`);
//! * a PMV registered on the recovered database serves every query with
//!   `ds_leftover == 0` (revalidation-clean);
//! * the engine accepts new commits after recovery.
//!
//! Survivable faults ([`FaultKind::Io`], [`FaultKind::TornWrite`]) take
//! the same matrix slots without killing the process: the commit must
//! fail with `CoreError::Durability`, roll back, and leave the engine
//! serving the pre-fault state.
//!
//! Honors `PMV_CRASH_SEED=<u64>` (the CI `crash-recovery` job runs a
//! seed matrix); defaults to 42.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::{Arc, Mutex, Once};

use pmv_cache::PolicyKind;
use pmv_core::{CoreError, EpochDb, PartialViewDef, PmvConfig, SharedPmv};
use pmv_faultinject::{install, is_crash_panic, is_injected_panic, FaultKind, FaultPlan, Site};
use pmv_index::IndexDef;
use pmv_obs::ObsRegistry;
use pmv_query::{Condition, Database, TemplateBuilder, Transaction};
use pmv_storage::{tuple, Column, ColumnType, RowId, Schema, Tuple, Value};

/// The fault plan is process-global; serialize the matrix cases.
static TEST_LOCK: Mutex<()> = Mutex::new(());

fn install_quiet_panic_hook() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .map(|s| is_injected_panic(s))
                .or_else(|| {
                    info.payload()
                        .downcast_ref::<&str>()
                        .map(|s| is_injected_panic(s))
                })
                .unwrap_or(false);
            if !injected {
                default(info);
            }
        }));
    });
}

fn seed_from_env() -> u64 {
    std::env::var("PMV_CRASH_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42)
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn schema() -> Schema {
    Schema::new(
        "r",
        vec![
            Column::new("a", ColumnType::Int),
            Column::new("f", ColumnType::Int),
        ],
    )
}

/// One workload step, decided against the shadow state so the durable
/// and shadow databases always receive identical operations.
#[derive(Clone, Debug)]
enum Op {
    Insert(i64),
    Delete(RowId),
    Update(RowId, i64),
}

fn next_op(rng: &mut u64, shadow: &Database) -> Op {
    let live: Vec<RowId> = {
        let rel = shadow.relation("r").unwrap();
        rel.iter().map(|(row, _)| row).collect()
    };
    let roll = splitmix(rng);
    let val = (splitmix(rng) % 1000) as i64;
    if live.is_empty() || roll.is_multiple_of(3) {
        Op::Insert(val)
    } else if roll % 3 == 1 {
        Op::Delete(live[(splitmix(rng) as usize) % live.len()])
    } else {
        Op::Update(live[(splitmix(rng) as usize) % live.len()], val)
    }
}

fn apply_shadow(shadow: &mut Database, op: &Op) {
    let mut txn = Transaction::begin(shadow);
    match op {
        Op::Insert(v) => {
            txn.insert("r", tuple![*v, *v % 10]).unwrap();
        }
        Op::Delete(row) => {
            txn.delete("r", *row).unwrap();
        }
        Op::Update(row, v) => {
            txn.update("r", *row, tuple![*v, *v % 10]).unwrap();
        }
    }
    txn.commit();
}

fn commit_durable(edb: &EpochDb, op: Op) -> Result<(), CoreError> {
    edb.commit(&[], move |db| {
        let mut txn = Transaction::begin(db);
        match &op {
            Op::Insert(v) => {
                txn.insert("r", tuple![*v, *v % 10])?;
            }
            Op::Delete(row) => {
                txn.delete("r", *row)?;
            }
            Op::Update(row, v) => {
                txn.update("r", *row, tuple![*v, *v % 10])?;
            }
        }
        Ok(((), txn.commit()))
    })
}

fn dump(db: &Database) -> Vec<(u32, Tuple)> {
    let rel = db.relation("r").unwrap();
    let mut rows: Vec<(u32, Tuple)> = rel.iter().map(|(row, t)| (row.0, t.clone())).collect();
    rows.sort_by_key(|(row, _)| *row);
    rows
}

fn dump_epoch(edb: &EpochDb) -> Vec<(u32, Tuple)> {
    let guard = edb.read();
    let rel = guard.relation("r").unwrap();
    let mut rows: Vec<(u32, Tuple)> = rel.iter().map(|(row, t)| (row.0, t.clone())).collect();
    rows.sort_by_key(|(row, _)| *row);
    rows
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("pmv_crash_matrix").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Register a PMV over the recovered database and check every equality
/// class answers with `ds_leftover == 0` — the serving-path equivalent
/// of a clean revalidation (the cold store under-serves, never lies).
fn assert_serving_clean(edb: &EpochDb) {
    let template = {
        let guard = edb.read();
        TemplateBuilder::new("t")
            .relation(guard.schema("r").unwrap())
            .select("r", "a")
            .unwrap()
            .cond_eq("r", "f")
            .unwrap()
            .build()
            .unwrap()
    };
    let def = PartialViewDef::all_equality("recovered", template.clone()).unwrap();
    let pmv = SharedPmv::new(def, PmvConfig::new(4, 16, PolicyKind::Clock));
    for f in 0..10i64 {
        let q = template
            .bind(vec![Condition::Equality(vec![Value::Int(f)])])
            .unwrap();
        let out = edb.query(&pmv, &q).unwrap();
        assert_eq!(out.ds_leftover, 0, "recovered serving must dedup cleanly");
    }
    pmv.debug_validate();
}

/// Run one matrix case. Returns a human-readable outcome tag (asserts
/// internally).
fn run_case(name: &str, seed: u64, site: Site, kind: FaultKind, nth: u64) -> &'static str {
    const STEPS: usize = 24;
    const CKPT_EVERY: usize = 8;

    let dir = tmp_dir(name);
    let obs = Arc::new(ObsRegistry::new());
    let (edb, _) = EpochDb::open_durable(&dir, obs).unwrap();
    edb.with_write(|db| {
        db.create_relation(schema()).unwrap();
        db.create_index(IndexDef::btree("r", vec![1])).unwrap();
        for i in 0..20i64 {
            db.insert("r", tuple![i, i % 10]).unwrap();
        }
    });
    // Baseline checkpoint makes the setup durable before faults arm.
    edb.checkpoint(Vec::new()).unwrap();

    let mut shadow = Database::new();
    shadow.create_relation(schema()).unwrap();
    shadow.create_index(IndexDef::btree("r", vec![1])).unwrap();
    for i in 0..20i64 {
        shadow.insert("r", tuple![i, i % 10]).unwrap();
    }
    // `states[k]` is the heap content after k durable commits.
    let mut states: Vec<Vec<(u32, Tuple)>> = vec![dump(&shadow)];

    let mut rng = seed ^ (site as u64).wrapping_mul(0x1000_0001);
    let plan_guard = install(Arc::new(FaultPlan::new(seed).with_rule_at(site, kind, nth)));

    let mut acked = 0u64;
    let mut pending: Option<Op> = None;
    let crash = catch_unwind(AssertUnwindSafe(|| {
        for step in 0..STEPS {
            if step > 0 && step % CKPT_EVERY == 0 {
                edb.checkpoint(Vec::new()).unwrap();
                continue;
            }
            let op = next_op(&mut rng, &shadow);
            pending = Some(op.clone());
            match commit_durable(&edb, op.clone()) {
                Ok(()) => {
                    apply_shadow(&mut shadow, &op);
                    states.push(dump(&shadow));
                    acked += 1;
                    pending = None;
                }
                Err(CoreError::Durability(_)) => {
                    // Survivable injected fault: the round rolled back.
                    // The shadow does not advance; the engine must keep
                    // serving the pre-fault state.
                    pending = None;
                    assert_eq!(dump_epoch(&edb), states[acked as usize]);
                }
                Err(e) => panic!("unexpected commit error: {e}"),
            }
        }
    }));
    drop(plan_guard);

    let crashed = match crash {
        Ok(()) => false,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<String>()
                .map(|s| s.as_str())
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("")
                .to_string();
            assert!(
                is_crash_panic(&*payload),
                "only injected crash points may unwind, got: {msg}"
            );
            true
        }
    };

    drop(edb);

    // "Reboot": reopen the directory the way a fresh process would.
    let obs = Arc::new(ObsRegistry::new());
    let (recovered, _) = EpochDb::open_durable(&dir, obs).unwrap();
    let durable = recovered.durability().unwrap().durable_lsn();
    assert!(
        durable >= acked,
        "acked commit lost: acked={acked} durable={durable}"
    );
    // If the in-flight commit's record reached the disk before the
    // crash, recovery legitimately includes it: advance the oracle to
    // match. (An unacked-but-durable commit is a valid prefix
    // extension — exactly what a real crash between write and ack
    // leaves behind.)
    if durable > acked {
        let op = pending
            .take()
            .expect("durable advanced past acked without an in-flight commit");
        apply_shadow(&mut shadow, &op);
        states.push(dump(&shadow));
    }
    assert!(
        (durable as usize) < states.len(),
        "recovered beyond attempted prefix: durable={durable} states={}",
        states.len()
    );
    assert_eq!(
        dump_epoch(&recovered),
        states[durable as usize],
        "recovered heap must equal the shadow at exactly {durable} commits"
    );
    assert_serving_clean(&recovered);

    // The recovered engine accepts new durable commits.
    let op = next_op(&mut rng, &shadow);
    commit_durable(&recovered, op).unwrap();
    assert_eq!(recovered.durability().unwrap().durable_lsn(), durable + 1);

    std::fs::remove_dir_all(&dir).ok();
    if crashed {
        "crashed+recovered"
    } else {
        "completed"
    }
}

#[test]
fn kill_point_matrix() {
    let _guard = TEST_LOCK.lock().unwrap();
    install_quiet_panic_hook();
    let seed = seed_from_env();
    let sites = [
        Site::WalAppend,
        Site::WalFsync,
        Site::CkptWrite,
        Site::CkptRename,
        Site::WalTruncate,
    ];
    let mut crashes = 0;
    for site in sites {
        for nth in [0u64, 2] {
            let name = format!("crash_{}_{nth}_{seed}", site.as_str().replace('.', "_"));
            let outcome = run_case(&name, seed, site, FaultKind::CrashPoint, nth);
            if outcome == "crashed+recovered" {
                crashes += 1;
            }
        }
    }
    // The matrix must actually exercise crashes: every site fires at
    // least for nth=0 on the append/fsync path, and checkpoint sites
    // fire at the first in-loop checkpoint.
    assert!(crashes >= 6, "only {crashes} kill points fired");
}

#[test]
fn survivable_disk_faults_roll_back() {
    let _guard = TEST_LOCK.lock().unwrap();
    install_quiet_panic_hook();
    let seed = seed_from_env();
    for (site, kind, tag) in [
        (Site::WalAppend, FaultKind::TornWrite, "torn"),
        (Site::WalAppend, FaultKind::Io, "io_append"),
        (Site::WalFsync, FaultKind::Io, "io_fsync"),
    ] {
        let name = format!("fault_{tag}_{seed}");
        let outcome = run_case(&name, seed, site, kind, 1);
        assert_eq!(outcome, "completed", "{tag}: faults must not kill");
    }
}

/// A crash between a checkpoint's temp-file write and its rename leaves
/// `ckpt.<lsn>.img.tmp`, whose name no later checkpoint reuses; the next
/// open deletes it, so temp files never accumulate.
#[test]
fn crash_before_rename_leaves_no_temp_file() {
    let _guard = TEST_LOCK.lock().unwrap();
    install_quiet_panic_hook();
    let dir = tmp_dir("tmp_cleanup");
    let temp_files = || {
        let names = std::fs::read_dir(&dir).unwrap();
        names
            .filter(|e| e.as_ref().unwrap().path().extension().unwrap() == "tmp")
            .count()
    };
    let open = || {
        EpochDb::open_durable(&dir, Arc::new(ObsRegistry::new()))
            .unwrap()
            .0
    };

    let edb = open();
    edb.with_write(|db| db.create_relation(schema()).unwrap());
    edb.checkpoint(Vec::new()).unwrap();
    commit_durable(&edb, Op::Insert(1)).unwrap();
    let plan = install(Arc::new(FaultPlan::new(0).with_rule_at(
        Site::CkptRename,
        FaultKind::CrashPoint,
        0,
    )));
    let crash = catch_unwind(AssertUnwindSafe(|| edb.checkpoint(Vec::new())));
    drop(plan);
    assert!(crash.is_err_and(|p| is_crash_panic(&*p)));
    drop(edb);
    assert_eq!(temp_files(), 1, "the crash must leave the temp file");

    let edb = open();
    assert_eq!(temp_files(), 0, "open deletes leftover temp files");
    commit_durable(&edb, Op::Insert(2)).unwrap();
    edb.checkpoint(Vec::new()).unwrap();
    assert_eq!(temp_files(), 0);
    assert_eq!(edb.durability().unwrap().durable_lsn(), 2);
    drop(edb);
    std::fs::remove_dir_all(&dir).ok();
}
