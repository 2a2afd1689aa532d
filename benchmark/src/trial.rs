//! One trial: replay the run's op sequence once against the fixture,
//! timing each call into the system and checking what it returns.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::Instant;

use pmv_core::QueryOutcome;
use pmv_query::{DbSnapshot, QueryInstance, Transaction};
use pmv_storage::{RowId, Tuple, Value};

use crate::fixture::{Fixture, ShadowRow};
use crate::ops::{CommitOp, Ops, Step};
use crate::trace::{Span, Tracer, NO_PARENT};

/// Every this-many queries, the answer is compared with the plain
/// executor's on the same snapshot (outside the timed region).
pub const ORACLE_EVERY: usize = 64;

/// Raw measurements of one trial.
#[derive(Default)]
pub struct Trial {
    pub wall_ns: u64,
    pub queries: u64,
    pub commits: u64,
    /// Busy time of each op class: Σ wall around `EpochDb::query` /
    /// `EpochDb::commit`.
    pub query_ns: u64,
    pub commit_ns: u64,
    pub hits: u64,
    pub failed: u64,
    pub oracle_checks: u64,
    pub query_lat: Vec<u32>,
    pub commit_lat: Vec<u32>,
    /// `timings.o1 + timings.o2` of queries that returned a partial tuple.
    pub ttfr: Vec<u32>,
    pub o1_ns: u64,
    pub o2_ns: u64,
    pub exec_ns: u64,
    pub o3_overhead_ns: u64,
    pub parts: u64,
    pub partial_tuples: u64,
    pub results: u64,
    pub tuples_examined: u64,
    pub index_probes: u64,
    /// Σ time inside the commit closure (transaction DML + `commit()`).
    pub apply_ns: u64,
    pub deltas: u64,
}

fn ns32(ns: u128) -> u32 {
    u32::try_from(ns).unwrap_or(u32::MAX)
}

/// Does `out` hold exactly the plain executor's answer on `snap`?
fn oracle_agrees(snap: &DbSnapshot, q: &QueryInstance, out: &QueryOutcome) -> bool {
    let Ok((rows, _)) = pmv_query::execute(snap, q) else {
        return false;
    };
    let mut want: Vec<Tuple> = rows.iter().map(|t| q.template().user_tuple(t)).collect();
    let mut got = out.all_results();
    want.sort_unstable();
    got.sort_unstable();
    want == got
}

impl Trial {
    /// Count a failed op; the first one of a trial says why on stderr.
    fn fail(&mut self, why: std::fmt::Arguments) {
        if self.failed == 0 {
            eprintln!("failed op: {why}");
        }
        self.failed += 1;
    }

    /// Serve one query: time `EpochDb::query`, check the outcome and,
    /// when `check_oracle`, compare the answer with the plain executor's
    /// (outside the timed region). The comparison needs the snapshot the
    /// query ran on, so it happens only if the published epoch is the
    /// same before and after; returns false when it had to be skipped.
    fn serve(
        &mut self,
        fx: &Fixture,
        q: &QueryInstance,
        check_oracle: bool,
        mut tracer: Option<&mut Tracer>,
        parent: u32,
        op_id: u32,
    ) -> bool {
        let epoch_before = check_oracle.then(|| fx.edb.pin().epoch());
        let t0 = Instant::now();
        let res = fx.edb.query(&fx.pmv, q);
        let t1 = Instant::now();
        let out = match res {
            Ok(out) => out,
            Err(e) => {
                self.queries += 1;
                self.fail(format_args!("query returned {e}"));
                return true;
            }
        };
        self.note_query(&out, (t1 - t0).as_nanos());
        if let Some(tr) = tracer.as_deref_mut() {
            tr.push("core.query", t0, t1, parent, op_id);
        }
        let Some(epoch_before) = epoch_before else {
            return true;
        };
        let snap = fx.edb.pin();
        if snap.epoch() != epoch_before {
            return false;
        }
        let c0 = Instant::now();
        self.oracle_checks += 1;
        if !oracle_agrees(&snap, q, &out) {
            self.fail(format_args!("answer differs from the plain executor's"));
        }
        if let Some(tr) = tracer {
            tr.push("query.oracle", c0, Instant::now(), parent, op_id);
        }
        true
    }

    fn note_query(&mut self, out: &QueryOutcome, wall_ns: u128) {
        self.queries += 1;
        self.query_ns += wall_ns as u64;
        self.query_lat.push(ns32(wall_ns));
        self.hits += u64::from(out.bcp_hit);
        if !out.partial.is_empty() {
            self.ttfr
                .push(ns32((out.timings.o1 + out.timings.o2).as_nanos()));
        }
        // A stale tuple served or an unexpected degradation is a failed op.
        if out.ds_leftover != 0 || out.degraded.is_some() {
            self.fail(format_args!(
                "ds_leftover {} degraded {:?}",
                out.ds_leftover, out.degraded
            ));
        }
        self.o1_ns += out.timings.o1.as_nanos() as u64;
        self.o2_ns += out.timings.o2.as_nanos() as u64;
        self.exec_ns += out.timings.exec.as_nanos() as u64;
        self.o3_overhead_ns += out.timings.o3_overhead.as_nanos() as u64;
        self.parts += out.parts as u64;
        self.partial_tuples += out.partial.len() as u64;
        self.results += (out.partial.len() + out.remaining.len()) as u64;
        self.tuples_examined += out.exec_stats.tuples_examined as u64;
        self.index_probes += out.exec_stats.index_probes as u64;
    }
}

/// What a commit closure hands back: where the row lives now, what the
/// row held before (checked against the shadow), and the closure's span.
struct Applied {
    new_row: RowId,
    old: [i64; 4],
    start: Instant,
    end: Instant,
}

/// Run one commit op and bring the shadow up to date.
fn commit_one(
    fx: &Fixture,
    shadow: &mut [ShadowRow],
    op: CommitOp,
    t: &mut Trial,
    tracer: Option<&mut Tracer>,
    parent: u32,
    op_id: u32,
) {
    let believed = shadow[op.row as usize];
    let row = believed.row;
    // Cycles through 1..=50, the generator's range, so values stay valid.
    let new_quantity = believed.quantity % 50 + 1;
    let replace = op.replace;
    let t0 = Instant::now();
    let res = fx.edb.commit(&[&fx.pmv], move |db| {
        let start = Instant::now();
        let mut txn = Transaction::begin(db);
        let (new_row, old) = if replace {
            let old = txn.delete("lineitem", row)?;
            (txn.insert("lineitem", old.clone())?, old)
        } else {
            let old = txn.get("lineitem", row)?;
            let mut values = old.values().to_vec();
            values[2] = Value::Int(new_quantity);
            txn.update("lineitem", row, Tuple::new(values))?;
            (row, old)
        };
        let batches = txn.commit();
        let int = |i: usize| old.get(i).as_int().unwrap_or(i64::MIN);
        let applied = Applied {
            new_row,
            old: [int(0), int(1), int(2), int(3)],
            start,
            end: Instant::now(),
        };
        Ok((applied, batches))
    });
    let t1 = Instant::now();
    let wall = (t1 - t0).as_nanos();
    t.commits += 1;
    t.commit_ns += wall as u64;
    t.commit_lat.push(ns32(wall));
    t.deltas += if replace { 2 } else { 1 };
    match res {
        Ok(a) => {
            t.apply_ns += (a.end - a.start).as_nanos() as u64;
            let want = [
                believed.orderkey,
                believed.suppkey,
                believed.quantity,
                believed.extendedprice,
            ];
            if a.old != want {
                t.fail(format_args!(
                    "row {row:?} held {:?}, shadow says {want:?}",
                    a.old
                ));
            }
            let s = &mut shadow[op.row as usize];
            s.row = a.new_row;
            if !replace {
                s.quantity = new_quantity;
            }
            if let Some(tr) = tracer {
                let c = tr.push("core.commit", t0, t1, parent, op_id);
                tr.push("storage.apply", a.start, a.end, c, op_id);
            }
        }
        Err(e) => t.fail(format_args!("commit returned {e}")),
    }
}

/// Preallocate the latency buffers so a trial never reallocates them.
fn reserve(t: &mut Trial, queries: usize, commits: usize) {
    t.query_lat.reserve(queries);
    t.ttfr.reserve(queries);
    t.commit_lat.reserve(commits);
}

/// One-thread trial: queries and commits interleaved as `ops.steps` says.
pub fn run_single(
    fx: &Fixture,
    ops: &Ops,
    shadow: &mut [ShadowRow],
    mut tracer: Option<&mut Tracer>,
    trial_no: u32,
) -> Trial {
    let mut t = Trial::default();
    reserve(&mut t, ops.queries.len(), ops.commits.len());
    let start = Instant::now();
    let root = match tracer.as_deref_mut() {
        Some(tr) => tr.push("harness.trial", start, start, NO_PARENT, trial_no),
        None => NO_PARENT,
    };
    let op_base = trial_no * ops.steps.len() as u32;
    for (i, step) in ops.steps.iter().enumerate() {
        let op_id = op_base + i as u32;
        match *step {
            Step::Query(qi) => {
                let qi = qi as usize;
                // One thread: nothing commits between the query's pin and
                // the oracle's, so a due check always runs.
                let due = qi.is_multiple_of(ORACLE_EVERY);
                t.serve(
                    fx,
                    &ops.queries[qi],
                    due,
                    tracer.as_deref_mut(),
                    root,
                    op_id,
                );
            }
            Step::Commit(ci) => commit_one(
                fx,
                shadow,
                ops.commits[ci as usize],
                &mut t,
                tracer.as_deref_mut(),
                root,
                op_id,
            ),
        }
    }
    let end = Instant::now();
    t.wall_ns = (end - start).as_nanos() as u64;
    if let Some(tr) = tracer {
        tr.spans[root as usize].end_ns = tr.at(end);
    }
    t
}

/// Two-thread trial: this thread reads `ops.queries`; a second thread
/// commits `ops.commits` in a closed loop until the reader is done.
pub fn run_mixed(
    fx: &Fixture,
    ops: &Ops,
    shadow: &mut [ShadowRow],
    tracer: Option<&mut Tracer>,
    trial_no: u32,
) -> Trial {
    let mut t = Trial::default();
    reserve(&mut t, ops.queries.len(), ops.commits.len());
    let traced = tracer.is_some();
    let origin = Instant::now();
    let stop = AtomicBool::new(false);
    let barrier = Barrier::new(2);
    let op_base = trial_no * (ops.queries.len() + ops.commits.len()) as u32;

    let (writer, thread_spans, start, end) = std::thread::scope(|scope| {
        let handle = scope.spawn(|| {
            let mut w = Trial::default();
            w.commit_lat.reserve(ops.commits.len());
            let mut local = traced.then(|| Tracer::new(origin, 2 * ops.commits.len()));
            barrier.wait();
            let mut i = 0usize;
            // Release/Acquire pair with the reader's store below.
            while !stop.load(Ordering::Acquire) {
                let op_id = op_base + (ops.queries.len() + i) as u32;
                commit_one(
                    fx,
                    shadow,
                    ops.commits[i % ops.commits.len()],
                    &mut w,
                    local.as_mut(),
                    NO_PARENT,
                    op_id,
                );
                i += 1;
            }
            (w, local.map_or_else(Vec::new, |l| l.spans))
        });

        let mut local = traced.then(|| Tracer::new(origin, 2 * ops.queries.len()));
        barrier.wait();
        let start = Instant::now();
        // When the writer publishes during a query whose oracle check is
        // due, the check moves to the next query.
        let mut oracle_due = false;
        for (qi, q) in ops.queries.iter().enumerate() {
            oracle_due |= qi.is_multiple_of(ORACLE_EVERY);
            let op_id = op_base + qi as u32;
            if t.serve(fx, q, oracle_due, local.as_mut(), NO_PARENT, op_id) {
                oracle_due = false;
            }
        }
        let end = Instant::now();
        stop.store(true, Ordering::Release);
        let (w, writer_spans) = handle.join().expect("writer thread panicked");
        let reader_spans: Vec<Span> = local.map_or_else(Vec::new, |l| l.spans);
        (w, [reader_spans, writer_spans], start, end)
    });

    t.wall_ns = (end - start).as_nanos() as u64;
    t.commits = writer.commits;
    t.commit_ns = writer.commit_ns;
    t.commit_lat = writer.commit_lat;
    t.apply_ns = writer.apply_ns;
    t.deltas = writer.deltas;
    t.failed += writer.failed;
    if let Some(tr) = tracer {
        let root = tr.push("harness.trial", start, end, NO_PARENT, trial_no);
        for spans in thread_spans {
            tr.absorb(spans, root);
        }
    }
    t
}
