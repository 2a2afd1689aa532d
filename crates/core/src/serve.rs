//! The serving path: Operations O1 → O2 → O3 (Section 3.3), implemented
//! once.
//!
//! * **O1** — break the query's `Cselect` into condition parts
//!   ([`crate::o1::decompose`]).
//! * **O2** — probe the store for each part's containing bcp; matching
//!   cached tuples are returned to the user *immediately* and recorded in
//!   the dedup multiset `DS`.
//! * **O3** — execute the query in full; each produced tuple is either
//!   matched against `DS` (already served — suppress) or returned now and
//!   offered to the store (fill/update "for free"), at most `F` per bcp.
//!   The end-of-O3 invariant "DS must be empty" is checked and surfaced
//!   in the outcome.
//!
//! [`query`] executes against one pinned [`DbSnapshot`], whose
//! `epoch()` is the pin epoch the gates below compare against. The
//! store it reaches is the one of [`crate::concurrent::SharedPmv`]: O2
//! loads the published table through its `LeftRight` cell wait-free,
//! write-back takes `try_write` and may be declined, and the view is
//! republished only when the write-back replaced its store's table,
//! that is, changed what it serves.
//!
//! # What replaces the paper's S lock (Section 3.6)
//!
//! The paper holds an S lock on the PMV from O2 to the end of O3 so no
//! maintainer (X lock) can invalidate already-served partials before the
//! full execution re-derives them. Here the same guarantee comes from two
//! epoch gates plus the maintain-before-publish commit protocol:
//!
//! * **serve gate** — a cached tuple is served only when its
//!   `fill_epoch ≤ pin_epoch` (`snap.epoch()`), so O2 never serves
//!   state the pinned O3 execution cannot re-derive;
//! * **fill gate** — results are written back (and completeness claims
//!   trusted or made) only when `pin_epoch ≥ maint_epoch`, re-checked
//!   under the store's write guard, so a query pinned before a maintenance
//!   pass cannot resurrect what that pass evicted.
//!
//! Between O2 and the answer nothing here waits on a lock: probes are
//! reads, policy touches and fills are deferred to one best-effort
//! write-back. The `pmv-analyze` contract checker enforces that on every
//! function declared with a `// pmv::pin_region` comment above its `fn`:
//! this module's query path, its write-back and its fault point.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pmv_faultinject::{CaptureGuard, Site};
use pmv_obs::{EventKind, Phase, TraceKind, TraceScope};
use pmv_query::{
    execute_bounded_arc, upquery_fill, DbSnapshot, ExecBudget, ExecStats, QueryInstance,
};
use pmv_storage::{Tuple, Value};

use crate::concurrent::Inner;
use crate::ds::Ds;
use crate::health::{Degradation, DegradeReason};
use crate::o1::{decompose, ConditionPart};
use crate::pipeline::{QueryOutcome, QueryTimings};
use crate::stats::PmvStats;
use crate::store::{Hashed, PmvStore, Residency, Rows};
use crate::view::PartialViewDef;
use crate::Result;

/// What one query knows about one distinct bcp it probes. Kept under the
/// number of the first condition part inside that bcp
/// ([`ConditionPart::bcp_part`]), so nothing on the serving path hashes
/// or clones a `BcpKey` per part, let alone per result row.
#[derive(Clone, Copy, Default)]
struct PartState {
    /// O2 probed the bcp on a live store: `Some(served anything)`. The
    /// deferred policy touch.
    touch: Option<bool>,
    /// Served whole from a completeness claim, and so exempt from O3.
    complete: bool,
    /// Resident with `F` tuples (and not `complete`): the entry can
    /// accept nothing, so O3 only counts this bcp's rows.
    full: bool,
    /// Result rows O3 produced inside the bcp, counted before the DS
    /// probe — the size of the bcp's truth when O3 saw all of it.
    truth: usize,
}

/// `(bcp hash, part number)` of one distinct probed bcp.
type Slot = (u64, usize);

/// A fill candidate: `(part number, tuple, copies of it the bcp's entry
/// holds)`. The copies are pushed as 0 and counted by the write-back.
type Cand = (usize, Arc<Tuple>, usize);

/// Pooled per-thread buffers for the [`query`] hot loop. Reusing
/// them across queries keeps the steady-state read path free of per-query
/// heap allocation for its own bookkeeping (the returned `QueryOutcome`'s
/// vectors are handed to the caller).
#[derive(Default)]
struct QueryScratch {
    ds: Ds,
    /// Every distinct probed bcp, in part order: O2 and the write-back
    /// both walk it.
    slots: Vec<Slot>,
    /// Indexed by part number; only the entries `slots` names are used.
    state: Vec<PartState>,
    /// Every occurrence this query proved inside a bcp that can still
    /// accept tuples — served partials first, then the O3 rows DS did
    /// not suppress.
    cands: Vec<Cand>,
    /// The fields of the bcp whose entry O2 is serving.
    dims: Vec<Value>,
    /// The cached row O2 or the write-back is reading, rebuilt from its
    /// entry's front-coded bytes.
    row: Vec<u8>,
    /// The O2 partials, then the remaining O3 rows, as they are found:
    /// each is handed to the outcome in one exact-size vector.
    served: Vec<Arc<Tuple>>,
    remaining: Vec<Arc<Tuple>>,
}

impl QueryScratch {
    /// Empty every buffer (keeping capacity) and drop the `Arc<Tuple>`
    /// references, so a pooled scratch never pins tuple or snapshot
    /// memory between queries.
    fn clear(&mut self) {
        self.ds.clear();
        self.slots.clear();
        self.state.clear();
        self.cands.clear();
        self.dims.clear();
        self.row.clear();
        self.served.clear();
        self.remaining.clear();
    }
}

thread_local! {
    /// One scratch per thread, held in a `Cell` (taken for the duration
    /// of each query) so a re-entrant call falls back to fresh buffers
    /// instead of panicking on a borrow.
    static QUERY_SCRATCH: std::cell::Cell<Option<Box<QueryScratch>>> =
        const { std::cell::Cell::new(None) };
}

/// Map an abort-class [`pmv_query::QueryError`] to a degradation reason.
fn degrade_reason(e: &pmv_query::QueryError) -> DegradeReason {
    use pmv_query::{BudgetExceeded, QueryError};
    match e {
        QueryError::Budget(BudgetExceeded::Deadline) => DegradeReason::Deadline,
        QueryError::Budget(BudgetExceeded::Tuples) => DegradeReason::TupleBudget,
        _ => DegradeReason::ExecError,
    }
}

/// Close a fault-capture scope (if one was opened) and surface every
/// delivered fault — latency injections above all, which otherwise leave
/// no visible mark — as `FaultFired` trace events.
pub(crate) fn flush_faults(trace: &mut TraceScope<'_>, cap: Option<CaptureGuard>) {
    if let Some(cap) = cap {
        for f in cap.finish() {
            trace.event(EventKind::FaultFired {
                site: f.site.to_string(),
                kind: f.kind_str(),
            });
        }
    }
}

/// The one fault-injection point of the write-back (`Site::ShardProbe`
/// before the deferred touches, `Site::ShardFill` before the fills).
// pmv::pin_region
fn write_back_fault(site: Site) {
    // pmv::allow(pin_reaches_blocking_lock): fire_soft takes the
    // fault-injection registry lock only while a test campaign is armed;
    // unarmed it is one relaxed load.
    pmv_faultinject::fire_soft(site);
}

/// Run one query through O1/O2/O3 against `snap`, serving from and
/// writing back to `inner`'s store, over this thread's pooled scratch
/// buffers.
///
/// Every cache write-back (fills *and* policy touches) is deferred past
/// O3 and best-effort, so between pinning and the answer no lock is ever
/// waited on; see the module docs for the gates that keep the end-of-O3
/// `ds_leftover == 0` invariant.
// pmv::pin_region
pub(crate) fn query(inner: &Inner, snap: &DbSnapshot, q: &QueryInstance) -> Result<QueryOutcome> {
    QUERY_SCRATCH.with(|tls| {
        let mut scratch = tls.take().unwrap_or_default();
        let out = query_with_scratch(inner, snap, q, &mut scratch);
        scratch.clear();
        tls.set(Some(scratch));
        out
    })
}

/// [`query`] body (the wrapper clears the scratch after every query).
// pmv::pin_region
fn query_with_scratch(
    inner: &Inner,
    snap: &DbSnapshot,
    q: &QueryInstance,
    scratch: &mut QueryScratch,
) -> Result<QueryOutcome> {
    let QueryScratch {
        ds,
        slots,
        state,
        cands,
        dims,
        row,
        served: partial_expanded,
        remaining: remaining_expanded,
    } = scratch;
    let Inner {
        def,
        config,
        breaker,
        obs,
        ..
    } = inner;
    let pin_epoch = snap.epoch();
    let mut local = PmvStats::default();
    let t_start = Instant::now();
    // Lifecycle span (publishes into the trace ring on every exit path,
    // including errors) plus a thread-local fault-capture scope so
    // injected faults surface as trace events.
    let track = obs.enabled();
    let mut trace = obs.begin_trace_shared(TraceKind::Query, &inner.trace_name);
    let mut fault_cap = track.then(pmv_faultinject::capture);

    // ---- Operation O1 ----
    let t_o1 = Instant::now();
    let parts = decompose(def, q)?;
    let o1 = t_o1.elapsed();
    obs.record(Phase::o1_decompose, o1);
    trace.event(EventKind::Decompose {
        parts: parts.len(),
        us: o1.as_micros() as u64,
    });

    // ---- Operation O2: probe the published table, never locking ----
    // A quarantined view skips O2/fill entirely: the query still gets a
    // full, correct answer straight from O3, just without cache
    // acceleration ("never serve from Quarantined").
    let serving = breaker.allow_serve();
    trace.event(EventKind::Breaker {
        serving,
        state: breaker.state().as_str(),
    });
    let t_o2 = Instant::now();
    let layout = def.layout();
    let mut bcp_hit = false;
    // Slices served straight from a completeness claim. They do NOT
    // enter DS: if every probed slice is complete, nothing executes and
    // nothing re-produces them; if a targeted upquery later falls back
    // to the full O3, they are re-seeded into DS first.
    let mut complete_served: Vec<Arc<Tuple>> = Vec::new();
    // The distinct bcps, each with the hash that places it in the
    // store's table. (Several condition parts can share one containing
    // bcp — two query intervals inside one basic interval; the full
    // Cselect check below already covers its tuples.)
    state.resize(parts.len(), PartState::default());
    slots.extend(
        parts
            .iter()
            .enumerate()
            .filter(|(pi, part)| part.bcp_part == *pi)
            // The one hash of the bcp: its chunk and tag.
            .map(|(pi, part)| (PmvStore::hash_of(&part.bcp), pi)),
    );
    let t_probe = Instant::now();
    // `load` is wait-free (bounded retry over the two left-right slots);
    // a concurrent publish can at worst hand us the previous consistent
    // table. A drained store serves nothing.
    if let Some(published) = serving
        .then(|| inner.view.load())
        .filter(|p| !p.quarantined && !slots.is_empty())
    {
        // Completeness gate, evaluated AFTER the published table was
        // loaded: a reader pinned after a maintenance pass also observes
        // that pass's republished table (maintain stores the fence
        // before touching the store, and the commit publishes the new
        // epoch only after maintain returns), so a claim seen together
        // with `pin_epoch >= maint_epoch` reflects every change up to
        // the pin.
        let mut maint_ok: Option<bool> = None;
        for &(hash, pi) in slots.iter() {
            // Policy touches observed during the probe are deferred to
            // the best-effort write-back below.
            let st = &mut state[pi];
            let Some(entry) = published.table.get(hash, &parts[pi].bcp) else {
                st.touch = Some(false);
                continue;
            };
            let entries = entry.rows;
            bcp_hit = true;
            // A complete slice (claim valid, no tuple filled after the
            // pin) IS the bcp's entire answer at the pin: serve its
            // matching tuples and exempt the bcp from O3.
            st.complete = entry.complete == Some(published.inserts_seen)
                && *maint_ok.get_or_insert_with(|| pin_epoch >= inner.maint_epoch())
                && entries.epochs().all(|fe| fe <= pin_epoch);
            st.full = !st.complete && entries.len() >= config.f;
            let mut served = false;
            let is_basic = parts[pi].is_basic;
            // The key's fields, decoded once for the entry's tuples.
            dims.clear();
            dims.extend(parts[pi].bcp.values());
            let mut rows = entries.iter(row);
            while let Some((t, fill_epoch)) = rows.next_row() {
                // Serve gate: never serve a tuple filled after this
                // query's pin — it may reflect database state the pinned
                // O3 execution cannot see.
                if fill_epoch > pin_epoch {
                    continue;
                }
                // A basic part contains every tuple of its bcp; a
                // contained part requires the full Cselect check — "this
                // is equivalent to checking whether t satisfies the
                // Cselect of query Q" — read through the layout. Only a
                // served tuple is decoded into its `Ls'` row, once: DS,
                // the candidates and the outcome share it.
                if is_basic || def.stored_matches_select(q, t, dims) {
                    let row = layout.rebuild_with(t, dims);
                    if st.complete {
                        complete_served.push(Arc::clone(&row));
                    } else {
                        ds.insert_arc(Arc::clone(&row));
                        if !st.full {
                            cands.push((pi, Arc::clone(&row), 0));
                        }
                    }
                    partial_expanded.push(row);
                    served = true;
                }
            }
            if st.complete {
                local.complete_serves += 1;
            }
            st.touch = Some(served);
        }
        let probe = t_probe.elapsed();
        obs.record(Phase::o2_probe, probe);
        trace.event(EventKind::ShardProbe {
            parts: slots.len(),
            served: partial_expanded.len(),
            us: probe.as_micros() as u64,
        });
    }
    let o2 = t_o2.elapsed();
    // Time-to-first-result, the paper's headline quantity (§3.3 "within
    // ~1 ms"): call entry → end of O2, measured inside the call. The
    // caller holds no partials yet — they come back with O3's rows in
    // the one `QueryOutcome` — so this is the cost of O1 + O2, not a
    // latency any caller observes. Recorded before O3 so degraded paths
    // count too.
    let ttfr = t_start.elapsed();
    obs.record(Phase::ttfr, ttfr);
    trace.event_at(
        ttfr.as_micros() as u64,
        EventKind::FirstResults {
            tuples: partial_expanded.len(),
            bcp_hit,
            us: ttfr.as_micros() as u64,
        },
    );
    let mut timings = QueryTimings {
        o1,
        o2,
        ..Default::default()
    };

    // ---- Complete-serve fast path ----
    // Every probed slice was served from a completeness claim: the
    // partials already ARE the full answer. No execution, no dedup —
    // only the deferred best-effort policy touches.
    if !slots.is_empty() && slots.iter().all(|&(_, pi)| state[pi].complete) {
        debug_assert_eq!(ds.len(), 0, "complete slices never enter DS");
        write_back(
            inner,
            pin_epoch,
            (&parts, slots, state, cands),
            row,
            None,
            &mut local,
            &mut trace,
        );
        return Ok(finish(
            inner,
            local,
            trace,
            fault_cap,
            t_start,
            (parts.len(), bcp_hit, partial_expanded),
            (remaining_expanded, timings, ExecStats::default(), 0),
            None,
        ));
    }

    // O3 input as slices `(part whose bcp's FULL truth the rows are,
    // every row in the answer?, rows)`: one per targeted upquery, or
    // (outside the vector) the single full-execution result.
    type Slice = (Option<usize>, bool, Vec<Arc<Tuple>>);
    let budget = || ExecBudget {
        deadline: config.o3_deadline.map(|d| Instant::now() + d),
        max_tuples: config.o3_max_tuples,
    };

    // ---- Targeted upqueries ----
    // Some slices are complete but others are open: refill each open bcp
    // with a bounded keyed upquery against the snapshot instead of running
    // the full O3 execution. Any failure (bad bcp query, budget, fault,
    // panic) falls back to the classic path below, with the
    // complete-served partials re-seeded into DS so its dedup drains
    // them.
    let mut upq: Option<(Vec<Slice>, ExecStats, Duration)> = None;
    if slots.iter().any(|&(_, pi)| state[pi].complete) {
        let t_upq = Instant::now();
        let mut slices: Vec<Slice> = Vec::new();
        let mut total = ExecStats::default();
        let mut ok = true;
        for (pi, part) in parts.iter().enumerate() {
            if part.bcp_part != pi || state[pi].complete {
                continue;
            }
            let Ok(qi) = def.bcp_query(&part.bcp) else {
                ok = false;
                break;
            };
            let t_fill = Instant::now();
            // pmv::allow(pin_reaches_blocking_lock): the refill reaches the
            // fault-injection registry lock (fire → fire_disk), which is
            // taken only while a test campaign is armed; unarmed it is one
            // relaxed load, so production serving never blocks here.
            match catch_unwind(AssertUnwindSafe(|| upquery_fill(snap, &qi, budget()))) {
                Ok(Ok((rows, st))) => {
                    obs.record(Phase::upquery, t_fill.elapsed());
                    total.merge(&st);
                    local.upqueries += 1;
                    local.upquery_rows += rows.len() as u64;
                    slices.push((Some(pi), part.is_basic, rows));
                }
                _ => {
                    ok = false;
                    break;
                }
            }
        }
        if ok {
            breaker.record_ok();
            upq = Some((slices, total, t_upq.elapsed()));
        } else {
            local.upquery_fallbacks += 1;
            for t in &complete_served {
                ds.insert_arc(Arc::clone(t));
            }
        }
    }

    // ---- Operation O3: full execution against the snapshot ----
    // (skipped when the upqueries above refilled every open slice; no
    // store access is held meanwhile, so a panicking operator cannot
    // tear the store — it is caught and degrades like a transient error)
    let did_upquery = upq.is_some();
    let (slices, full, exec_stats, exec) = match upq {
        Some((slices, stats, exec)) => (slices, None, stats, exec),
        None => {
            let t_exec = Instant::now();
            // The executor reaches the fault-injection registry lock
            // (fire → fire_disk), which is taken only while a test
            // campaign is armed; unarmed it is one relaxed load, so
            // production serving never blocks here.
            let exec_result = // pmv::allow(pin_reaches_blocking_lock): see above
                catch_unwind(AssertUnwindSafe(|| execute_bounded_arc(snap, q, budget())));
            let (results, exec_stats) = match exec_result {
                Ok(Ok(ok)) => ok,
                Ok(Err(e)) if !(e.is_budget() || e.is_transient()) => {
                    breaker.record_error();
                    local.exec_errors = 1;
                    inner.stats.add(&local);
                    obs.record(Phase::o3_exec, t_exec.elapsed());
                    flush_faults(&mut trace, fault_cap.take());
                    return Err(e.into());
                }
                faulted => {
                    // O3 was cut short (deadline / tuple budget /
                    // transient fault / caught panic): degrade to the O2
                    // partials instead of failing the query. Partials are
                    // a sub-multiset of the true answer, so this
                    // under-serves but never lies.
                    breaker.record_error();
                    let reason = match &faulted {
                        Ok(Err(e)) => degrade_reason(e),
                        _ => DegradeReason::ExecPanic,
                    };
                    match reason {
                        DegradeReason::Deadline | DegradeReason::TupleBudget => {
                            local.budget_exceeded = 1
                        }
                        DegradeReason::ExecPanic => local.exec_panics = 1,
                        _ => local.exec_errors = 1,
                    }
                    timings.exec = t_exec.elapsed();
                    return Ok(finish(
                        inner,
                        local,
                        trace,
                        fault_cap,
                        t_start,
                        (parts.len(), bcp_hit, partial_expanded),
                        (remaining_expanded, timings, ExecStats::default(), 0),
                        Some(reason),
                    ));
                }
            };
            breaker.record_ok();
            let exec = t_exec.elapsed();
            obs.record(Phase::o3_exec, exec);
            trace.event(EventKind::Exec {
                rows: results.len(),
                tuples_examined: exec_stats.tuples_examined,
                index_probes: exec_stats.index_probes,
                us: exec.as_micros() as u64,
            });
            (Vec::new(), Some((None, true, results)), exec_stats, exec)
        }
    };
    timings.exec = exec;

    // ---- Operation O3: dedup + best-effort write-back ----
    let t_o3 = Instant::now();
    // Fill gate: results derived at `pin_epoch` may be written back only
    // if no maintenance completed after the pin — otherwise the fill
    // could resurrect a tuple a later Δ already evicted. Known up front,
    // so a stale pin also skips all fill bookkeeping below.
    let fills_allowed = serving && pin_epoch >= inner.maint_epoch();
    for (slice_part, all_in_answer, rows) in slices.into_iter().chain(full) {
        for t in rows {
            // Only fills read what a row says about its bcp. An upquery
            // slice names its part; a full execution's row lies in
            // exactly one, found by comparing its condition columns in
            // place.
            let mut fill_into = None;
            if fills_allowed {
                if let Some(pi) = slice_part.or_else(|| part_of_row(def, &parts, slots, &t)) {
                    let st = &mut state[pi];
                    // Before the DS probe: a suppressed row is as much
                    // part of the bcp's truth as a new one.
                    st.truth += 1;
                    if !st.full && !st.complete {
                        fill_into = Some(pi);
                    }
                }
            }
            // Skip the multiset probe once DS has drained (and for cold
            // queries, where it was never populated): the remaining
            // results are provably not duplicates.
            if !ds.is_empty() && ds.remove_one(&t) {
                continue; // the user already has this occurrence
            }
            if let Some(pi) = fill_into {
                cands.push((pi, Arc::clone(&t), 0));
            }
            // An upquery slice is its bcp's whole truth: rows outside
            // the query's select still count toward the entry (and
            // completeness), but not toward the user's answer.
            if all_in_answer || q.matches_select(&t) {
                remaining_expanded.push(t);
            }
        }
    }
    // The write-back is timed apart from the dedup bookkeeping: it
    // lands under `lock_shard_fill` and is subtracted from `o3_dedup`,
    // so that phase measures dedup/provenance work — not lock waits and
    // view publishes.
    let fill_total = write_back(
        inner,
        pin_epoch,
        (&parts, slots, state, cands),
        row,
        fills_allowed.then_some(did_upquery),
        &mut local,
        &mut trace,
    );
    let ds_leftover = ds.len();
    debug_assert_eq!(ds_leftover, 0, "DS must be empty after O3");
    timings.o3_overhead = t_o3.elapsed().saturating_sub(fill_total);
    obs.record(Phase::o3_dedup, timings.o3_overhead);
    Ok(finish(
        inner,
        local,
        trace,
        fault_cap,
        t_start,
        (parts.len(), bcp_hit, partial_expanded),
        (remaining_expanded, timings, exec_stats, ds_leftover),
        None,
    ))
}

/// The condition part (by number) whose bcp contains `row`, a result of
/// the full execution: such a row satisfies `Cselect`, so it lies in
/// exactly one of the query's bcps — the only one, when there is one.
/// Otherwise the row's key is built once and found among the slots by
/// its hash, then compared.
fn part_of_row(
    def: &PartialViewDef,
    parts: &[ConditionPart],
    slots: &[Slot],
    row: &Tuple,
) -> Option<usize> {
    match slots {
        [(_, only)] => Some(*only),
        _ => {
            let key = def.bcp_of_tuple(row);
            let hash = PmvStore::hash_of(&key);
            slots
                .iter()
                .find(|&&(h, pi)| h == hash && parts[pi].bcp == key)
                .map(|&(_, pi)| pi)
        }
    }
}

/// Apply one query's deferred policy touches and fills to the store.
/// Best-effort: the serving path never *waits* on the store — a declined
/// write-back loses one query's policy hits, and a skipped fill just
/// means the next identical query re-derives through O3. `fills` is
/// `None` when the fill gate is closed, else whether O3 ran as targeted
/// upqueries (every slice then is its bcp's whole truth, not only a basic
/// part's). Returns the time spent, so the caller can keep it out of
/// `o3_dedup`.
// pmv::pin_region
fn write_back(
    inner: &Inner,
    pin_epoch: u64,
    (parts, slots, state, cands): (&[ConditionPart], &[Slot], &[PartState], &mut Vec<Cand>),
    row: &mut Vec<u8>,
    fills: Option<bool>,
    local: &mut PmvStats,
    trace: &mut TraceScope<'_>,
) -> Duration {
    // Stable: within a part, candidates stay in the order they were
    // proven, so the k-th equal tuple is the k-th proven occurrence.
    cands.sort_by_key(|&(pi, _, _)| pi);
    // A bcp gets its once-per-query admit when this query saw any of its
    // tuples, cached or computed.
    let admits = |st: &PartState| fills.is_some() && (st.touch == Some(true) || st.truth > 0);
    let cap_f = inner.config.f;
    let layout = inner.def.layout();
    // Each bcp with the hash O2 placed it by, which the store's methods
    // take instead of hashing it again.
    let members = || {
        slots
            .iter()
            .map(|&(hash, pi)| (pi, Hashed::new(&parts[pi].bcp, hash), &state[pi]))
    };
    let touches = members().any(|(_, _, st)| st.touch.is_some());
    let fills_here = members().any(|(_, _, st)| admits(st));
    if !touches && !fills_here {
        return Duration::ZERO;
    }
    let t_fill = Instant::now();
    // The store's write guard, never waited for: a contended or drained
    // store skips this query's write-back.
    let Some(mut store) = inner.store.try_write().filter(|s| !s.is_quarantined()) else {
        return Duration::ZERO;
    };
    // Re-read once the guard is held: the fill gate below compares it.
    let maint_epoch = inner.maint_epoch();
    let admitted_before = local.tuples_admitted;
    let evicted_before = store.evictions();
    // A panic mid-mutation may leave the store's policy or entry
    // bookkeeping torn: catch it and drain the store below
    // (removal-only, so nothing stale can ever be served from it later).
    let fill = catch_unwind(AssertUnwindSafe(|| {
        if touches {
            write_back_fault(Site::ShardProbe);
        }
        for (_, bcp, st) in members() {
            if let Some(served) = st.touch {
                store.touch(bcp, served);
            }
            // The admission sketch counts a bcp once per query, and
            // only when it has rows: it served a partial, or O3
            // produced some. Empty bcps are not counted.
            if st.touch == Some(true) || st.truth > 0 {
                store.note_access(bcp);
            }
        }
        // Re-check the fill gate UNDER exclusive access: a
        // maintenance pass racing this query stores `maint_epoch`
        // before taking the store's lock, so if it already scanned
        // the store the lock handoff makes that store visible here
        // and the stale fill is skipped; if this check still passes,
        // the fill lands before the scan and maintenance will evict
        // it. (The caller's pre-check is just the fast path.)
        if !fills_here || pin_epoch < maint_epoch {
            return;
        }
        write_back_fault(Site::ShardFill);
        for (pi, bcp, st) in members() {
            // An entry that was full (or complete) at O2 was offered
            // nothing, and O2's touch already referenced it: no
            // admit, which — should an earlier admit here have
            // evicted it — would take a frame with no entry behind
            // it. If it lost tuples since, the next query finds it
            // open and refills it.
            if !admits(st) || st.full || st.complete {
                continue;
            }
            match store.admit(bcp) {
                Residency::Resident => {}
                Residency::Probation => {
                    local.probations += 1;
                    continue;
                }
                Residency::Declined => {
                    local.admissions_declined += 1;
                    continue;
                }
            }
            let lo = cands.partition_point(|&(p, _, _)| p < pi);
            let hi = lo + cands[lo..].partition_point(|&(p, _, _)| p == pi);
            let offered = &mut cands[lo..hi];
            // One walk over the entry counts, for every candidate,
            // the copies of it already cached, each compared with the
            // row through the layout.
            let cached = store.rows(bcp).map_or(0, |rows| {
                let mut walk = rows.iter(row);
                while let Some((x, _)) = walk.next_row() {
                    for (_, t, held) in offered.iter_mut() {
                        *held += usize::from(layout.holds(x, t));
                    }
                }
                rows.len()
            });
            // The admitted candidates are swapped to the front of
            // `offered`, in the order they were proven; the first `k`
            // candidates stay the first `k` proven, in some order,
            // which is all the count below reads.
            let mut taken = 0;
            for k in 0..offered.len() {
                // One length check gates the rest of the group: an
                // entry at its cap F admits nothing more.
                if cached + taken >= cap_f {
                    break;
                }
                // Up to the proven multiplicity: equal `Ls'` tuples
                // are distinct rows of the answer, and the entry may
                // hold as many copies of `t` as this query has proved
                // so far, no more.
                let (_, t, held) = &offered[k];
                let proven = 1 + offered[..k].iter().filter(|(_, x, _)| x == t).count();
                let have = held + offered[..taken].iter().filter(|(_, x, _)| x == t).count();
                if have < proven {
                    offered.swap(taken, k);
                    taken += 1;
                }
            }
            // Packed straight into the entry, in one go.
            let admitted = offered[..taken]
                .iter()
                .map(|(_, t, _)| layout.stored_values(t));
            local.tuples_admitted += store.fill(bcp, admitted, pin_epoch) as u64;
        }
        // Completeness claims: observed-in-full bcps whose entry now
        // holds exactly the proven truth — with no eviction racing
        // the fill, and the fill gate re-checked under this exclusive
        // access, so the pin reflects every change the claim must
        // cover. A full execution shows all of a bcp only through a
        // basic part, which covers it.
        if store.evictions() == evicted_before {
            let at = store.inserts_seen();
            for (pi, bcp, st) in members() {
                if (fills == Some(true) || parts[pi].is_basic)
                    && st.truth > 0
                    && store.rows(bcp).map_or(0, Rows::len) == st.truth
                {
                    store.mark_complete(bcp, at);
                }
            }
        }
    }));
    let poisoned = fill.is_err();
    if poisoned {
        store.quarantine();
        local.quarantine_events += 1;
        inner.breaker.record_error();
    }
    let evicted = store.evictions().saturating_sub(evicted_before);
    // Republish only if the write-back replaced the table readers hold
    // (`PmvStore::unpublished`): touches change only policy state and
    // hit counts, in place; a quarantine installs a fresh table.
    if store.unpublished() {
        // pmv::allow(pin_reaches_blocking_lock): LeftRight::publish
        // takes the writer-side mutex, which only fills contend on —
        // never the wait-free reader path. A cold fill is already the
        // slow path (DESIGN.md "Serving path").
        inner.publish_store(&store);
    }
    drop(store);
    let fill_elapsed = t_fill.elapsed();
    inner.obs.record(Phase::lock_shard_fill, fill_elapsed);
    trace.event(EventKind::Fill {
        admitted: local.tuples_admitted - admitted_before,
        evicted,
        us: fill_elapsed.as_micros() as u64,
    });
    if poisoned {
        trace.event(EventKind::Quarantine);
    }
    fill_elapsed
}

/// The one `QueryOutcome` builder, shared by the complete-serve, full
/// and degraded exits: closes the query's books (counters, `full` or
/// `degraded` phase, captured faults) and projects
/// the `Ls'` tuples to the user layout (sharing them when that is the
/// same layout). `degraded` is `Some` when O3 did
/// not complete: the outcome then carries only the already-served O2
/// partials, flagged with the reason and a staleness upper bound.
#[allow(clippy::too_many_arguments)]
fn finish(
    inner: &Inner,
    mut local: PmvStats,
    mut trace: TraceScope<'_>,
    fault_cap: Option<CaptureGuard>,
    t_start: Instant,
    (parts, bcp_hit, partial_expanded): (usize, bool, &mut Vec<Arc<Tuple>>),
    (remaining_expanded, timings, exec_stats, ds_leftover): (
        &mut Vec<Arc<Tuple>>,
        QueryTimings,
        ExecStats,
        usize,
    ),
    degraded: Option<DegradeReason>,
) -> QueryOutcome {
    // One exact-size vector each, moved out of the pooled scratch (which
    // keeps its capacity for the next query).
    let exact = |pooled: &mut Vec<Arc<Tuple>>| {
        let mut out = Vec::with_capacity(pooled.len());
        out.append(pooled);
        out
    };
    let (partial_expanded, remaining_expanded) =
        (exact(partial_expanded), exact(remaining_expanded));
    let degraded = degraded.map(|reason| {
        let staleness = inner.verified.staleness();
        inner.obs.record(Phase::o3_exec, timings.exec);
        inner.obs.record(Phase::degraded, t_start.elapsed());
        trace.event(EventKind::Degraded {
            reason: reason.to_string(),
            staleness_us: staleness.as_micros() as u64,
        });
        local.degraded_queries = 1;
        Degradation { reason, staleness }
    });
    if degraded.is_none() {
        // A degraded latency would poison the healthy full-query series.
        inner.obs.record(Phase::full, t_start.elapsed());
    }
    local.queries = 1;
    local.condition_parts = parts as u64;
    if bcp_hit {
        local.bcp_hit_queries = 1;
    }
    if !partial_expanded.is_empty() {
        local.serving_queries = 1;
        local.partial_tuples_served = partial_expanded.len() as u64;
    }
    local.o3_rows_scanned = exec_stats.tuples_examined as u64;
    inner.stats.add(&local);
    flush_faults(&mut trace, fault_cap);
    let template = inner.def.template();
    let user = |ts: &[Arc<Tuple>]| ts.iter().map(|t| template.user_tuple_shared(t)).collect();
    QueryOutcome {
        partial: user(&partial_expanded),
        remaining: user(&remaining_expanded),
        partial_expanded,
        remaining_expanded,
        bcp_hit,
        parts,
        timings,
        exec_stats,
        ds_leftover,
        degraded,
    }
}
