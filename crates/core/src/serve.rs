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
//! [`run_pinned`] is generic, with static dispatch, over the data it
//! executes against — any [`DataView`]: a pinned
//! [`pmv_query::DbSnapshot`] (the epoch path) or the live
//! [`pmv_query::Database`] itself, whose `view_epoch()` is its current
//! version (the *locked* case: the caller's `&Database` borrow or read
//! guard is what keeps the base data still for the duration). The store
//! it reaches is always the sharded one of
//! [`crate::concurrent::SharedPmv`]: O2 loads each shard's published
//! `LeftRight` view wait-free, write-back takes `try_write` and may be
//! declined, and a shard is republished only when the store logged a
//! change to what it serves.
//!
//! # What replaces the paper's S lock (Section 3.6)
//!
//! The paper holds an S lock on the PMV from O2 to the end of O3 so no
//! maintainer (X lock) can invalidate already-served partials before the
//! full execution re-derives them. Here the same guarantee comes from two
//! epoch gates plus the maintain-before-publish commit protocol:
//!
//! * **serve gate** — a cached tuple is served only when its
//!   `fill_epoch ≤ pin_epoch` (`view.view_epoch()`), so O2 never serves
//!   state the pinned O3 execution cannot re-derive;
//! * **fill gate** — results are written back (and completeness claims
//!   trusted or made) only when `pin_epoch ≥ maint_epoch`, re-checked
//!   under the shard write guard, so a query pinned before a maintenance
//!   pass cannot resurrect what that pass evicted.
//!
//! Between O2 and the answer nothing here waits on a lock: probes are
//! reads, policy touches and fills are deferred to one best-effort
//! write-back. Both analyzers enforce that on every function whose name
//! starts with `run_pinned` — this module's and the two `Inner` methods
//! that run inside it — which is why those keep the prefix.

use std::collections::{HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pmv_faultinject::{CaptureGuard, Site};
use pmv_obs::{EventKind, Phase, TraceKind, TraceScope};
use pmv_query::{
    execute_bounded_arc, upquery_fill, DataView, ExecBudget, ExecStats, QueryInstance,
};
use pmv_storage::Tuple;

use crate::bcp::BcpKey;
use crate::concurrent::Inner;
use crate::ds::Ds;
use crate::fasthash::FxHashMap;
use crate::health::{Degradation, DegradeReason};
use crate::o1::decompose;
use crate::pipeline::{QueryOutcome, QueryTimings};
use crate::stats::PmvStats;
use crate::store::Residency;
use crate::Result;

/// What one shard's write-back did.
pub(crate) struct WriteBack {
    admitted: u64,
    evicted: u64,
    poisoned: bool,
}

/// Pooled per-thread buffers for the [`run_pinned`] hot loop: the DS
/// multiset, the proven-occurrence map, and the touch/candidate staging
/// vectors. Reusing them across queries keeps the steady-state read path
/// free of per-query heap allocation (the returned `QueryOutcome`'s own
/// vectors excepted — those are handed to the caller).
#[derive(Default)]
struct QueryScratch {
    ds: Ds,
    /// Occurrences proven per tuple. Keyed by the tuple alone: the `Ls'`
    /// layout embeds every condition column, so equal tuples always
    /// belong to the same bcp and the key needs no `BcpKey` component —
    /// which keeps the hot dedup loop free of per-row key allocation.
    proven: FxHashMap<Arc<Tuple>, usize>,
    touches: Vec<(usize, BcpKey, bool)>,
    write_back: Vec<usize>,
}

impl QueryScratch {
    /// Empty every buffer (keeping capacity) and drop the `Arc<Tuple>`
    /// references, so a pooled scratch never pins tuple or snapshot
    /// memory between queries.
    fn clear(&mut self) {
        self.ds.clear();
        self.proven.clear();
        self.touches.clear();
        self.write_back.clear();
    }
}

thread_local! {
    /// One scratch per thread, held in a `Cell` (taken for the duration
    /// of each query) so a re-entrant call falls back to fresh buffers
    /// instead of panicking on a borrow.
    static QUERY_SCRATCH: std::cell::Cell<Option<Box<QueryScratch>>> =
        const { std::cell::Cell::new(None) };
}

/// Fills for one bcp: each tuple with its proven occurrence cap.
type FillGroup = (BcpKey, Vec<(Arc<Tuple>, usize)>);

/// Collect `(shard, item)` pairs into a compact `(shard, items)` list
/// over only the shards that own at least one item, in first-seen order.
/// A query touches a handful of shards, so the linear `find` beats
/// allocating a dense `vec![Vec::new(); N]` per query — with 16 shards
/// and one bcp that dense walk dominated the 1-thread TTFR tail.
fn group_by_shard<T>(pairs: impl Iterator<Item = (usize, T)>) -> Vec<(usize, Vec<T>)> {
    let mut groups: Vec<(usize, Vec<T>)> = Vec::new();
    for (si, item) in pairs {
        match groups.iter_mut().find(|(s, _)| *s == si) {
            Some((_, g)) => g.push(item),
            None => groups.push((si, vec![item])),
        }
    }
    groups
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
fn run_pinned_fault(site: Site) {
    // pmv::allow(pin_reaches_blocking_lock): fire_soft takes the
    // fault-injection registry lock only while a test campaign is armed;
    // unarmed it is one relaxed load.
    pmv_faultinject::fire_soft(site);
}

/// Run one query through O1/O2/O3 against `view`, serving from and
/// writing back to `inner`'s shards, over this thread's pooled scratch
/// buffers.
///
/// Every cache write-back (fills *and* policy touches) is deferred past
/// O3 and best-effort, so between pinning and the answer no lock is ever
/// waited on; see the module docs for the gates that keep the end-of-O3
/// `ds_leftover == 0` invariant.
pub(crate) fn run_pinned<V: DataView>(
    inner: &Inner,
    view: &V,
    q: &QueryInstance,
) -> Result<QueryOutcome> {
    QUERY_SCRATCH.with(|tls| {
        let mut scratch = tls.take().unwrap_or_default();
        let out = run_pinned_scratch(inner, view, q, &mut scratch);
        scratch.clear();
        tls.set(Some(scratch));
        out
    })
}

/// [`run_pinned`] body (the wrapper clears the scratch after every
/// query).
fn run_pinned_scratch<V: DataView>(
    inner: &Inner,
    view: &V,
    q: &QueryInstance,
    scratch: &mut QueryScratch,
) -> Result<QueryOutcome> {
    let QueryScratch {
        ds,
        proven,
        touches,
        write_back,
    } = scratch;
    let Inner {
        def,
        config,
        breaker,
        obs,
        ..
    } = inner;
    let pin_epoch = view.view_epoch();
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

    // ---- Operation O2: probe shard by shard, never locking ----
    // A quarantined view skips O2/fill entirely: the query still gets a
    // full, correct answer straight from O3, just without cache
    // acceleration ("never serve from Quarantined").
    let serving = breaker.allow_serve();
    trace.event(EventKind::Breaker {
        serving,
        state: breaker.state().as_str(),
    });
    let t_o2 = Instant::now();
    let mut partial_expanded: Vec<Arc<Tuple>> = Vec::new();
    let mut bcp_hit = false;
    // Slices served straight from a completeness claim. They do NOT
    // enter DS: if every probed slice is complete, nothing executes and
    // nothing re-produces them; if a targeted upquery later falls back
    // to the full O3, they are re-seeded into DS first.
    let mut complete_served: Vec<Arc<Tuple>> = Vec::new();
    let mut complete_ok: HashSet<BcpKey> = HashSet::new();
    // Group the distinct bcps by owning shard — a compact (shard, parts)
    // list over only the shards that actually own one, so the probe cost
    // scales with the query's bcp count, not the shard count. Each part
    // carries the hash that placed it: the shard's view is indexed by
    // the same one hash of the bcp. (Several condition parts can share
    // one containing bcp — two query intervals inside one basic
    // interval; the full Cselect check below already covers its tuples.)
    let parts_by_shard = group_by_shard(
        parts
            .iter()
            .filter({
                let mut seen: HashSet<&BcpKey> = HashSet::with_capacity(parts.len());
                move |part| seen.insert(&part.bcp)
            })
            .map(|part| {
                let (si, hash) = inner.slot_of(&part.bcp);
                (si, (hash, part))
            }),
    );
    if serving {
        for (si, group) in &parts_by_shard {
            let si = *si;
            let t_shard = Instant::now();
            // Completeness gate, evaluated AFTER the shard's view was
            // loaded (first `each` call): a reader pinned after a
            // maintenance pass also observes that pass's republished
            // views (maintain stores the fence before touching any
            // shard, and the commit publishes the new epoch only after
            // maintain returns), so a claim seen together with
            // `pin_epoch >= maint_epoch` reflects every change up to the
            // pin.
            let mut maint_ok: Option<bool> = None;
            let live = inner.run_pinned_probe(si, group, |part, entries, claimed| {
                // Policy touches observed during the probe are deferred
                // to the best-effort write-back below.
                let Some(entries) = entries else {
                    touches.push((si, part.bcp.clone(), false));
                    return;
                };
                bcp_hit = true;
                // A complete slice (claim valid, no tuple filled after
                // the pin) IS the bcp's entire answer at the pin: serve
                // its matching tuples and exempt the bcp from O3.
                let complete = claimed
                    && *maint_ok.get_or_insert_with(|| pin_epoch >= inner.maint_epoch())
                    && entries.iter().all(|(_, fe)| *fe <= pin_epoch);
                let mut served = false;
                for (t, fill_epoch) in entries {
                    // Serve gate: never serve a tuple filled after this
                    // query's pin — it may reflect database state the
                    // pinned O3 execution cannot see.
                    if *fill_epoch > pin_epoch {
                        continue;
                    }
                    // A basic part contains every tuple of its bcp; a
                    // contained part requires the full Cselect check —
                    // "this is equivalent to checking whether t satisfies
                    // the Cselect of query Q". Zero-copy: serving clones
                    // `Arc`s, no tuple data moves.
                    if part.is_basic || q.matches_select(t) {
                        if complete {
                            complete_served.push(Arc::clone(t));
                        } else {
                            ds.insert_arc(Arc::clone(t));
                        }
                        partial_expanded.push(Arc::clone(t));
                        served = true;
                    }
                }
                if complete {
                    complete_ok.insert(part.bcp.clone());
                    local.complete_serves += 1;
                }
                touches.push((si, part.bcp.clone(), served));
            });
            if !live {
                continue;
            }
            let shard_probe = t_shard.elapsed();
            obs.record(Phase::o2_probe, shard_probe);
            trace.event(EventKind::ShardProbe {
                shard: si,
                parts: group.len(),
                served: partial_expanded.len(),
                us: shard_probe.as_micros() as u64,
            });
        }
    }
    let o2 = t_o2.elapsed();
    // The paper's headline quantity: time-to-first-result, query start →
    // O2 partials available to the caller (§3.3 "within ~1 ms").
    // Recorded before O3 so degraded paths count too.
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
    if !parts.is_empty() && parts.iter().all(|p| complete_ok.contains(&p.bcp)) {
        debug_assert_eq!(ds.len(), 0, "complete slices never enter DS");
        run_pinned_write_back(
            inner,
            pin_epoch,
            touches,
            Vec::new(),
            &HashMap::new(),
            write_back,
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
            (Vec::new(), timings, ExecStats::default(), 0),
            None,
        ));
    }

    // O3 input as slices `(bcp whose FULL truth the rows are, every row
    // in the answer?, rows)`: one per targeted upquery, or the single
    // full-execution result.
    type Slice = (Option<BcpKey>, bool, Vec<Arc<Tuple>>);
    let budget = || ExecBudget {
        deadline: config.o3_deadline.map(|d| Instant::now() + d),
        max_tuples: config.o3_max_tuples,
    };

    // ---- Targeted upqueries ----
    // Some slices are complete but others are open: refill each open bcp
    // with a bounded keyed upquery against the view instead of running
    // the full O3 execution. Any failure (bad bcp query, budget, fault,
    // panic) falls back to the classic path below, with the
    // complete-served partials re-seeded into DS so its dedup drains
    // them.
    let mut upq: Option<(Vec<Slice>, ExecStats, Duration)> = None;
    if !complete_ok.is_empty() {
        let t_upq = Instant::now();
        let mut slices: Vec<Slice> = Vec::new();
        let mut total = ExecStats::default();
        let mut done: HashSet<BcpKey> = complete_ok.clone();
        let mut ok = true;
        for part in &parts {
            if !done.insert(part.bcp.clone()) {
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
            match catch_unwind(AssertUnwindSafe(|| upquery_fill(view, &qi, budget()))) {
                Ok(Ok((rows, st))) => {
                    obs.record(Phase::upquery, t_fill.elapsed());
                    total.index_probes += st.index_probes;
                    total.range_scans += st.range_scans;
                    total.fallback_scans += st.fallback_scans;
                    total.tuples_examined += st.tuples_examined;
                    total.results += st.results;
                    local.upqueries += 1;
                    local.upquery_rows += rows.len() as u64;
                    slices.push((Some(part.bcp.clone()), part.is_basic, rows));
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

    // ---- Operation O3: full execution against the view ----
    // (skipped when the upqueries above refilled every open slice; no
    // store access is held meanwhile, so a panicking operator cannot
    // tear the store — it is caught and degrades like a transient error)
    let did_upquery = upq.is_some();
    let (slices, exec_stats, exec) = match upq {
        Some(done) => done,
        None => {
            let t_exec = Instant::now();
            // The executor reaches the fault-injection registry lock
            // (fire → fire_disk), which is taken only while a test
            // campaign is armed; unarmed it is one relaxed load, so
            // production serving never blocks here.
            let exec_result = // pmv::allow(pin_reaches_blocking_lock): see above
                catch_unwind(AssertUnwindSafe(|| execute_bounded_arc(view, q, budget())));
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
                        (Vec::new(), timings, ExecStats::default(), 0),
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
            (vec![(None, true, results)], exec_stats, exec)
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
    // Single-part queries dominate steady-state serving; for them every
    // result row lies in the one probed bcp, so the per-row
    // `bcp_of_tuple` reconstruction is skipped.
    let single_bcp = (parts.len() == 1).then(|| parts[0].bcp.clone());
    // When the template provably emits unique rows, each remaining
    // result occurs exactly once: the proven map degenerates to "cap 1"
    // and is skipped entirely. (A single-part query never takes the
    // upquery path — an all-complete probe returned above — so this
    // composes with `single_bcp`.)
    let unique_fast =
        !did_upquery && single_bcp.is_some() && def.template().emits_unique_rows(view);
    // `proven` counts how many occurrences of each tuple this query
    // proved to exist: served partials plus remaining results. The fill
    // never pushes a tuple's cached count past this bound, which keeps
    // every entry a sub-multiset of its bcp's true answer even when
    // several queries fill the same entry concurrently. Only fills read
    // it, so a gated-off fill skips the bookkeeping altogether.
    let track_proven = fills_allowed && !unique_fast;
    if track_proven {
        for t in &partial_expanded {
            *proven.entry(Arc::clone(t)).or_insert(0) += 1;
        }
    }
    let mut remaining_expanded: Vec<Arc<Tuple>> = Vec::new();
    // Bcps whose full truth this query observed, with the truth's
    // multiset size: if the entry ends up holding exactly that many
    // tuples after the fill, it can claim completeness and later probes
    // may serve it without executing.
    let mut completable: HashMap<BcpKey, usize> = HashMap::new();
    for (truth_of, all_in_answer, rows) in slices {
        let total = rows.len();
        for t in rows {
            // Skip the multiset probe once DS has drained (and for cold
            // queries, where it was never populated): the remaining
            // results are provably not duplicates.
            if !ds.is_empty() && ds.remove_one(&t) {
                continue; // the user already has this occurrence
            }
            if track_proven {
                *proven.entry(Arc::clone(&t)).or_insert(0) += 1;
            }
            // An upquery slice is its bcp's whole truth: rows outside
            // the query's select still count toward the entry (and
            // completeness), but not toward the user's answer.
            if all_in_answer || q.matches_select(&t) {
                remaining_expanded.push(t);
            }
        }
        if let (Some(bcp), true) = (truth_of, fills_allowed && total > 0) {
            completable.insert(bcp, total);
        }
    }
    if fills_allowed && !did_upquery {
        // Classic full execution: a basic condition part covers its
        // whole bcp, so the occurrences proven within it are the bcp's
        // truth.
        if unique_fast {
            // Unique rows: each truth tuple was counted exactly once, as
            // a served partial or as a remaining result.
            if parts[0].is_basic {
                let total = partial_expanded.len() + remaining_expanded.len();
                if total > 0 {
                    completable.insert(parts[0].bcp.clone(), total);
                }
            }
        } else {
            for part in &parts {
                if part.is_basic {
                    completable.entry(part.bcp.clone()).or_insert(0);
                }
            }
            if !completable.is_empty() {
                if let Some(bcp) = &single_bcp {
                    if let Some(total) = completable.get_mut(bcp) {
                        *total = proven.values().sum();
                    }
                } else {
                    for (t, n) in proven.iter() {
                        if let Some(total) = completable.get_mut(&def.bcp_of_tuple(t)) {
                            *total += *n;
                        }
                    }
                }
            }
            completable.retain(|_, total| *total > 0);
        }
    }
    // Fills are grouped per bcp so each group pays one admit and one
    // length check; tuples carry their proven occurrence cap.
    let mut fill_groups: Vec<FillGroup> = Vec::new();
    if fills_allowed {
        if unique_fast {
            if let (Some(bcp), false) = (&single_bcp, remaining_expanded.is_empty()) {
                fill_groups.push((
                    bcp.clone(),
                    remaining_expanded
                        .iter()
                        .map(|t| (Arc::clone(t), 1))
                        .collect(),
                ));
            }
        } else if let Some(bcp) = &single_bcp {
            if !proven.is_empty() {
                fill_groups.push((bcp.clone(), proven.drain().collect()));
            }
        } else {
            let mut by_bcp: FxHashMap<BcpKey, Vec<(Arc<Tuple>, usize)>> = FxHashMap::default();
            for (t, cap) in proven.drain() {
                by_bcp
                    .entry(def.bcp_of_tuple(&t))
                    .or_default()
                    .push((t, cap));
            }
            fill_groups.extend(by_bcp);
        }
    }
    // Shard write-back is timed apart from the dedup bookkeeping: it
    // lands under `lock_shard_fill` and is subtracted from `o3_dedup`,
    // so that phase measures dedup/provenance work — not lock waits and
    // view publishes.
    let fill_total = run_pinned_write_back(
        inner,
        pin_epoch,
        touches,
        fill_groups,
        &completable,
        write_back,
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

/// Apply one query's deferred policy touches and fills, shard by shard.
/// Best-effort: the serving path never *waits* on a shard — a declined
/// shard loses one policy hit, and a skipped fill just means the next
/// identical query re-derives through O3. Returns the time spent, so the
/// caller can keep it out of `o3_dedup`.
#[allow(clippy::too_many_arguments)]
fn run_pinned_write_back(
    inner: &Inner,
    pin_epoch: u64,
    touches: &mut Vec<(usize, BcpKey, bool)>,
    fill_groups: Vec<FillGroup>,
    completable: &HashMap<BcpKey, usize>,
    shards: &mut Vec<usize>,
    local: &mut PmvStats,
    trace: &mut TraceScope<'_>,
) -> Duration {
    let fill_by_shard = group_by_shard(
        fill_groups
            .into_iter()
            .map(|(bcp, tuples)| (inner.slot_of(&bcp).0, (bcp, tuples))),
    );
    let touch_by_shard = group_by_shard(
        touches
            .drain(..)
            .map(|(si, bcp, served)| (si, (bcp, served))),
    );
    shards.extend(
        fill_by_shard
            .iter()
            .map(|(s, _)| *s)
            .chain(touch_by_shard.iter().map(|(s, _)| *s)),
    );
    shards.sort_unstable();
    shards.dedup();
    let completable: Vec<(usize, &BcpKey, usize)> = completable
        .iter()
        .map(|(bcp, total)| (inner.slot_of(bcp).0, bcp, *total))
        .collect();
    let cap_f = inner.config.f;
    let mut fill_total = Duration::ZERO;
    for &si in shards.iter() {
        let t_fill = Instant::now();
        let done = inner.run_pinned_write_shard(si, |store, maint_epoch| {
            if store.is_quarantined() {
                return None;
            }
            let admitted_before = local.tuples_admitted;
            let evicted_before = store.evictions();
            // A panic mid-mutation may leave the shard's policy or entry
            // bookkeeping torn: catch it and drain the shard below
            // (removal-only, so nothing stale can ever be served from it
            // later).
            let fill = catch_unwind(AssertUnwindSafe(|| {
                if let Some((_, group)) = touch_by_shard.iter().find(|(s, _)| *s == si) {
                    run_pinned_fault(Site::ShardProbe);
                    for (bcp, served) in group {
                        store.touch(bcp, *served);
                    }
                }
                let Some((_, group)) = fill_by_shard.iter().find(|(s, _)| *s == si) else {
                    return;
                };
                // Re-check the fill gate UNDER exclusive access: a
                // maintenance pass racing this query stores `maint_epoch`
                // before touching any shard lock, so if it already
                // scanned this shard the lock handoff makes that store
                // visible here and the stale fill is skipped; if this
                // check still passes, the fill lands before the scan and
                // maintenance will evict it. (The caller's pre-check is
                // just the fast path.)
                if pin_epoch < maint_epoch {
                    return;
                }
                run_pinned_fault(Site::ShardFill);
                for (bcp, tuples) in group {
                    let residency = store.admit(bcp);
                    if residency == Residency::Probation {
                        local.probations += 1;
                    }
                    if residency != Residency::Resident {
                        continue;
                    }
                    // One length check gates the whole group: an entry
                    // already at its cap F admits nothing, so the
                    // per-tuple duplicate scans below are skipped
                    // entirely in the steady state.
                    let mut len = store.lookup(bcp).map_or(0, <[_]>::len);
                    for (t, cap) in tuples {
                        if len >= cap_f {
                            break;
                        }
                        let mut have = store
                            .lookup(bcp)
                            .map_or(0, |ts| ts.iter().filter(|(x, _)| x == t).count());
                        // Up to the proven multiplicity: equal `Ls'`
                        // tuples are distinct rows of the answer.
                        while have < *cap
                            && len < cap_f
                            && store.push_arc(bcp, Arc::clone(t), pin_epoch)
                        {
                            local.tuples_admitted += 1;
                            have += 1;
                            len += 1;
                        }
                    }
                }
                // Completeness claims: observed-in-full bcps on this
                // shard whose entry now holds exactly the proven truth —
                // with no eviction racing the fill, and the fill gate
                // re-checked under this exclusive access, so the pin
                // reflects every change the claim must cover.
                if store.evictions() == evicted_before {
                    let at = store.inserts_seen();
                    for (s, bcp, total) in &completable {
                        if *s == si && store.lookup(bcp).map_or(0, <[_]>::len) == *total {
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
            Some(WriteBack {
                admitted: local.tuples_admitted - admitted_before,
                evicted: store.evictions().saturating_sub(evicted_before),
                poisoned,
            })
        });
        let Some(done) = done else {
            continue;
        };
        let fill_elapsed = t_fill.elapsed();
        fill_total += fill_elapsed;
        inner.obs.record(Phase::lock_shard_fill, fill_elapsed);
        trace.event(EventKind::Fill {
            shard: si,
            admitted: done.admitted,
            evicted: done.evicted,
            us: fill_elapsed.as_micros() as u64,
        });
        if done.poisoned {
            trace.event(EventKind::Quarantine { shard: si });
        }
    }
    fill_total
}

/// The one `QueryOutcome` builder, shared by the complete-serve, full
/// and degraded exits: closes the query's books (counters, `full` or
/// `degraded` phase, captured faults) and projects
/// the `Ls'` tuples to the user layout. `degraded` is `Some` when O3 did
/// not complete: the outcome then carries only the already-served O2
/// partials, flagged with the reason and a staleness upper bound.
#[allow(clippy::too_many_arguments)]
fn finish(
    inner: &Inner,
    mut local: PmvStats,
    mut trace: TraceScope<'_>,
    fault_cap: Option<CaptureGuard>,
    t_start: Instant,
    (parts, bcp_hit, partial_expanded): (usize, bool, Vec<Arc<Tuple>>),
    (remaining_expanded, timings, exec_stats, ds_leftover): (
        Vec<Arc<Tuple>>,
        QueryTimings,
        ExecStats,
        usize,
    ),
    degraded: Option<DegradeReason>,
) -> QueryOutcome {
    let degraded = degraded.map(|reason| {
        let staleness = inner.verified.staleness();
        inner.obs.record(Phase::o3_exec, timings.exec);
        inner.obs.record(Phase::degraded, t_start.elapsed());
        trace.event(EventKind::Degraded {
            reason: reason.to_string(),
            staleness_us: staleness.as_micros() as u64,
        });
        local.degraded_queries = 1;
        Degradation {
            reason,
            partial_only: true,
            staleness,
        }
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
    let user = |ts: &[Arc<Tuple>]| ts.iter().map(|t| template.user_tuple(t)).collect();
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
