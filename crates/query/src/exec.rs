//! Query execution.
//!
//! [`execute`] is an index-nested-loop-join executor for the template
//! class: it drives from the first selection condition's relation
//! (fetching candidates through a secondary index where one exists), then
//! binds the remaining relations one join edge at a time, probing the join
//! index of each. This mirrors the plans the paper describes for Eqt
//! ("fetches tuples from R using the index on R.f; for each retrieved
//! tuple, the index on S.d is used to search S", Section 2.1).
//!
//! # One level at a time
//!
//! The plan is the paper's; the loop is not written depth-first. An index
//! nested loop over in-memory relations is a chain of dependent cache
//! misses per row (leaf header → key array → posting array → posting rows
//! → heap slot → tuple body), and walked one row at a time the query
//! waits for each of them in turn. The misses of *different* rows are
//! independent, so the executor takes driving candidates [`DRIVE_BATCH`]
//! at a time and moves the whole batch through each join step together
//! (`ExecCtx::advance` / `ExecCtx::flush`), in passes that each prefetch
//! what the next pass reads (group prefetching — Chen, Ailamaki, Gibbons,
//! Mowry, ICDE 2004):
//!
//! 1. gather the probe value of every binding in the frontier;
//! 2. [`AnyIndex::probe_many`] — every key descends to its leaf, then the
//!    leaves' headers, arrays and posting rows are read stage by stage;
//! 3. prefetch the heap slot of every returned row id;
//! 4. load the slots, prefetch the tuple bodies;
//! 5. in order: compare the join attribute, `tick` the budget and the
//!    `ExecRow` fault site, apply the relation's local predicates, and
//!    append the survivors to the next frontier;
//!
//! and `emit` after the last level.
//!
//! **Order.** Every pass walks its input front to back and appends, a
//! level's rows are cut into chunks of at most [`LEVEL_CHUNK`] in
//! `(binding, posting)` order, and a chunk is carried all the way to
//! `emit` before the next is cut. Rows therefore leave in exactly the
//! order of the depth-first loop — driving candidate order, then posting
//! order at each step. The PMV above depends on it: which `F` tuples of a
//! bcp get cached, hence `hit_ratio` and `view_bytes`, follow result
//! order.
//!
//! **Counts.** `ExecStats`, and the firings of the `IndexProbe` (one per
//! probe), `StorageRead` (one per `HeapRelation::get`; the slot prefetch
//! is not a read) and `ExecRow` (one per `tick`) sites, are what the
//! depth-first loop produced for any query that runs to completion. A
//! budget or fault abort still drops all output; because the batch reads
//! ahead, it may have fetched rows the depth-first loop would not have
//! reached. `max_tuples = k` fails exactly when more than `k` tuples
//! would be examined in total, as before.
//!
//! **Constants.** [`DRIVE_BATCH`] and [`LEVEL_CHUNK`] are not options:
//! nothing a caller knows would let it choose better, the measured
//! optimum is flat (chunk caps 64, 256 and 1 024 are within noise of each
//! other on the benchmark), and the second exists only to bound memory.
//!
//! **`unsafe`.** None here. The prefetch hint itself is
//! `pmv_storage::prefetch_read`, the workspace's one wrapper around
//! `_mm_prefetch` (a no-op off x86_64); its `SAFETY` note explains why
//! any address is acceptable.
//!
//! Steps without an index keep a scan of the relation per binding (the
//! rows that join go through the same pass 5), and [`join_from`] — the
//! `ΔR ⋈ (other relations)` join of PMV delete maintenance (Section 3.4)
//! — enters the same loop with a frontier of its one pre-bound tuple.
//!
//! # Views and copies
//!
//! The executor is generic over [`DataView`]: it runs identically on the
//! live [`Database`] or on an immutable [`crate::DbSnapshot`]. Either
//! way it resolves every relation and index it needs to immutable `Arc`
//! versions **up front** and then holds no lock for the rest of the
//! query — O3 is lock-free. The passes are zero-copy: index postings are
//! borrowed slices (no `to_vec`), probe values are borrowed from the
//! bound tuples (no per-probe `Value` clone or `IndexKey` allocation),
//! the level scratch is allocated once per query, and result tuples are
//! built once and handed out as `Arc<Tuple>` (see
//! [`execute_bounded_arc`]).
//!
//! [`execute_scan`] is a deliberately naive nested-loop oracle used by the
//! test suite to validate the indexed executor.

use std::sync::Arc;

use pmv_faultinject::Site;
use pmv_index::{AnyIndex, IndexKey};
use pmv_storage::{prefetch_read, HeapRelation, RowId, Tuple, Value};

use crate::condition::Condition;
use crate::dbview::DataView;
#[allow(unused_imports)] // referenced by docs; concrete callers use it via DataView
use crate::engine::Database;
use crate::template::{AttrRef, QueryInstance, QueryTemplate};
use crate::{BudgetExceeded, QueryError, Result};

/// Resource limits for one execution: a wall-clock deadline and/or a cap
/// on tuples examined. The default ([`ExecBudget::UNLIMITED`]) imposes
/// neither, so [`execute`] behaves exactly as before budgets existed.
///
/// Budgets make O3 *interruptible*: when the PMV already holds partial
/// results for a query, a caller can bound how long it is willing to wait
/// for the full answer and fall back to serving the (sound but
/// incomplete) cached partials flagged as degraded.
#[derive(Clone, Copy, Debug, Default)]
pub struct ExecBudget {
    /// Absolute wall-clock instant after which execution aborts.
    pub deadline: Option<std::time::Instant>,
    /// Maximum number of tuples the executor may examine.
    pub max_tuples: Option<u64>,
}

impl ExecBudget {
    /// No limits: run to completion.
    pub const UNLIMITED: ExecBudget = ExecBudget {
        deadline: None,
        max_tuples: None,
    };
}

/// How many tuples to examine between deadline checks; bounds both the
/// `Instant::now` overhead on the hot path and the overshoot past the
/// deadline.
const DEADLINE_CHECK_STRIDE: usize = 16;

/// Counters describing how a query was executed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Exact-match index probes issued.
    pub index_probes: usize,
    /// Index range scans issued.
    pub range_scans: usize,
    /// Full relation scans that had to run because no index applied.
    pub fallback_scans: usize,
    /// Tuples examined (fetched and predicate-checked).
    pub tuples_examined: usize,
    /// Result tuples produced.
    pub results: usize,
}

impl ExecStats {
    /// Every counter as `(name, value)` pairs — the export feed for
    /// per-execution telemetry (trace `exec` events, metrics gauges).
    pub fn as_pairs(&self) -> [(&'static str, u64); 5] {
        [
            ("index_probes", self.index_probes as u64),
            ("range_scans", self.range_scans as u64),
            ("fallback_scans", self.fallback_scans as u64),
            ("tuples_examined", self.tuples_examined as u64),
            ("results", self.results as u64),
        ]
    }

    /// Fold another execution's counters into this one (used when
    /// aggregating across retries or shards).
    pub fn merge(&mut self, other: &ExecStats) {
        self.index_probes += other.index_probes;
        self.range_scans += other.range_scans;
        self.fallback_scans += other.fallback_scans;
        self.tuples_examined += other.tuples_examined;
        self.results += other.results;
    }
}

/// One join step in the binding order: bind `new_rel` by probing its
/// `new_attr` column with the value of `bound_attr` from an already-bound
/// relation.
struct JoinStep {
    /// Index of the join edge in `t.joins()` this step enforces.
    join_idx: usize,
    new_rel: usize,
    bound_attr: AttrRef,
    new_attr: AttrRef,
}

/// Compute the binding order starting from `start`, walking join edges.
fn plan_join_order(t: &QueryTemplate, start: usize) -> Vec<JoinStep> {
    let n = t.relations().len();
    let mut bound = vec![false; n];
    bound[start] = true;
    let mut steps = Vec::with_capacity(n.saturating_sub(1));
    while steps.len() + 1 < n {
        let step = t
            .joins()
            .iter()
            .enumerate()
            .find_map(|(ji, j)| {
                if bound[j.left.relation] && !bound[j.right.relation] {
                    Some(JoinStep {
                        join_idx: ji,
                        new_rel: j.right.relation,
                        bound_attr: j.left,
                        new_attr: j.right,
                    })
                } else if bound[j.right.relation] && !bound[j.left.relation] {
                    Some(JoinStep {
                        join_idx: ji,
                        new_rel: j.left.relation,
                        bound_attr: j.right,
                        new_attr: j.left,
                    })
                } else {
                    None
                }
            })
            .expect("join graph is connected (validated at template build)");
        bound[step.new_rel] = true;
        steps.push(step);
    }
    steps
}

/// Join edges *not* enforced by the spanning binding order (cyclic /
/// redundant edges); only these need re-checking at emit.
fn redundant_joins(t: &QueryTemplate, steps: &[JoinStep]) -> Vec<usize> {
    (0..t.joins().len())
        .filter(|ji| !steps.iter().any(|s| s.join_idx == *ji))
        .collect()
}

/// Everything the executor resolved from the [`DataView`] before the
/// join loop: immutable relation versions and (optional) index handles.
/// Once this exists, execution never touches the view — or any lock —
/// again.
struct Resolved {
    /// Current version of each template relation, by relation index.
    rels: Vec<Arc<HeapRelation>>,
    /// Pre-resolved join-probe index for each step (same order as the
    /// step list), so the inner loop borrows posting slices without
    /// re-borrowing the view.
    step_indexes: Vec<Option<Arc<AnyIndex>>>,
    /// Pre-resolved driving-condition index, if any.
    drive_index: Option<Arc<AnyIndex>>,
}

fn resolve<V: DataView>(
    view: &V,
    t: &QueryTemplate,
    steps: &[JoinStep],
    drive: usize,
    drive_cond: Option<usize>,
) -> Result<Resolved> {
    let rels: Vec<Arc<HeapRelation>> = t
        .relations()
        .iter()
        .map(|name| view.relation_version(name))
        .collect::<Result<_>>()?;
    let step_indexes = steps
        .iter()
        .map(|s| view.index_arc(&t.relations()[s.new_rel], &[s.new_attr.column]))
        .collect();
    let drive_index = drive_cond.and_then(|ci| {
        let col = t.cond_templates()[ci].attr.column;
        view.index_arc(&t.relations()[drive], &[col])
    });
    Ok(Resolved {
        rels,
        step_indexes,
        drive_index,
    })
}

/// Driving candidates that advance through the join steps together.
/// A constant, not an option: it only has to be large enough that a
/// batch's cache misses overlap (a core keeps 10–20 loads in flight) and
/// small enough that what a batch prefetches is still in cache when the
/// next pass reads it; 64 drive rows with the fan-outs of the paper's
/// templates sit well inside both.
pub const DRIVE_BATCH: usize = 64;

/// Most rows one join level fetches, filters and hands to the next level
/// at a time. A join step can fan a batch out without bound (one posting
/// list may hold a whole relation); cutting each level's work into chunks
/// of this size keeps every scratch buffer — and so the executor's memory
/// — bounded by `steps × LEVEL_CHUNK`, whatever the data. A constant for
/// the same reason as [`DRIVE_BATCH`].
pub const LEVEL_CHUNK: usize = 256;

/// Scratch of one level of the loop (the drive, or one join step),
/// allocated once per query and reused by every batch and chunk. A
/// binding is `n` slots, one per template relation, `None` while unbound;
/// a frontier is bindings laid end to end.
#[derive(Default)]
struct Level<'a> {
    /// Probe value of each binding of the frontier being expanded.
    keys: Vec<&'a Value>,
    /// Posting list of each of those bindings.
    postings: Vec<&'a [RowId]>,
    /// Current chunk: `(binding, candidate row)` in output order.
    rows: Vec<(usize, RowId)>,
    /// The chunk's live rows, fetched.
    fetched: Vec<(usize, &'a Tuple)>,
    /// Bindings that survived this level: the next level's frontier.
    next: Vec<Option<&'a Tuple>>,
}

/// Shared executor context.
struct ExecCtx<'a> {
    t: &'a QueryTemplate,
    /// Selection conditions grouped by relation: `(cond index, condition)`.
    conds_by_rel: Vec<Vec<(usize, &'a Condition)>>,
    /// Whether `conds_by_rel` is enforced (not for the §3.4 joins).
    check_conds: bool,
    steps: &'a [JoinStep],
    r: &'a Resolved,
    /// Join edges to re-check at emit (cyclic edges only; spanning edges
    /// are enforced by probe construction).
    redundant: Vec<usize>,
    /// Scratch of each join step, same order as `steps`.
    levels: Vec<Level<'a>>,
    stats: ExecStats,
    out: Vec<Arc<Tuple>>,
    budget: ExecBudget,
    /// First budget/fault error hit; set once, then every loop unwinds.
    abort: Option<QueryError>,
}

impl<'a> ExecCtx<'a> {
    fn new(
        t: &'a QueryTemplate,
        conds_by_rel: Vec<Vec<(usize, &'a Condition)>>,
        check_conds: bool,
        steps: &'a [JoinStep],
        r: &'a Resolved,
        budget: ExecBudget,
    ) -> Self {
        ExecCtx {
            t,
            conds_by_rel,
            check_conds,
            steps,
            r,
            redundant: redundant_joins(t, steps),
            levels: steps.iter().map(|_| Level::default()).collect(),
            stats: ExecStats::default(),
            out: Vec::new(),
            budget,
            abort: None,
        }
    }

    /// The run's result: the first budget or fault error if one stopped
    /// it (whatever was emitted until then is dropped), else the rows.
    fn finish(self) -> Result<(Vec<Arc<Tuple>>, ExecStats)> {
        match self.abort {
            Some(err) => Err(err),
            None => Ok((self.out, self.stats)),
        }
    }

    /// Do all predicates local to `rel` hold for `tuple`? (fixed preds and
    /// selection conditions; join predicates are enforced by construction
    /// of the probe, and re-checked for redundant join edges at emit.)
    fn local_predicates_hold(&self, rel: usize, tuple: &Tuple) -> bool {
        for fp in self.t.fixed_preds() {
            if fp.attr.relation == rel && tuple.get(fp.attr.column) != &fp.value {
                return false;
            }
        }
        if self.check_conds {
            for &(i, c) in &self.conds_by_rel[rel] {
                let col = self.t.cond_templates()[i].attr.column;
                if !c.matches(tuple.get(col)) {
                    return false;
                }
            }
        }
        true
    }

    /// Emit the expanded-layout tuple for a full binding. Only redundant
    /// (cyclic) join edges are re-checked — the spanning edges were
    /// enforced by the probes that built the binding. The per-column
    /// `Value` clone here is the query's single materialization point:
    /// the values move into the output tuple, which is then shared as
    /// `Arc<Tuple>` all the way through store and outcome.
    fn emit(&mut self, bindings: &[Option<&Tuple>]) {
        for &ji in &self.redundant {
            let j = &self.t.joins()[ji];
            let l = bindings[j.left.relation].expect("bound").get(j.left.column);
            let r = bindings[j.right.relation]
                .expect("bound")
                .get(j.right.column);
            if l != r {
                return;
            }
        }
        let values: Vec<Value> = self
            .t
            .expanded_list()
            .iter()
            .map(|a| bindings[a.relation].expect("bound").get(a.column).clone())
            .collect();
        self.out.push(Arc::new(Tuple::new(values)));
        self.stats.results += 1;
    }

    /// Account one examined tuple against the budget and the per-row
    /// fault site. Returns `false` (with `self.abort` set) when execution
    /// must stop; loops at every depth check `abort` and unwind.
    fn tick(&mut self) -> bool {
        self.stats.tuples_examined += 1;
        if let Err(f) = pmv_faultinject::fire(Site::ExecRow) {
            self.abort = Some(QueryError::Fault(f.site.as_str().to_string()));
            return false;
        }
        if let Some(max) = self.budget.max_tuples {
            if self.stats.tuples_examined as u64 > max {
                self.abort = Some(QueryError::Budget(BudgetExceeded::Tuples));
                return false;
            }
        }
        if let Some(deadline) = self.budget.deadline {
            if self
                .stats
                .tuples_examined
                .is_multiple_of(DEADLINE_CHECK_STRIDE)
                && std::time::Instant::now() >= deadline
            {
                self.abort = Some(QueryError::Budget(BudgetExceeded::Deadline));
                return false;
            }
        }
        true
    }

    /// Expand `frontier` — bindings that have `steps[..depth]` bound —
    /// through the remaining join steps and emit what survives, in
    /// frontier order. One level at a time: every binding's probe value
    /// is gathered, the whole batch is probed with one
    /// [`AnyIndex::probe_many`], and the returned rows go through
    /// [`Self::flush`] a chunk at a time. Chunks are cut from the
    /// `(binding, posting)` sequence in order and each is carried to
    /// `emit` before the next is cut, so rows leave in the order a
    /// depth-first nested loop produces them.
    fn advance(&mut self, depth: usize, frontier: &[Option<&'a Tuple>]) {
        let n = self.t.relations().len();
        let Some(step) = self.steps.get(depth) else {
            for binding in frontier.chunks_exact(n) {
                self.emit(binding);
            }
            return;
        };
        let mut lv = std::mem::take(&mut self.levels[depth]);
        lv.keys.clear();
        lv.keys.extend(frontier.chunks_exact(n).map(|binding| {
            binding[step.bound_attr.relation]
                .expect("bound side of join step")
                .get(step.bound_attr.column)
        }));
        match self.r.step_indexes[depth].as_deref() {
            Some(idx) => {
                // A posting may be stale; `flush` re-checks the column.
                let join = Some(step.new_attr.column);
                self.stats.index_probes += lv.keys.len();
                lv.postings.clear();
                idx.probe_many(&lv.keys, &mut lv.postings);
                let rows: usize = lv.postings.iter().map(|p| p.len()).sum();
                lv.rows.reserve(rows.min(LEVEL_CHUNK));
                for b in 0..lv.postings.len() {
                    let mut rest = lv.postings[b];
                    while !rest.is_empty() && self.abort.is_none() {
                        let room = LEVEL_CHUNK - lv.rows.len();
                        let (now, later) = rest.split_at(rest.len().min(room));
                        lv.rows.extend(now.iter().map(|&row| (b, row)));
                        rest = later;
                        if lv.rows.len() == LEVEL_CHUNK {
                            self.flush(&mut lv, frontier, step.new_rel, join, depth + 1);
                        }
                    }
                }
                self.flush(&mut lv, frontier, step.new_rel, join, depth + 1);
            }
            // No index on the join attribute: one scan of the relation
            // per binding, keeping the rows that join.
            None => {
                let rel: &'a HeapRelation = &self.r.rels[step.new_rel];
                'scans: for b in 0..lv.keys.len() {
                    self.stats.fallback_scans += 1;
                    for (_, tuple) in rel.iter() {
                        if tuple.get(step.new_attr.column) != lv.keys[b] {
                            continue;
                        }
                        lv.fetched.push((b, tuple));
                        if lv.fetched.len() == LEVEL_CHUNK {
                            self.flush(&mut lv, frontier, step.new_rel, None, depth + 1);
                            if self.abort.is_some() {
                                break 'scans;
                            }
                        }
                    }
                }
                self.flush(&mut lv, frontier, step.new_rel, None, depth + 1);
            }
        }
        self.levels[depth] = lv;
    }

    /// Carry one chunk of candidates for relation `rel` — `lv.rows` still
    /// to be fetched, `lv.fetched` already in hand, each tagged with the
    /// `frontier` binding it extends — through the rest of the level and
    /// on to `next_depth`:
    ///
    /// 1. prefetch the heap slot of every row;
    /// 2. load the slots (`StorageRead` fires once per row, as `get`
    ///    always has) and prefetch the bodies of the live tuples;
    /// 3. in order: drop a tuple whose `join` column differs from its
    ///    binding's probe value (a stale posting), [`Self::tick`] the
    ///    budget and the `ExecRow` site, apply the relation's local
    ///    predicates, and extend the binding.
    ///
    /// Between a prefetch and the pass that reads its line lies a whole
    /// pass over the chunk, which is what lets the misses overlap.
    fn flush(
        &mut self,
        lv: &mut Level<'a>,
        frontier: &[Option<&'a Tuple>],
        rel: usize,
        join: Option<usize>,
        next_depth: usize,
    ) {
        if self.abort.is_some() || (lv.rows.is_empty() && lv.fetched.is_empty()) {
            return;
        }
        let n = self.t.relations().len();
        let heap: &'a HeapRelation = &self.r.rels[rel];
        for &(_, row) in &lv.rows {
            heap.prefetch(row);
        }
        lv.fetched.reserve(lv.rows.len());
        for (b, row) in lv.rows.drain(..) {
            if let Some(tuple) = heap.get(row) {
                let body = tuple.values();
                prefetch_read(body.as_ptr(), std::mem::size_of_val(body));
                lv.fetched.push((b, tuple));
            }
        }
        lv.next.clear();
        lv.next.reserve(lv.fetched.len() * n);
        for (b, tuple) in lv.fetched.drain(..) {
            if join.is_some_and(|col| tuple.get(col) != lv.keys[b]) {
                continue;
            }
            if !self.tick() {
                return;
            }
            if !self.local_predicates_hold(rel, tuple) {
                continue;
            }
            let at = lv.next.len();
            lv.next.extend_from_slice(&frontier[b * n..][..n]);
            lv.next[at + rel] = Some(tuple);
        }
        self.advance(next_depth, &lv.next);
    }
}

/// Unwrap executor output for callers that want owned tuples. Each `Arc`
/// has refcount 1 here, so `try_unwrap` moves the tuple out without
/// copying.
fn unarc(v: Vec<Arc<Tuple>>) -> Vec<Tuple> {
    v.into_iter()
        .map(|t| Arc::try_unwrap(t).unwrap_or_else(|a| (*a).clone()))
        .collect()
}

/// Execute `q` with index nested loops, returning `Ls'`-layout result
/// tuples and execution stats.
pub fn execute<V: DataView>(view: &V, q: &QueryInstance) -> Result<(Vec<Tuple>, ExecStats)> {
    execute_bounded(view, q, ExecBudget::UNLIMITED)
}

/// [`execute`] under a resource budget. Aborts with
/// [`QueryError::Budget`] as soon as the deadline passes or the tuple cap
/// is hit; any partially-built output is discarded (the PMV serving path
/// falls back to its cached partials instead).
pub fn execute_bounded<V: DataView>(
    view: &V,
    q: &QueryInstance,
    budget: ExecBudget,
) -> Result<(Vec<Tuple>, ExecStats)> {
    let (out, stats) = execute_bounded_arc(view, q, budget)?;
    Ok((unarc(out), stats))
}

/// [`execute_bounded`] returning shared tuples — the PMV serving path's
/// entry point. Results flow as `Arc<Tuple>` into the store, the DS
/// multiset, and the query outcome without ever being deep-copied.
pub fn execute_bounded_arc<V: DataView>(
    view: &V,
    q: &QueryInstance,
    budget: ExecBudget,
) -> Result<(Vec<Arc<Tuple>>, ExecStats)> {
    let t = q.template().as_ref();
    execute_with_conditions(view, t, q.conds(), true, budget)
}

/// Targeted upquery: recompute exactly one bcp's result slice with a
/// bounded, keyed execution — the partial-state repair primitive. `q`
/// must be the single-bcp instance built by
/// `PartialViewDef::bcp_query`, so the drive-side index probe keys the
/// scan to the bcp's condition values and the cost is the slice's
/// fanout, not the relation. Semantically identical to
/// [`execute_bounded_arc`] plus its own fault-injection site
/// ([`Site::Upquery`]): refills must be breakable independently of full
/// O3 runs.
pub fn upquery_fill<V: DataView>(
    view: &V,
    q: &QueryInstance,
    budget: ExecBudget,
) -> Result<(Vec<Arc<Tuple>>, ExecStats)> {
    if let Err(f) = pmv_faultinject::fire(Site::Upquery) {
        return Err(QueryError::Fault(f.site.as_str().to_string()));
    }
    execute_bounded_arc(view, q, budget)
}

/// Core of [`execute`], also reused by [`join_from`] with selection
/// conditions disabled.
fn execute_with_conditions<V: DataView>(
    view: &V,
    t: &QueryTemplate,
    conds: &[Condition],
    check_conds: bool,
    budget: ExecBudget,
) -> Result<(Vec<Arc<Tuple>>, ExecStats)> {
    if let Err(f) = pmv_faultinject::fire(Site::ExecStart) {
        return Err(QueryError::Fault(f.site.as_str().to_string()));
    }
    let n = t.relations().len();
    let mut conds_by_rel: Vec<Vec<(usize, &Condition)>> = vec![Vec::new(); n];
    for (i, c) in conds.iter().enumerate() {
        conds_by_rel[t.cond_templates()[i].attr.relation].push((i, c));
    }
    let (drive, drive_cond) = if check_conds {
        choose_drive(view, t, conds)
    } else {
        (0, None)
    };

    let steps = plan_join_order(t, drive);
    // Resolve every relation version and index handle now; from here on
    // execution reads immutable data only — no locks, no view access.
    let r = resolve(view, t, &steps, drive, drive_cond)?;
    let mut ctx = ExecCtx::new(t, conds_by_rel, check_conds, &steps, &r, budget);

    // The driving relation is level zero of the loop: its candidates are
    // fetched and filtered like any join level's, extending the one
    // all-unbound binding, `DRIVE_BATCH` at a time.
    let candidates = driving_candidates(&mut ctx, drive, drive_cond);
    let unbound = vec![None; n];
    let mut lv = Level::default();
    for batch in candidates.chunks(DRIVE_BATCH) {
        if ctx.abort.is_some() {
            break;
        }
        lv.rows.extend(batch.iter().map(|&row| (0, row)));
        ctx.flush(&mut lv, &unbound, drive, None, 0);
    }
    ctx.finish()
}

/// Candidate row ids for the driving relation: through an index on the
/// first condition's attribute when possible, else one full scan.
fn driving_candidates(
    ctx: &mut ExecCtx<'_>,
    drive: usize,
    drive_cond: Option<usize>,
) -> Vec<RowId> {
    let mut rows = Vec::new();
    if let (Some(ci), Some(idx)) = (drive_cond, ctx.r.drive_index.as_deref()) {
        let cond = ctx.conds_by_rel[drive]
            .iter()
            .find(|(i, _)| *i == ci)
            .map(|(_, c)| *c);
        match cond {
            Some(Condition::Equality(values)) => {
                // Borrowed probes: no IndexKey materialized, no Value
                // clone, posting lists borrowed in place.
                ctx.stats.index_probes += values.len();
                let keys: Vec<&Value> = values.iter().collect();
                let mut postings = Vec::new();
                idx.probe_many(&keys, &mut postings);
                rows.reserve(postings.iter().map(|p| p.len()).sum());
                for posting in postings {
                    rows.extend_from_slice(posting);
                }
                return rows;
            }
            // Index range scans; an unordered (hash) index refuses with a
            // typed error, and we degrade to the fallback heap scan below.
            Some(Condition::Intervals(intervals)) => {
                let scanned = intervals.iter().try_for_each(|iv| {
                    let lo = ref_bound_to_key(&iv.lo);
                    let hi = ref_bound_to_key(&iv.hi);
                    idx.range_rows(as_key_bound(&lo), as_key_bound(&hi), &mut rows)
                });
                match scanned {
                    Ok(()) => {
                        ctx.stats.range_scans += intervals.len();
                        return rows;
                    }
                    Err(pmv_index::IndexError::RangeOnHashIndex) => rows.clear(),
                }
            }
            None => {}
        }
    }
    // No applicable index: scan once.
    ctx.stats.fallback_scans += 1;
    rows.extend(ctx.r.rels[drive].iter().map(|(row, _)| row));
    rows
}

/// Estimate rows matching a set of intervals on `col` using the
/// column's observed [min, max] span (uniformity assumption). Intervals
/// with unbounded or non-integer endpoints fall back to charging 10% of
/// the relation each.
fn estimate_interval_rows(
    rs: &crate::table_stats::RelationStats,
    col: usize,
    intervals: &[crate::condition::Interval],
) -> f64 {
    use std::ops::Bound;
    let fallback = intervals.len() as f64 * rs.rows as f64 * 0.1;
    let span = match (&rs.columns[col].min, &rs.columns[col].max) {
        (Some(Value::Int(lo)), Some(Value::Int(hi))) if hi > lo => (*lo, *hi),
        _ => return fallback,
    };
    let width = (span.1 - span.0) as f64;
    let mut est = 0.0f64;
    for iv in intervals {
        let lo = match &iv.lo {
            Bound::Included(Value::Int(v)) | Bound::Excluded(Value::Int(v)) => *v,
            Bound::Unbounded => span.0,
            _ => return fallback,
        };
        let hi = match &iv.hi {
            Bound::Included(Value::Int(v)) | Bound::Excluded(Value::Int(v)) => *v,
            Bound::Unbounded => span.1,
            _ => return fallback,
        };
        est += match &rs.columns[col].histogram {
            // Equi-depth histogram: accurate under skew.
            Some(h) => h.estimate_range_rows(lo, hi),
            // Uniformity over [min, max] otherwise.
            None => {
                let covered = ((hi.min(span.1) - lo.max(span.0)).max(0)) as f64;
                rs.rows as f64 * (covered / width).min(1.0)
            }
        };
    }
    est.min(rs.rows as f64)
}

/// Pick the driving condition: without statistics, the first condition
/// (the paper's plans drive from the first selection); with statistics
/// (after `Database::analyze`), the condition with the lowest
/// estimated candidate-row count, preferring indexed attributes.
/// Without conditions, relation 0 is scanned. [`explain`] prints this
/// same choice.
fn choose_drive<V: DataView>(
    view: &V,
    t: &QueryTemplate,
    conds: &[Condition],
) -> (usize, Option<usize>) {
    if conds.is_empty() {
        return (0, None);
    }
    let default = (t.cond_templates()[0].attr.relation, Some(0));
    let Some(stats) = view.stats_view() else {
        return default;
    };
    let mut best: Option<(usize, f64)> = None;
    for (i, c) in conds.iter().enumerate() {
        let attr = t.cond_templates()[i].attr;
        let rel_name = &t.relations()[attr.relation];
        let Some(rs) = stats.relation(rel_name) else {
            continue;
        };
        let indexed = view.index_arc(rel_name, &[attr.column]).is_some();
        let est = if !indexed {
            // Driving an unindexed condition scans the whole relation.
            rs.rows as f64
        } else {
            match c {
                Condition::Equality(vs) => vs.len() as f64 * rs.eq_selectivity_rows(attr.column),
                Condition::Intervals(ivs) => estimate_interval_rows(rs, attr.column, ivs),
            }
        };
        if best.is_none_or(|(_, b)| est < b) {
            best = Some((i, est));
        }
    }
    match best {
        Some((i, _)) => (t.cond_templates()[i].attr.relation, Some(i)),
        None => default,
    }
}

fn ref_bound_to_key(b: &std::ops::Bound<Value>) -> std::ops::Bound<IndexKey> {
    match b {
        std::ops::Bound::Included(v) => std::ops::Bound::Included(IndexKey::single(v.clone())),
        std::ops::Bound::Excluded(v) => std::ops::Bound::Excluded(IndexKey::single(v.clone())),
        std::ops::Bound::Unbounded => std::ops::Bound::Unbounded,
    }
}

fn as_key_bound(b: &std::ops::Bound<IndexKey>) -> std::ops::Bound<&IndexKey> {
    match b {
        std::ops::Bound::Included(k) => std::ops::Bound::Included(k),
        std::ops::Bound::Excluded(k) => std::ops::Bound::Excluded(k),
        std::ops::Bound::Unbounded => std::ops::Bound::Unbounded,
    }
}

/// Human-readable plan description: driving relation and access method,
/// then each join step with its probe method — the shape a PostgreSQL
/// EXPLAIN would print for the paper's index-nested-loop plans.
pub fn explain<V: DataView>(view: &V, q: &QueryInstance) -> String {
    let t = q.template().as_ref();
    let (drive, drive_cond) = choose_drive(view, t, q.conds());
    let drive_name = &t.relations()[drive];
    let mut out = String::new();
    let indexed = drive_cond.and_then(|ci| {
        let col = t.cond_templates()[ci].attr.column;
        let idx = view.index_arc(drive_name, &[col])?;
        Some((&q.conds()[ci], &t.schema(drive).column(col).name, idx))
    });
    let access = match indexed {
        Some((Condition::Equality(vs), col, _)) => {
            format!(
                "index probes on {drive_name}.{col} ({} disjuncts)",
                vs.len()
            )
        }
        Some((Condition::Intervals(ivs), col, idx)) if idx.supports_range() => {
            format!(
                "index range scans on {drive_name}.{col} ({} intervals)",
                ivs.len()
            )
        }
        _ => format!("sequential scan of {drive_name}"),
    };
    out.push_str(&format!("drive: {drive_name} via {access}\n"));
    for step in plan_join_order(t, drive) {
        let rel_name = &t.relations()[step.new_rel];
        let col_name = t
            .schema(step.new_rel)
            .column(step.new_attr.column)
            .name
            .clone();
        let bound_rel = &t.relations()[step.bound_attr.relation];
        let bound_col = t
            .schema(step.bound_attr.relation)
            .column(step.bound_attr.column)
            .name
            .clone();
        let method = if view.index_arc(rel_name, &[step.new_attr.column]).is_some() {
            "index probe"
        } else {
            "sequential scan"
        };
        out.push_str(&format!(
            "join: {rel_name}.{col_name} = {bound_rel}.{bound_col} via {method}\n"
        ));
    }
    out.push_str(&format!(
        "project: {} columns (Ls' = {})\n",
        t.select_list().len(),
        t.expanded_list().len()
    ));
    out
}

/// Materialize the template's containing view `V_M`: the join under
/// `Cjoin` alone (no selection conditions), in `Ls'` layout. This is what
/// a traditional MV for the template stores (the paper's Figure 2).
pub fn full_join<V: DataView>(view: &V, t: &QueryTemplate) -> Result<(Vec<Tuple>, ExecStats)> {
    let (out, stats) = execute_with_conditions(view, t, &[], false, ExecBudget::UNLIMITED)?;
    Ok((unarc(out), stats))
}

/// Naive nested-loop oracle: cross product with predicate evaluation.
/// Exponential in relation sizes — tests only.
pub fn execute_scan<V: DataView>(view: &V, q: &QueryInstance) -> Result<Vec<Tuple>> {
    let t = q.template().as_ref();
    let n = t.relations().len();
    let rels: Vec<Arc<HeapRelation>> = t
        .relations()
        .iter()
        .map(|name| view.relation_version(name))
        .collect::<Result<_>>()?;
    let mut out = Vec::new();
    let mut bindings: Vec<Option<&Tuple>> = vec![None; n];
    scan_rec(t, q, &rels, 0, &mut bindings, &mut out);
    Ok(out)
}

fn scan_rec<'a>(
    t: &QueryTemplate,
    q: &QueryInstance,
    rels: &'a [Arc<HeapRelation>],
    rel: usize,
    bindings: &mut Vec<Option<&'a Tuple>>,
    out: &mut Vec<Tuple>,
) {
    if rel == rels.len() {
        // All bound: evaluate Cjoin ∧ Cselect.
        for j in t.joins() {
            let l = bindings[j.left.relation].unwrap().get(j.left.column);
            let r = bindings[j.right.relation].unwrap().get(j.right.column);
            if l != r {
                return;
            }
        }
        for fp in t.fixed_preds() {
            if bindings[fp.attr.relation].unwrap().get(fp.attr.column) != &fp.value {
                return;
            }
        }
        for (i, c) in q.conds().iter().enumerate() {
            let attr = t.cond_templates()[i].attr;
            if !c.matches(bindings[attr.relation].unwrap().get(attr.column)) {
                return;
            }
        }
        let values: Vec<Value> = t
            .expanded_list()
            .iter()
            .map(|a| bindings[a.relation].unwrap().get(a.column).clone())
            .collect();
        out.push(Tuple::new(values));
        return;
    }
    for (_, tuple) in rels[rel].iter() {
        bindings[rel] = Some(tuple);
        scan_rec(t, q, rels, rel + 1, bindings, out);
    }
    bindings[rel] = None;
}

/// Join a single (possibly already-deleted) tuple of relation `rel_idx`
/// with all other template relations under `Cjoin` only, returning
/// `Ls'`-layout join results. This is the `ΔR_i ⋈ R_j (j ≠ i)` computation
/// of the paper's delete/update maintenance (Section 3.4).
pub fn join_from<V: DataView>(
    view: &V,
    t: &QueryTemplate,
    rel_idx: usize,
    tuple: &Tuple,
) -> Result<Vec<Tuple>> {
    let n = t.relations().len();
    if let Err(f) = pmv_faultinject::fire(Site::MaintJoin) {
        return Err(QueryError::Fault(f.site.as_str().to_string()));
    }
    // Fixed predicates on the delta tuple's own relation must hold, or the
    // tuple can never appear in a view row.
    for fp in t.fixed_preds() {
        if fp.attr.relation == rel_idx && tuple.get(fp.attr.column) != &fp.value {
            return Ok(Vec::new());
        }
    }
    let steps = plan_join_order(t, rel_idx);
    let r = resolve(view, t, &steps, rel_idx, None)?;
    let no_conds = vec![Vec::new(); n];
    let mut ctx = ExecCtx::new(t, no_conds, false, &steps, &r, ExecBudget::UNLIMITED);
    // A frontier of one: the delta tuple stands where the driving level
    // would have bound a heap row.
    let mut frontier = vec![None; n];
    frontier[rel_idx] = Some(tuple);
    ctx.advance(0, &frontier);
    Ok(unarc(ctx.finish()?.0))
}

/// [`join_from`] with *several* relations pre-bound to (already-deleted)
/// tuples: the cross-delta maintenance pass. A transaction deleting
/// matching tuples from two base relations leaves derivations that no
/// single-relation `ΔR_i ⋈ R_j` can see (each join reads the others'
/// deletions already applied); binding every deleted tuple explicitly
/// and scanning only the remaining relations from the current view
/// recovers exactly those combinations. Returns `Ls'`-layout rows under
/// `Cjoin` (no selection conditions), like `join_from`.
pub fn join_fixed<V: DataView>(
    view: &V,
    t: &QueryTemplate,
    fixed: &[(usize, &Tuple)],
) -> Result<Vec<Tuple>> {
    let n = t.relations().len();
    if let Err(f) = pmv_faultinject::fire(Site::MaintJoin) {
        return Err(QueryError::Fault(f.site.as_str().to_string()));
    }
    let mut bindings: Vec<Option<&Tuple>> = vec![None; n];
    for &(rel, tuple) in fixed {
        debug_assert!(bindings[rel].is_none(), "relation {rel} bound twice");
        bindings[rel] = Some(tuple);
    }
    // Fixed predicates on bound relations must hold, or no view row can
    // contain this combination.
    for fp in t.fixed_preds() {
        if let Some(b) = bindings[fp.attr.relation] {
            if b.get(fp.attr.column) != &fp.value {
                return Ok(Vec::new());
            }
        }
    }
    // Join conditions with both sides bound prune the combination
    // before any scan.
    for j in t.joins() {
        if let (Some(l), Some(r)) = (bindings[j.left.relation], bindings[j.right.relation]) {
            if l.get(j.left.column) != r.get(j.right.column) {
                return Ok(Vec::new());
            }
        }
    }
    let unbound: Vec<usize> = (0..n).filter(|&i| bindings[i].is_none()).collect();
    let rels: Vec<Arc<HeapRelation>> = unbound
        .iter()
        .map(|&i| view.relation_version(&t.relations()[i]))
        .collect::<Result<_>>()?;
    let mut out = Vec::new();
    fixed_rec(t, &unbound, &rels, 0, &mut bindings, &mut out);
    Ok(out)
}

fn fixed_rec<'a>(
    t: &QueryTemplate,
    unbound: &[usize],
    rels: &'a [Arc<HeapRelation>],
    depth: usize,
    bindings: &mut Vec<Option<&'a Tuple>>,
    out: &mut Vec<Tuple>,
) {
    if depth == unbound.len() {
        // All bound: Cjoin ∧ fixed preds (no Cselect — maintenance sees
        // every cached bcp).
        for j in t.joins() {
            let l = bindings[j.left.relation].unwrap().get(j.left.column);
            let r = bindings[j.right.relation].unwrap().get(j.right.column);
            if l != r {
                return;
            }
        }
        for fp in t.fixed_preds() {
            if bindings[fp.attr.relation].unwrap().get(fp.attr.column) != &fp.value {
                return;
            }
        }
        let values: Vec<Value> = t
            .expanded_list()
            .iter()
            .map(|a| bindings[a.relation].unwrap().get(a.column).clone())
            .collect();
        out.push(Tuple::new(values));
        return;
    }
    let rel = unbound[depth];
    'rows: for (_, tuple) in rels[depth].iter() {
        // Prune: join conditions fully bound once `rel` is set.
        for j in t.joins() {
            let (this, other) = if j.left.relation == rel {
                (j.left, j.right)
            } else if j.right.relation == rel {
                (j.right, j.left)
            } else {
                continue;
            };
            if let Some(b) = bindings[other.relation] {
                if tuple.get(this.column) != b.get(other.column) {
                    continue 'rows;
                }
            }
        }
        bindings[rel] = Some(tuple);
        fixed_rec(t, unbound, rels, depth + 1, bindings, out);
    }
    bindings[rel] = None;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::condition::Interval;
    use crate::template::TemplateBuilder;
    use pmv_index::IndexDef;
    use pmv_storage::{tuple, Column, ColumnType, Schema};
    use std::sync::Arc;

    /// Two-relation database shaped like the paper's Figure 3 example:
    /// R(a, c, f), S(d, e, g), join on R.c = S.d.
    fn setup() -> (Database, Arc<QueryTemplate>) {
        let mut db = Database::new();
        db.create_relation(Schema::new(
            "r",
            vec![
                Column::new("a", ColumnType::Int),
                Column::new("c", ColumnType::Int),
                Column::new("f", ColumnType::Int),
            ],
        ))
        .unwrap();
        db.create_relation(Schema::new(
            "s",
            vec![
                Column::new("d", ColumnType::Int),
                Column::new("e", ColumnType::Int),
                Column::new("g", ColumnType::Int),
            ],
        ))
        .unwrap();
        // Figure 3 data.
        db.load(
            "r",
            vec![
                tuple![1i64, 4i64, 1i64],
                tuple![1i64, 5i64, 1i64],
                tuple![7i64, 6i64, 3i64],
            ],
        )
        .unwrap();
        db.load(
            "s",
            vec![
                tuple![4i64, 2i64, 7i64],
                tuple![5i64, 2i64, 7i64],
                tuple![6i64, 8i64, 9i64],
            ],
        )
        .unwrap();
        db.create_index(IndexDef::btree("r", vec![2])).unwrap(); // R.f
        db.create_index(IndexDef::btree("s", vec![0])).unwrap(); // S.d
        db.create_index(IndexDef::btree("s", vec![2])).unwrap(); // S.g
        let t = TemplateBuilder::new("Eqt")
            .relation(db.schema("r").unwrap())
            .relation(db.schema("s").unwrap())
            .join("r", "c", "s", "d")
            .unwrap()
            .select("r", "a")
            .unwrap()
            .select("s", "e")
            .unwrap()
            .cond_eq("r", "f")
            .unwrap()
            .cond_eq("s", "g")
            .unwrap()
            .build()
            .unwrap();
        (db, t)
    }

    #[test]
    fn indexed_matches_figure3_mv() {
        let (db, t) = setup();
        // Query all hot/cold pairs: f in {1,3}, g in {7,9}: the containing
        // MV of Figure 3 has rows (1,2,1,7) x2 and (7,8,3,9).
        let q = t
            .bind(vec![
                Condition::Equality(vec![Value::Int(1), Value::Int(3)]),
                Condition::Equality(vec![Value::Int(7), Value::Int(9)]),
            ])
            .unwrap();
        let (mut rows, stats) = execute(&db, &q).unwrap();
        rows.sort();
        assert_eq!(
            rows,
            vec![
                tuple![1i64, 2i64, 1i64, 7i64],
                tuple![1i64, 2i64, 1i64, 7i64],
                tuple![7i64, 8i64, 3i64, 9i64],
            ]
        );
        assert!(stats.index_probes > 0);
        assert_eq!(stats.fallback_scans, 0);
        assert_eq!(stats.results, 3);
    }

    #[test]
    fn snapshot_executes_identically_to_live_database() {
        let (db, t) = setup();
        let q = t
            .bind(vec![
                Condition::Equality(vec![Value::Int(1), Value::Int(3)]),
                Condition::Equality(vec![Value::Int(7), Value::Int(9)]),
            ])
            .unwrap();
        let snap = db.snapshot();
        let (mut live, live_stats) = execute(&db, &q).unwrap();
        let (mut snapped, snap_stats) = execute(&snap, &q).unwrap();
        live.sort();
        snapped.sort();
        assert_eq!(live, snapped);
        assert_eq!(live_stats, snap_stats, "same plan on either view");
    }

    #[test]
    fn indexed_equals_scan_oracle() {
        let (db, t) = setup();
        let q = t
            .bind(vec![
                Condition::Equality(vec![Value::Int(1)]),
                Condition::Equality(vec![Value::Int(7)]),
            ])
            .unwrap();
        let (mut indexed, _) = execute(&db, &q).unwrap();
        let mut scanned = execute_scan(&db, &q).unwrap();
        indexed.sort();
        scanned.sort();
        assert_eq!(indexed, scanned);
        assert_eq!(indexed.len(), 2); // duplicate result tuples preserved
    }

    #[test]
    fn interval_condition_uses_range_scan() {
        let (db, t0) = setup();
        drop(t0);
        let t = TemplateBuilder::new("iv")
            .relation(db.schema("r").unwrap())
            .relation(db.schema("s").unwrap())
            .join("r", "c", "s", "d")
            .unwrap()
            .select("r", "a")
            .unwrap()
            .cond_interval("r", "f")
            .unwrap()
            .build()
            .unwrap();
        let q = t
            .bind(vec![Condition::Intervals(vec![Interval::closed(
                1i64, 2i64,
            )])])
            .unwrap();
        let (rows, stats) = execute(&db, &q).unwrap();
        assert_eq!(rows.len(), 2); // both R.f=1 tuples join
        assert_eq!(stats.range_scans, 1);
    }

    #[test]
    fn interval_on_hash_index_falls_back_to_scan() {
        // A hash index on the interval column: the executor must not
        // panic (the seed behavior) but degrade to a heap scan and still
        // produce correct results.
        let (db, _) = setup();
        let t = TemplateBuilder::new("iv_hash")
            .relation(db.schema("r").unwrap())
            .relation(db.schema("s").unwrap())
            .join("r", "c", "s", "d")
            .unwrap()
            .select("r", "a")
            .unwrap()
            .cond_interval("r", "a") // r.a: about to get a hash index only
            .unwrap()
            .build()
            .unwrap();
        let mut db = db;
        db.create_index(IndexDef::hash("r", vec![0])).unwrap();
        let q = t
            .bind(vec![Condition::Intervals(vec![Interval::closed(
                1i64, 6i64,
            )])])
            .unwrap();
        let (rows, stats) = execute(&db, &q).unwrap();
        assert_eq!(rows.len(), 2); // both a=1 rows join (a=7 excluded)
        assert_eq!(stats.range_scans, 0, "hash index cannot range scan");
        assert!(stats.fallback_scans >= 1, "must fall back to heap scan");
        let mut scanned = execute_scan(&db, &q).unwrap();
        let mut indexed = rows;
        indexed.sort();
        scanned.sort();
        assert_eq!(indexed, scanned);
    }

    #[test]
    fn fallback_scan_without_index() {
        let (db, _) = setup();
        // Condition on an unindexed attribute (r.a).
        let t = TemplateBuilder::new("noidx")
            .relation(db.schema("r").unwrap())
            .relation(db.schema("s").unwrap())
            .join("r", "c", "s", "d")
            .unwrap()
            .select("s", "e")
            .unwrap()
            .cond_eq("r", "a")
            .unwrap()
            .build()
            .unwrap();
        let q = t
            .bind(vec![Condition::Equality(vec![Value::Int(7)])])
            .unwrap();
        let (rows, stats) = execute(&db, &q).unwrap();
        assert_eq!(rows.len(), 1);
        assert!(stats.fallback_scans >= 1);
    }

    #[test]
    fn fixed_predicates_filter() {
        let (db, _) = setup();
        let t = TemplateBuilder::new("fixed")
            .relation(db.schema("r").unwrap())
            .relation(db.schema("s").unwrap())
            .join("r", "c", "s", "d")
            .unwrap()
            .fixed("s", "e", 8i64)
            .unwrap()
            .select("r", "a")
            .unwrap()
            .cond_eq("r", "f")
            .unwrap()
            .build()
            .unwrap();
        let q = t
            .bind(vec![Condition::Equality(vec![
                Value::Int(1),
                Value::Int(3),
            ])])
            .unwrap();
        let (rows, _) = execute(&db, &q).unwrap();
        // Only the (7,6,3)⋈(6,8,9) combination has s.e=8.
        assert_eq!(rows, vec![tuple![7i64, 3i64]]);
    }

    #[test]
    fn join_from_computes_delta_join() {
        let (db, t) = setup();
        // Pretend tuple (9, 4, 2) was just deleted from R: joins S.d=4.
        let deleted = tuple![9i64, 4i64, 2i64];
        let rows = join_from(&db, &t, 0, &deleted).unwrap();
        assert_eq!(rows, vec![tuple![9i64, 2i64, 2i64, 7i64]]);
        // From the S side: deleting (5, 2, 7) joins both R.c=5 rows.
        let deleted_s = tuple![5i64, 2i64, 7i64];
        let rows = join_from(&db, &t, 1, &deleted_s).unwrap();
        assert_eq!(rows.len(), 1); // only (1,5,1) has c=5
        assert_eq!(rows[0], tuple![1i64, 2i64, 1i64, 7i64]);
    }

    #[test]
    fn single_relation_template_works() {
        let mut db = Database::new();
        db.create_relation(Schema::new(
            "only",
            vec![
                Column::new("k", ColumnType::Int),
                Column::new("v", ColumnType::Int),
            ],
        ))
        .unwrap();
        db.load("only", (0..10i64).map(|i| tuple![i, i * 10]))
            .unwrap();
        db.create_index(IndexDef::hash("only", vec![0])).unwrap();
        let t = TemplateBuilder::new("single")
            .relation(db.schema("only").unwrap())
            .select_star()
            .cond_eq("only", "k")
            .unwrap()
            .build()
            .unwrap();
        let q = t
            .bind(vec![Condition::Equality(vec![
                Value::Int(3),
                Value::Int(7),
            ])])
            .unwrap();
        let (mut rows, stats) = execute(&db, &q).unwrap();
        rows.sort();
        assert_eq!(rows, vec![tuple![3i64, 30i64], tuple![7i64, 70i64]]);
        assert_eq!(stats.index_probes, 2);
    }

    #[test]
    fn empty_disjuncts_yield_empty_results() {
        let (db, t) = setup();
        let q = t
            .bind(vec![
                Condition::Equality(vec![Value::Int(999)]),
                Condition::Equality(vec![Value::Int(7)]),
            ])
            .unwrap();
        let (rows, _) = execute(&db, &q).unwrap();
        assert!(rows.is_empty());
    }
}

#[cfg(test)]
mod explain_tests {
    use super::*;
    use crate::condition::Condition;
    use crate::template::TemplateBuilder;
    use pmv_index::IndexDef;
    use pmv_storage::{Column, ColumnType, Schema, Value};

    #[test]
    fn explain_names_access_methods() {
        let mut db = Database::new();
        db.create_relation(Schema::new(
            "r",
            vec![
                Column::new("a", ColumnType::Int),
                Column::new("c", ColumnType::Int),
            ],
        ))
        .unwrap();
        db.create_relation(Schema::new("s", vec![Column::new("d", ColumnType::Int)]))
            .unwrap();
        db.create_index(IndexDef::btree("r", vec![0])).unwrap();
        let t = TemplateBuilder::new("e")
            .relation(db.schema("r").unwrap())
            .relation(db.schema("s").unwrap())
            .join("r", "c", "s", "d")
            .unwrap()
            .select("s", "d")
            .unwrap()
            .cond_eq("r", "a")
            .unwrap()
            .build()
            .unwrap();
        let q = t
            .bind(vec![Condition::Equality(vec![
                Value::Int(1),
                Value::Int(2),
            ])])
            .unwrap();
        let plan = explain(&db, &q);
        assert!(
            plan.contains("drive: r via index probes on r.a (2 disjuncts)"),
            "{plan}"
        );
        // No index on s.d: sequential scan.
        assert!(
            plan.contains("join: s.d = r.c via sequential scan"),
            "{plan}"
        );
        db.create_index(IndexDef::btree("s", vec![0])).unwrap();
        let plan = explain(&db, &q);
        assert!(plan.contains("join: s.d = r.c via index probe"), "{plan}");
        assert!(plan.contains("project: 1 columns"), "{plan}");
    }

    #[test]
    fn explain_shows_seq_scan_without_index() {
        let mut db = Database::new();
        db.create_relation(Schema::new("r", vec![Column::new("a", ColumnType::Int)]))
            .unwrap();
        let t = TemplateBuilder::new("e2")
            .relation(db.schema("r").unwrap())
            .select("r", "a")
            .unwrap()
            .cond_eq("r", "a")
            .unwrap()
            .build()
            .unwrap();
        let q = t
            .bind(vec![Condition::Equality(vec![Value::Int(1)])])
            .unwrap();
        let plan = explain(&db, &q);
        assert!(plan.contains("sequential scan of r"), "{plan}");
    }
}

#[cfg(test)]
mod drive_choice_tests {
    use super::*;
    use crate::condition::Condition;
    use crate::template::TemplateBuilder;
    use pmv_index::IndexDef;
    use pmv_storage::{tuple, Column, ColumnType, Schema, Value};

    /// r(k, j) has 1000 rows with high-cardinality k; s(j, g) has 1000
    /// rows with only 2 distinct g. Condition 0 is the *bad* drive
    /// (g: 500 rows/disjunct), condition 1 the good one (k: 1 row).
    fn setup() -> Database {
        let mut db = Database::new();
        db.create_relation(Schema::new(
            "r",
            vec![
                Column::new("k", ColumnType::Int),
                Column::new("j", ColumnType::Int),
            ],
        ))
        .unwrap();
        db.create_relation(Schema::new(
            "s",
            vec![
                Column::new("j", ColumnType::Int),
                Column::new("g", ColumnType::Int),
            ],
        ))
        .unwrap();
        for i in 0..1000i64 {
            db.insert("r", tuple![i, i]).unwrap();
            db.insert("s", tuple![i, i % 2]).unwrap();
        }
        db.create_index(IndexDef::btree("r", vec![0])).unwrap();
        db.create_index(IndexDef::btree("r", vec![1])).unwrap();
        db.create_index(IndexDef::btree("s", vec![0])).unwrap();
        db.create_index(IndexDef::btree("s", vec![1])).unwrap();
        db
    }

    fn template(db: &Database) -> std::sync::Arc<QueryTemplate> {
        TemplateBuilder::new("d")
            .relation(db.schema("s").unwrap())
            .relation(db.schema("r").unwrap())
            .join("s", "j", "r", "j")
            .unwrap()
            .select("r", "k")
            .unwrap()
            .cond_eq("s", "g") // condition 0: unselective
            .unwrap()
            .cond_eq("r", "k") // condition 1: selective
            .unwrap()
            .build()
            .unwrap()
    }

    #[test]
    fn stats_pick_the_selective_drive() {
        let mut db = setup();
        let t = template(&db);
        let q = t
            .bind(vec![
                Condition::Equality(vec![Value::Int(0)]),
                Condition::Equality(vec![Value::Int(7)]),
            ])
            .unwrap();
        // Without stats: drives condition 0 (s.g = 0 → 500 candidates).
        let (mut rows_a, stats_a) = execute(&db, &q).unwrap();
        // With stats: drives condition 1 (r.k = 7 → 1 candidate).
        db.analyze().unwrap();
        let (mut rows_b, stats_b) = execute(&db, &q).unwrap();
        rows_a.sort();
        rows_b.sort();
        assert_eq!(rows_a, rows_b, "plans must agree on the answer");
        assert!(
            stats_b.tuples_examined * 10 < stats_a.tuples_examined,
            "stats-chosen drive must examine far fewer tuples: {} vs {}",
            stats_b.tuples_examined,
            stats_a.tuples_examined
        );
    }

    #[test]
    fn explain_follows_the_chosen_drive() {
        let mut db = setup();
        let t = template(&db);
        let q = t
            .bind(vec![
                Condition::Equality(vec![Value::Int(0)]),
                Condition::Equality(vec![Value::Int(7)]),
            ])
            .unwrap();
        let plan = explain(&db, &q);
        assert!(
            plan.starts_with("drive: s via index probes on s.g (1 disjuncts)\n"),
            "{plan}"
        );
        assert!(plan.contains("join: r.j = s.j via index probe"), "{plan}");
        // Statistics flip the drive to condition 1; the printed plan is
        // the plan `execute` runs.
        db.analyze().unwrap();
        let plan = explain(&db, &q);
        assert!(
            plan.starts_with("drive: r via index probes on r.k (1 disjuncts)\n"),
            "{plan}"
        );
        assert!(plan.contains("join: s.j = r.j via index probe"), "{plan}");
    }

    #[test]
    fn stats_do_not_change_results_across_workload() {
        let mut db = setup();
        let t = template(&db);
        db.analyze().unwrap();
        for g in 0..2i64 {
            for k in [0i64, 250, 999] {
                let q = t
                    .bind(vec![
                        Condition::Equality(vec![Value::Int(g)]),
                        Condition::Equality(vec![Value::Int(k)]),
                    ])
                    .unwrap();
                let (mut fast, _) = execute(&db, &q).unwrap();
                let mut slow = execute_scan(&db, &q).unwrap();
                fast.sort();
                slow.sort();
                assert_eq!(fast, slow, "g={g} k={k}");
            }
        }
    }

    #[test]
    fn unindexed_condition_not_chosen_as_drive() {
        let mut db = setup();
        // Drop and rebuild: no index on r.k this time.
        let mut db2 = Database::new();
        db2.create_relation(db.schema("s").unwrap()).unwrap();
        db2.create_relation(db.schema("r").unwrap()).unwrap();
        for i in 0..1000i64 {
            db2.insert("r", tuple![i, i]).unwrap();
            db2.insert("s", tuple![i, i % 2]).unwrap();
        }
        db2.create_index(IndexDef::btree("s", vec![1])).unwrap();
        db2.create_index(IndexDef::btree("r", vec![1])).unwrap();
        db2.analyze().unwrap();
        let t = template(&db2);
        let q = t
            .bind(vec![
                Condition::Equality(vec![Value::Int(0)]),
                Condition::Equality(vec![Value::Int(8)]), // k=8 → j=8 → g=0
            ])
            .unwrap();
        // r.k is unindexed → estimated at full relation size → condition
        // 0 (indexed, 500 rows) wins despite being unselective.
        let (rows, stats) = execute(&db2, &q).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(stats.fallback_scans, 0, "must not seq-scan the drive");
        let _ = db.analyze();
    }
}

#[cfg(test)]
mod interval_estimate_tests {
    use super::*;
    use crate::condition::{Condition, Interval};
    use crate::template::TemplateBuilder;
    use pmv_index::IndexDef;
    use pmv_storage::{tuple, Column, ColumnType, Schema, Value};

    #[test]
    fn narrow_interval_drives_over_wide_equality() {
        let mut db = Database::new();
        db.create_relation(Schema::new(
            "r",
            vec![
                Column::new("x", ColumnType::Int), // 0..1000 uniform
                Column::new("y", ColumnType::Int), // 2 distinct values
            ],
        ))
        .unwrap();
        for i in 0..1000i64 {
            db.insert("r", tuple![i, i % 2]).unwrap();
        }
        db.create_index(IndexDef::btree("r", vec![0])).unwrap();
        db.create_index(IndexDef::btree("r", vec![1])).unwrap();
        db.analyze().unwrap();
        let t = TemplateBuilder::new("ie")
            .relation(db.schema("r").unwrap())
            .select("r", "x")
            .unwrap()
            .cond_eq("r", "y") // 500 rows per disjunct
            .unwrap()
            .cond_interval("r", "x") // narrow: ~10 rows
            .unwrap()
            .build()
            .unwrap();
        let q = t
            .bind(vec![
                Condition::Equality(vec![Value::Int(0)]),
                Condition::Intervals(vec![Interval::half_open(100i64, 110i64)]),
            ])
            .unwrap();
        let (rows, stats) = execute(&db, &q).unwrap();
        // x in [100,110) with even x: 5 rows.
        assert_eq!(rows.len(), 5);
        // The interval (est ~10 rows) must out-select the equality
        // (est 500): few tuples examined.
        assert!(
            stats.tuples_examined <= 20,
            "interval should drive; examined {}",
            stats.tuples_examined
        );
        assert_eq!(stats.range_scans, 1, "drive must use the range scan");
    }

    #[test]
    fn exec_stats_pairs_and_merge() {
        let mut a = ExecStats {
            index_probes: 2,
            tuples_examined: 10,
            results: 3,
            ..Default::default()
        };
        let pairs = a.as_pairs();
        assert_eq!(pairs[0], ("index_probes", 2));
        assert!(pairs.contains(&("results", 3)));
        a.merge(&ExecStats {
            index_probes: 1,
            range_scans: 4,
            fallback_scans: 1,
            tuples_examined: 5,
            results: 2,
        });
        assert_eq!(
            a,
            ExecStats {
                index_probes: 3,
                range_scans: 4,
                fallback_scans: 1,
                tuples_examined: 15,
                results: 5,
            }
        );
    }
}
