//! Deferred PMV maintenance (Section 3.4).
//!
//! Upon a change `ΔR_i` to a base relation of the PMV:
//!
//! * **Insert** — "existing tuples in V_PM are not affected by this
//!   insert. Hence, V_PM is not maintained immediately." New result tuples
//!   flow in later, for free, through Operation O3 (the `c_j < F` refill
//!   path). The store's insert watermark is bumped so completeness claims
//!   ([`crate::store::PmvStore::entry_complete`]) lapse.
//! * **Delete** — remove every cached view tuple the deleted base tuple
//!   supports. Three strategies ([`MaintStrategy`]):
//!   [`MaintStrategy::DeltaJoin`] computes `ΔR_i ⋈ R_j (j ≠ i)` and
//!   removes each join result found in the PMV (the paper's scheme);
//!   [`MaintStrategy::Indexed`] consults the per-view
//!   [`crate::delta_index::DeltaKeyIndex`] and removes the supported
//!   tuples directly — `O(|Δ| · fanout)`, no base-relation join;
//!   [`MaintStrategy::HeavyLight`] (default) routes *hot* delta keys
//!   (per a space-saving sketch) through the index and coalesces the
//!   cold tail into one join per distinct deleted tuple.
//! * **Update** — if no attribute of `R_i` appearing in `Ls'` or `Cjoin`
//!   changed, do nothing; otherwise proceed like a delete of the old
//!   tuple (the insert side again needs no work).
//!
//! Maintenance takes an X lock on the PMV, which is what makes the O2/O3
//! S lock sufficient for serializability (Section 3.6).
//!
//! **Cross-relation transactions.** A transaction deleting *matching*
//! tuples from two base relations defeats the per-delta join: each
//! relation's `ΔR` join runs against base state with the other
//! relation's deletions already applied, so the joint derivation is
//! invisible to both. [`PmvPipeline::maintain_all`] closes this gap with
//! a union pass: every combination of two or more deleted tuples from
//! distinct relations is re-bound explicitly
//! ([`pmv_query::exec::join_fixed`]) and its derived view rows removed.
//! The indexed path is immune by construction — it consults only the
//! cached view side, never base state.

use std::collections::HashSet;

use pmv_obs::Phase;
use pmv_query::{
    exec::{join_fixed, join_from},
    Database, QueryTemplate,
};
use pmv_storage::{Delta, DeltaBatch, Tuple};

use crate::fasthash::FxHashMap;
use crate::pipeline::{Pmv, PmvPipeline};
use crate::view::MaintStrategy;
use crate::Result;

/// What maintenance did for one delta batch.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MaintenanceOutcome {
    /// Inserts that required no PMV work.
    pub inserts_ignored: usize,
    /// Deletes processed (any strategy).
    pub deletes_joined: usize,
    /// Updates skipped (no relevant attribute changed).
    pub updates_ignored: usize,
    /// Updates processed like deletes.
    pub updates_joined: usize,
    /// Join result rows computed across all ΔR joins.
    pub join_rows: usize,
    /// View tuples actually removed from the PMV.
    pub view_tuples_removed: usize,
    /// Of those, tuples removed through the delta-key index (no join).
    pub index_removals: usize,
    /// Deltas routed through the indexed (heavy) path.
    pub heavy_deltas: usize,
    /// Deltas routed through the coalesced-join (light) path.
    pub light_deltas: usize,
    /// Coalesced ΔR joins actually executed for the light path.
    pub coalesced_joins: usize,
    /// ΔR joins skipped by the Section 3.4 maintenance filter.
    pub joins_avoided: usize,
    /// ΔR join attempts retried after a transient failure.
    pub retries: usize,
    /// Deltas whose join kept failing: the affected shards were drained
    /// (quarantined) instead of repaired — removal-only, never stale.
    pub fallback_invalidations: usize,
    /// True when the batch's relation is not a base relation of this PMV.
    pub unrelated_relation: bool,
}

impl MaintenanceOutcome {
    /// Fold another outcome into this one (counter fields only;
    /// `unrelated_relation` is OR-ed).
    pub fn absorb(&mut self, o: &MaintenanceOutcome) {
        self.inserts_ignored += o.inserts_ignored;
        self.deletes_joined += o.deletes_joined;
        self.updates_ignored += o.updates_ignored;
        self.updates_joined += o.updates_joined;
        self.join_rows += o.join_rows;
        self.view_tuples_removed += o.view_tuples_removed;
        self.index_removals += o.index_removals;
        self.heavy_deltas += o.heavy_deltas;
        self.light_deltas += o.light_deltas;
        self.coalesced_joins += o.coalesced_joins;
        self.joins_avoided += o.joins_avoided;
        self.retries += o.retries;
        self.fallback_invalidations += o.fallback_invalidations;
        self.unrelated_relation |= o.unrelated_relation;
    }
}

impl PmvPipeline {
    /// Apply one relation's delta batch to the PMV.
    pub fn maintain(
        &self,
        db: &Database,
        pmv: &mut Pmv,
        batch: &DeltaBatch,
    ) -> Result<MaintenanceOutcome> {
        let mut out = MaintenanceOutcome::default();
        let template = pmv.def().template().clone();
        let Some(rel_idx) = template
            .relations()
            .iter()
            .position(|r| r == batch.relation())
        else {
            out.unrelated_relation = true;
            return Ok(out);
        };

        let relevant = relevant_columns(&template, rel_idx);
        let strategy = pmv.config.effective_strategy();
        let _x_lock = self.locks().lock_exclusive(pmv.def().name());

        // Cold-tail accumulator (HeavyLight): distinct deleted tuple →
        // occurrence count, joined once per distinct tuple at batch end.
        let mut light_order: Vec<&Tuple> = Vec::new();
        let mut light_counts: FxHashMap<&Tuple, usize> = FxHashMap::default();

        for delta in batch.deltas() {
            match delta {
                Delta::Insert { .. } => {
                    out.inserts_ignored += 1;
                    pmv.stats.maint_inserts_ignored += 1;
                    // Lazily expire completeness claims: the insert may
                    // belong in a cached-and-complete bcp's answer.
                    pmv.store.note_insert();
                }
                Delta::Delete { tuple, .. } => {
                    out.deletes_joined += 1;
                    pmv.stats.maint_deletes_joined += 1;
                    route_delta(
                        db,
                        pmv,
                        &template,
                        rel_idx,
                        tuple,
                        strategy,
                        &mut light_order,
                        &mut light_counts,
                        &mut out,
                    )?;
                }
                Delta::Update { old, .. } => {
                    let changed = delta.changed_columns();
                    if changed.iter().any(|c| relevant.contains(c)) {
                        out.updates_joined += 1;
                        pmv.stats.maint_updates_joined += 1;
                        // An update is delete(old) + insert(new): the old
                        // image's rows are removed below, and the NEW
                        // image may grow some other bcp's truth — expire
                        // completeness claims like any insert.
                        pmv.store.note_insert();
                        route_delta(
                            db,
                            pmv,
                            &template,
                            rel_idx,
                            old,
                            strategy,
                            &mut light_order,
                            &mut light_counts,
                            &mut out,
                        )?;
                    } else {
                        out.updates_ignored += 1;
                        pmv.stats.maint_updates_ignored += 1;
                    }
                }
            }
        }

        // Light path: one ΔR join per *distinct* deleted tuple, removal
        // applied once per occurrence. Equivalent to the per-delta joins
        // it replaces — every join runs against the same post-delta base
        // state, so identical tuples produce identical row sets.
        for t in light_order {
            let occurrences = light_counts[t];
            let t_join = std::time::Instant::now();
            if !pmv.store.may_affect(rel_idx, t) {
                out.joins_avoided += 1;
                continue;
            }
            let rows = join_from(db, &template, rel_idx, t)?;
            out.coalesced_joins += 1;
            pmv.stats.maint_coalesced_joins += 1;
            out.join_rows += rows.len() * occurrences;
            pmv.stats.maint_join_rows += (rows.len() * occurrences) as u64;
            for _ in 0..occurrences {
                for row in &rows {
                    let bcp = pmv.def.bcp_of_tuple(row);
                    if pmv.store.remove_tuple(&bcp, row) {
                        out.view_tuples_removed += 1;
                        pmv.stats.maint_tuples_removed += 1;
                    }
                }
            }
            pmv.obs.record(Phase::maint_join, t_join.elapsed());
        }

        pmv.verified.mark();
        Ok(out)
    }

    /// Apply several batches (e.g. a whole transaction's) in order, then
    /// run the cross-relation union pass: when two or more relations
    /// carry deletions, re-bind every multi-relation combination of
    /// deleted tuples and remove the view rows they jointly derived —
    /// the derivations the per-relation ΔR joins cannot see.
    pub fn maintain_all(
        &self,
        db: &Database,
        pmv: &mut Pmv,
        batches: &[DeltaBatch],
    ) -> Result<MaintenanceOutcome> {
        let mut total = MaintenanceOutcome::default();
        for b in batches {
            let o = self.maintain(db, pmv, b)?;
            total.absorb(&o);
        }
        let template = pmv.def().template().clone();
        let combos = cross_delta_combos(&template, batches);
        if !combos.is_empty() {
            let _x_lock = self.locks().lock_exclusive(pmv.def().name());
            let t_join = std::time::Instant::now();
            for combo in &combos {
                let rows = join_fixed(db, &template, combo)?;
                total.join_rows += rows.len();
                pmv.stats.maint_join_rows += rows.len() as u64;
                for row in rows {
                    let bcp = pmv.def.bcp_of_tuple(&row);
                    if pmv.store.remove_tuple(&bcp, &row) {
                        total.view_tuples_removed += 1;
                        pmv.stats.maint_tuples_removed += 1;
                    }
                }
            }
            pmv.obs.record(Phase::maint_join, t_join.elapsed());
            pmv.verified.mark();
        }
        // Per-batch relevance is reported on the individual outcomes;
        // the transaction-level total keeps the historical `false`.
        total.unrelated_relation = false;
        Ok(total)
    }
}

/// Route one relevant delete (or update-old) through the configured
/// strategy. The light path only *accumulates* here; the caller runs the
/// coalesced joins after the batch loop.
#[allow(clippy::too_many_arguments)]
fn route_delta<'a>(
    db: &Database,
    pmv: &mut Pmv,
    template: &QueryTemplate,
    rel_idx: usize,
    tuple: &'a Tuple,
    strategy: MaintStrategy,
    light_order: &mut Vec<&'a Tuple>,
    light_counts: &mut FxHashMap<&'a Tuple, usize>,
    out: &mut MaintenanceOutcome,
) -> Result<()> {
    match strategy {
        MaintStrategy::DeltaJoin => remove_joined(db, pmv, template, rel_idx, tuple, out),
        MaintStrategy::Indexed => {
            if !remove_indexed(pmv, rel_idx, tuple, out) {
                // Relation unindexable (contributes nothing to `Ls'`):
                // fall back to the exact join.
                remove_joined(db, pmv, template, rel_idx, tuple, out)?;
            }
            Ok(())
        }
        MaintStrategy::HeavyLight => {
            let Some(h) = pmv.store.delta_key_hash(rel_idx, tuple) else {
                // No index or unindexable relation: the cold path's join
                // is the only sound option.
                accumulate_light(tuple, light_order, light_counts);
                out.light_deltas += 1;
                pmv.stats.maint_light_deltas += 1;
                return Ok(());
            };
            // The sketch overestimates evicted keys (space-saving), which
            // only routes extra deltas through the always-sound indexed
            // path. (The sharded embedding feeds the attached workload
            // account's sketch instead.)
            let count = pmv.delta_sketch.note(h);
            if count >= pmv.config.heavy_threshold {
                out.heavy_deltas += 1;
                pmv.stats.maint_heavy_deltas += 1;
                if !remove_indexed(pmv, rel_idx, tuple, out) {
                    remove_joined(db, pmv, template, rel_idx, tuple, out)?;
                }
            } else {
                accumulate_light(tuple, light_order, light_counts);
                out.light_deltas += 1;
                pmv.stats.maint_light_deltas += 1;
            }
            Ok(())
        }
    }
}

/// Add one occurrence of `tuple` to the cold-tail group.
fn accumulate_light<'a>(
    tuple: &'a Tuple,
    order: &mut Vec<&'a Tuple>,
    counts: &mut FxHashMap<&'a Tuple, usize>,
) {
    match counts.get_mut(tuple) {
        Some(n) => *n += 1,
        None => {
            counts.insert(tuple, 1);
            order.push(tuple);
        }
    }
}

/// Indexed removal: drop exactly the cached view tuples the deleted base
/// tuple supports — `O(fanout)`, no base-relation access, hence immune
/// to cross-relation delete ordering. Returns `false` when the relation
/// is unindexable (no delta-key columns) and the caller must join.
fn remove_indexed(pmv: &mut Pmv, rel_idx: usize, tuple: &Tuple, out: &mut MaintenanceOutcome) -> bool {
    let t_index = std::time::Instant::now();
    let Some(supported) = pmv.store.supported(rel_idx, tuple) else {
        return false;
    };
    if supported.is_empty() {
        out.joins_avoided += 1;
    }
    for (bcp, t) in supported {
        if pmv.store.remove_tuple(&bcp, &t) {
            out.view_tuples_removed += 1;
            out.index_removals += 1;
            pmv.stats.maint_tuples_removed += 1;
            pmv.stats.maint_index_removals += 1;
        }
    }
    pmv.obs.record(Phase::maint_index, t_index.elapsed());
    true
}

/// Columns of relation `rel_idx` whose change can affect cached view
/// tuples: those in `Ls'` or in `Cjoin` (join attributes and fixed
/// predicates). Shared with the sharded maintenance path in
/// [`crate::concurrent`].
pub(crate) fn relevant_columns(
    template: &pmv_query::QueryTemplate,
    rel_idx: usize,
) -> HashSet<usize> {
    let mut cols = HashSet::new();
    for a in template.expanded_list() {
        if a.relation == rel_idx {
            cols.insert(a.column);
        }
    }
    for j in template.joins() {
        if j.left.relation == rel_idx {
            cols.insert(j.left.column);
        }
        if j.right.relation == rel_idx {
            cols.insert(j.right.column);
        }
    }
    for fp in template.fixed_preds() {
        if fp.attr.relation == rel_idx {
            cols.insert(fp.attr.column);
        }
    }
    cols
}

/// The combinations the cross-relation union pass must re-bind: every
/// choice of deleted (or relevantly-updated) tuples from **two or more
/// distinct relations** of `template` across `batches`. Combinations
/// binding a single relation are already covered by the per-delta joins;
/// a choice here plus the current base state for the unbound relations
/// reconstructs exactly the derivations those joins missed. Shared with
/// the sharded maintenance path in [`crate::concurrent`].
pub(crate) fn cross_delta_combos<'a>(
    template: &QueryTemplate,
    batches: &'a [DeltaBatch],
) -> Vec<Vec<(usize, &'a Tuple)>> {
    let n = template.relations().len();
    let mut per: Vec<Vec<&Tuple>> = vec![Vec::new(); n];
    for b in batches {
        let Some(rel) = template
            .relations()
            .iter()
            .position(|r| r == b.relation())
        else {
            continue;
        };
        let relevant = relevant_columns(template, rel);
        for d in b.deltas() {
            match d {
                Delta::Delete { tuple, .. } => per[rel].push(tuple),
                Delta::Update { old, .. } => {
                    if d.changed_columns().iter().any(|c| relevant.contains(c)) {
                        per[rel].push(old);
                    }
                }
                Delta::Insert { .. } => {}
            }
        }
    }
    let rels: Vec<usize> = (0..n).filter(|&i| !per[i].is_empty()).collect();
    if rels.len() < 2 {
        return Vec::new();
    }
    let mut combos = Vec::new();
    let mut cur: Vec<(usize, &Tuple)> = Vec::new();
    combo_rec(template, &per, &rels, 0, &mut cur, &mut combos);
    combos
}

/// Enumerate each relation's choices (unbound, or one of its deleted
/// tuples), keeping combinations with ≥ 2 bound relations. Join
/// conditions between bound pairs prune the enumeration; `join_fixed`
/// re-checks them, so pruning is a pure optimization.
fn combo_rec<'a>(
    template: &QueryTemplate,
    per: &[Vec<&'a Tuple>],
    rels: &[usize],
    depth: usize,
    cur: &mut Vec<(usize, &'a Tuple)>,
    out: &mut Vec<Vec<(usize, &'a Tuple)>>,
) {
    if depth == rels.len() {
        if cur.len() >= 2 {
            out.push(cur.clone());
        }
        return;
    }
    // Leave this relation unbound (scanned from current base state).
    combo_rec(template, per, rels, depth + 1, cur, out);
    let rel = rels[depth];
    'cand: for &t in &per[rel] {
        for j in template.joins() {
            let (this, other) = if j.left.relation == rel {
                (j.left, j.right)
            } else if j.right.relation == rel {
                (j.right, j.left)
            } else {
                continue;
            };
            if let Some(&(_, b)) = cur.iter().find(|(r, _)| *r == other.relation) {
                if t.get(this.column) != b.get(other.column) {
                    continue 'cand;
                }
            }
        }
        cur.push((rel, t));
        combo_rec(template, per, rels, depth + 1, cur, out);
        cur.pop();
    }
}

/// Delete/update arm of [`MaintStrategy::DeltaJoin`]: join the old tuple
/// against the other base relations and evict every matching view tuple.
fn remove_joined(
    db: &Database,
    pmv: &mut Pmv,
    template: &pmv_query::QueryTemplate,
    rel_idx: usize,
    tuple: &Tuple,
    out: &mut MaintenanceOutcome,
) -> Result<()> {
    // Section 3.4 / [25]: light indices on V_PM attributes can prove the
    // deleted tuple touches nothing cached, skipping the join.
    if !pmv.store.may_affect(rel_idx, tuple) {
        out.joins_avoided += 1;
        return Ok(());
    }
    let t_join = std::time::Instant::now();
    let rows = join_from(db, template, rel_idx, tuple)?;
    out.join_rows += rows.len();
    pmv.stats.maint_join_rows += rows.len() as u64;
    for row in rows {
        let bcp = pmv.def().bcp_of_tuple(&row);
        if pmv.store.remove_tuple(&bcp, &row) {
            out.view_tuples_removed += 1;
            pmv.stats.maint_tuples_removed += 1;
        }
    }
    pmv.obs.record(Phase::maint_join, t_join.elapsed());
    Ok(())
}
