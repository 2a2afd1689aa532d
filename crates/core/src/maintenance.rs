//! Deferred PMV maintenance (Section 3.4) — the one implementation.
//!
//! Upon a change `ΔR_i` to a base relation of the PMV:
//!
//! * **Insert** — "existing tuples in V_PM are not affected by this
//!   insert. Hence, V_PM is not maintained immediately." New result tuples
//!   flow in later, for free, through Operation O3 (the `c_j < F` refill
//!   path). Each shard's insert watermark is bumped so completeness
//!   claims ([`crate::store::PmvStore::entry_complete`]) lapse.
//! * **Delete** — remove every cached view tuple the deleted base tuple
//!   supports. "In many cases, we can avoid this join computation by
//!   building indices on some attributes of V_PM": every delete from a
//!   relation that projects an `Ls'` column is resolved through the
//!   per-shard [`crate::delta_index::DeltaKeyIndex`], which yields the
//!   supported tuples directly — `O(|Δ| · fanout)`, no base-relation
//!   join. Only a *bridge* relation, one projecting no `Ls'` column,
//!   leaves the index nothing to key on; its deletes join
//!   `ΔR_i ⋈ R_j (j ≠ i)` and remove each join result found in the PMV
//!   (the paper's scheme), one join per distinct deleted tuple.
//! * **Update** — if no attribute of `R_i` appearing in `Ls'` or `Cjoin`
//!   changed, do nothing; otherwise proceed like a delete of the old
//!   tuple (the insert side again needs no work).
//!
//! A bridge join that keeps failing — transient faults past the retry
//! budget, or a permanent error at once — never leaves a stale tuple
//! behind: the view's shards are drained (quarantined) instead, the rest
//! of the batch still runs, and `revalidate` lifts the quarantine.
//!
//! # The X side of Section 3.6
//!
//! Maintenance runs in one place: [`crate::epoch::EpochDb::commit`]
//! calls `SharedPmv::maintain_all` under the database write lock, after
//! the transaction's deltas are applied and *before* the new
//! snapshot publishes. Every pinned query therefore observes (database
//! state, shard contents) pairs where the cached tuples are a subset of
//! the true bcp answers, so O3 re-derives every served tuple and the
//! end-of-O3 invariant `ds_leftover == 0` holds. Maintenance write-locks
//! only the shards its removals hash to, in ascending index order, and
//! publishes `maint_epoch` first so a query pinned before it cannot write
//! back what it evicts (`crate::serve`, "fill gate"). What it did is
//! counted in the view's `maint_*` [`PmvStats`] counters.
//!
//! **Cross-relation transactions.** The indexed path consults only the
//! cached view side, never base state, so a transaction deleting
//! matching tuples from several relations is no harder for it than one
//! delete: every view row carrying a deleted tuple's projection goes. A
//! bridge join, though, runs against base state with the *other*
//! relations' deletions already applied. When a transaction deletes
//! matching tuples from two bridge relations, their joint derivation is
//! invisible to both joins. `SharedPmv::maintain_all` closes this gap
//! with a union pass: every combination of deleted tuples from two or
//! more distinct bridge relations is re-bound explicitly
//! ([`pmv_query::exec::join_fixed`]) and its derived view rows removed.

use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use pmv_faultinject::Site;
use pmv_obs::{EventKind, Phase, TraceKind};
use pmv_query::{
    exec::{join_fixed, join_from},
    Database, QueryTemplate,
};
use pmv_storage::{Delta, DeltaBatch, PackedRow, Tuple};

use crate::bcp::BcpKey;
use crate::concurrent::SharedPmv;
use crate::delta_index::Supported;
use crate::fasthash::FxHashMap;
use crate::serve::flush_faults;
use crate::stats::PmvStats;

/// Retries for a maintenance join that failed transiently, before the
/// affected shards are drained instead.
const MAINT_RETRIES: u32 = 3;
/// Backoff before the first retry; doubled per attempt.
const MAINT_BACKOFF: Duration = Duration::from_micros(50);

/// What maintenance must evict from one shard, and how it was found.
enum Removal {
    /// A delta-key index posting: every tuple of the bcp whose packed
    /// bytes hash to the posting's.
    Filed(usize, Supported),
    /// One occurrence of a bridge join's result row under its bcp,
    /// packed in the view's stored layout and compared byte for byte.
    Joined(usize, BcpKey, PackedRow),
}

impl Removal {
    /// The shard the removal write-locks.
    fn shard(&self) -> usize {
        match self {
            Removal::Filed(si, _) | Removal::Joined(si, _, _) => *si,
        }
    }
}

impl SharedPmv {
    /// Apply one relation's delta batch, write-locking only the shards
    /// the removals hash to. Called only through [`Self::maintain_all`],
    /// before the delta's new database state is visible to queries.
    fn maintain(&self, db: &Database, batch: &DeltaBatch) {
        let inner = &*self.inner;
        let mut local = PmvStats::default();
        let template = inner.def.template().clone();
        let Some(rel_idx) = template
            .relations()
            .iter()
            .position(|r| r == batch.relation())
        else {
            return;
        };
        let t_start = Instant::now();
        let mut trace = inner
            .obs
            .begin_trace_shared(TraceKind::Maintenance, &inner.trace_name);
        let mut fault_cap = inner.obs.enabled().then(pmv_faultinject::capture);
        let relevant = relevant_columns(&template, rel_idx);

        // Epoch fence for pinned fills — stored BEFORE this maintenance
        // touches any shard lock. A query pinned before this Δ may hold
        // results the Δ evicts; its fill gate re-checks `maint_epoch`
        // under the shard write lock, so either (a) it sees this store
        // (the lock handoff orders it after one of our shard accesses)
        // and skips the fill, or (b) it filled before we looked at the
        // shard, in which case the index lookup and phase-2 eviction
        // below see the fill and remove it. Release pairs with
        // the Acquire in `Inner::maint_epoch`.
        inner.maint_epoch.store(db.version(), Ordering::Release);

        // Phase 1: resolve each delta. The delta-key index yields its
        // affected view tuples straight from the per-shard indexes (read
        // locks only, O(fanout) per shard); a bridge relation's deltas
        // coalesce into one ΔR join per distinct tuple. The removal's
        // kind distinguishes index hits for the `index_removals`
        // counters.
        let mut removals: Vec<Removal> = Vec::new();
        let mut bridge_order: Vec<&Tuple> = Vec::new();
        let mut bridge_counts: FxHashMap<&Tuple, usize> = FxHashMap::default();
        let mut any_insert = false;
        let mut t_index = Duration::ZERO;
        for delta in batch.deltas() {
            let tuple = match delta {
                Delta::Insert { .. } => {
                    local.maint_inserts_ignored += 1;
                    any_insert = true;
                    continue;
                }
                Delta::Delete { tuple, .. } => {
                    local.maint_deletes_joined += 1;
                    tuple
                }
                Delta::Update { old, .. } => {
                    let changed = delta.changed_columns();
                    if changed.iter().any(|c| relevant.contains(c)) {
                        local.maint_updates_joined += 1;
                        // delete(old) + insert(new): the new image may
                        // grow some bcp's truth, so completeness claims
                        // must lapse like for any insert.
                        any_insert = true;
                        old
                    } else {
                        local.maint_updates_ignored += 1;
                        continue;
                    }
                }
            };
            let t0 = Instant::now();
            let before = removals.len();
            let mut indexed = true;
            for (si, s) in inner.shards.iter().enumerate() {
                // Every shard shares the template: shard 0 answers for
                // all of them, and a bridge breaks out before any push.
                let Some(sup) = s.read().supported(rel_idx, tuple) else {
                    indexed = false;
                    break;
                };
                removals.extend(sup.into_iter().map(|posting| Removal::Filed(si, posting)));
            }
            t_index += t0.elapsed();
            if indexed {
                if removals.len() == before {
                    local.maint_joins_avoided += 1;
                }
                continue;
            }
            let n = bridge_counts.entry(tuple).or_insert(0);
            if *n == 0 {
                bridge_order.push(tuple);
            }
            *n += 1;
        }
        if t_index > Duration::ZERO {
            inner.obs.record(Phase::maint_index, t_index);
        }

        // Bridge path: one coalesced ΔR join per distinct tuple. Every
        // join runs against the same post-delta base state, so a tuple
        // deleted `n` times yields `n` identical row sets — the rows are
        // queued once per occurrence instead of re-joining. A join that
        // cannot be computed drains the view instead.
        for tuple in bridge_order {
            let Some(rows) = self.join_with_retry(db, &template, rel_idx, tuple, &mut local) else {
                self.drain(&mut local);
                continue;
            };
            let n = bridge_counts[tuple];
            local.maint_coalesced_joins += 1;
            local.maint_join_rows += (rows.len() * n) as u64;
            for row in rows {
                let bcp = inner.def.bcp_of_tuple(&row);
                let (si, row) = (inner.shard_of_bcp(&bcp), inner.def.layout().store(&row));
                removals.extend((0..n).map(|_| Removal::Joined(si, bcp.clone(), row.clone())));
            }
        }

        // Phase 2: evict the joined/indexed view tuples.
        for si in self.evict(&removals, &mut local) {
            trace.event(EventKind::Quarantine { shard: si });
        }

        // Insert watermark: bump every shard so stale completeness
        // claims lapse (the bcp's truth may have grown), and republish —
        // the unchanged table is a pointer copy, so an insert-heavy batch
        // stays O(shards).
        if any_insert {
            for (si, s) in inner.shards.iter().enumerate() {
                let mut store = s.write();
                store.note_insert();
                inner.publish_shard(si, &store);
            }
        }
        inner.verified.mark();
        inner.stats.add(&local);
        inner.obs.record(Phase::maint_join, t_start.elapsed());
        trace.event(EventKind::MaintBatch {
            relation: batch.relation().to_string(),
            joined: (local.maint_deletes_joined + local.maint_updates_joined) as usize,
            join_rows: local.maint_join_rows as usize,
            removed: local.maint_tuples_removed as usize,
            retries: local.maint_retries as usize,
            fallbacks: local.maint_fallbacks as usize,
        });
        flush_faults(&mut trace, fault_cap.take());
    }

    /// One ΔR join with the transient-retry/backoff loop. `None` means
    /// the join cannot be had — retries exhausted, or a permanent error,
    /// which no retry would cure — and the caller drains the affected
    /// shards.
    fn join_with_retry(
        &self,
        db: &Database,
        template: &QueryTemplate,
        rel_idx: usize,
        tuple: &Tuple,
        local: &mut PmvStats,
    ) -> Option<Vec<Tuple>> {
        let mut attempt: u32 = 0;
        loop {
            match catch_unwind(AssertUnwindSafe(|| join_from(db, template, rel_idx, tuple))) {
                Ok(Ok(r)) => return Some(r),
                Ok(Err(e)) if !e.is_transient() => return None,
                _ => {}
            }
            if attempt >= MAINT_RETRIES {
                return None;
            }
            attempt += 1;
            local.maint_retries += 1;
            std::thread::sleep(MAINT_BACKOFF * (1u32 << (attempt - 1)));
        }
    }

    /// Failed-join fallback: drain (quarantine) every shard, removal-only,
    /// so the view under-serves until revalidated but never serves a
    /// tuple the delete should have evicted. Which cached rows the join
    /// would have found is unknowable without it, and a bridge relation
    /// gives the delta-key index no key to narrow the shards by.
    fn drain(&self, local: &mut PmvStats) {
        let inner = &*self.inner;
        local.maint_fallbacks += 1;
        inner.breaker.record_error();
        for (si, s) in inner.shards.iter().enumerate() {
            let mut store = s.write();
            if !store.is_quarantined() {
                store.quarantine();
                local.quarantine_events += 1;
                inner.publish_shard(si, &store);
            }
        }
    }

    /// X-lock only the shards `removals` name, in ascending index order,
    /// evict the tuples and republish. Returns the shards a mid-eviction
    /// panic forced to drain.
    fn evict(&self, removals: &[Removal], local: &mut PmvStats) -> Vec<usize> {
        let inner = &*self.inner;
        let mut affected_shards: Vec<usize> = removals.iter().map(Removal::shard).collect();
        affected_shards.sort_unstable();
        affected_shards.dedup();
        let mut drained = Vec::new();
        for si in affected_shards {
            let t_lock = Instant::now();
            let mut store = inner.shards[si].write();
            inner.obs.record(Phase::lock_shard_maint, t_lock.elapsed());
            if store.is_quarantined() {
                continue; // already drained: nothing cached to evict
            }
            let evict = catch_unwind(AssertUnwindSafe(|| {
                pmv_faultinject::fire_soft(Site::ShardMaint);
                for removal in removals.iter().filter(|r| r.shard() == si) {
                    match removal {
                        Removal::Filed(_, posting) => {
                            let removed = store.remove_filed(posting) as u64;
                            local.maint_tuples_removed += removed;
                            local.maint_index_removals += removed;
                        }
                        Removal::Joined(_, bcp, row) => {
                            if store.remove_tuple(bcp, row.row()) {
                                local.maint_tuples_removed += 1;
                            }
                        }
                    }
                }
            }));
            if evict.is_err() {
                // Mid-eviction panic: some of this shard's removals may
                // not have been applied, so its cache can no longer be
                // trusted. Drain it.
                store.quarantine();
                local.quarantine_events += 1;
                inner.breaker.record_error();
                drained.push(si);
            }
            inner.publish_shard(si, &store);
        }
        drained
    }

    /// Apply a whole commit round's batches in order, then run the
    /// cross-relation union pass: a transaction deleting matching tuples
    /// from several bridge relations leaves derivations that no
    /// single-relation ΔR join rederives (each join sees the *other*
    /// relation's tuple already gone). Every multi-bound combination of
    /// the bridge batches' before-images is joined with [`join_fixed`]
    /// and its rows removed too. Cannot fail: a join that cannot be
    /// computed drains the view instead.
    pub(crate) fn maintain_all(&self, db: &Database, batches: &[DeltaBatch]) {
        let inner = &*self.inner;
        for b in batches {
            self.maintain(db, b);
        }
        let template = inner.def.template().clone();
        let bridges: Vec<bool> = {
            let store = inner.shards[0].read();
            (0..template.relations().len())
                .map(|rel| !store.indexed(rel))
                .collect()
        };
        let combos = cross_delta_combos(&template, &bridges, batches);
        if combos.is_empty() {
            return;
        }
        let t0 = Instant::now();
        let mut local = PmvStats::default();
        // No shard lock is held during the joins (the
        // `write_guard_across_exec` contract: never an executor call
        // under a shard guard).
        let mut removals: Vec<Removal> = Vec::new();
        for combo in &combos {
            let Ok(rows) = join_fixed(db, &template, combo) else {
                self.drain(&mut local);
                break;
            };
            local.maint_join_rows += rows.len() as u64;
            for row in rows {
                let bcp = inner.def.bcp_of_tuple(&row);
                let row = inner.def.layout().store(&row);
                removals.push(Removal::Joined(inner.shard_of_bcp(&bcp), bcp, row));
            }
        }
        self.evict(&removals, &mut local);
        inner.stats.add(&local);
        inner.obs.record(Phase::maint_join, t0.elapsed());
        inner.verified.mark();
    }
}

/// Columns of relation `rel_idx` whose change can affect cached view
/// tuples: those in `Ls'` or in `Cjoin` (join attributes and fixed
/// predicates).
fn relevant_columns(template: &pmv_query::QueryTemplate, rel_idx: usize) -> HashSet<usize> {
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
/// distinct bridge relations** (`bridges[rel]`) of `template` across
/// `batches`. Combinations binding a single relation are already covered
/// by the per-delta joins. A combination binding an indexable relation's
/// tuple derives only view rows carrying that tuple's `Ls'` projection,
/// which the delta-key index has already removed. A choice here plus the
/// current base state for the unbound relations reconstructs exactly the
/// derivations the bridge joins missed.
fn cross_delta_combos<'a>(
    template: &QueryTemplate,
    bridges: &[bool],
    batches: &'a [DeltaBatch],
) -> Vec<Vec<(usize, &'a Tuple)>> {
    let n = template.relations().len();
    let mut per: Vec<Vec<&Tuple>> = vec![Vec::new(); n];
    for b in batches {
        let Some(rel) = template.relations().iter().position(|r| r == b.relation()) else {
            continue;
        };
        if !bridges[rel] {
            continue;
        }
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::health::ViewHealth;
    use crate::pipeline::run_plain;
    use crate::view::{PartialViewDef, PmvConfig};
    use pmv_cache::PolicyKind;
    use pmv_index::IndexDef;
    use pmv_query::{Condition, Transaction};
    use pmv_storage::{tuple, Column, ColumnType, Schema, Value};

    /// `r(a, c, f)` and `s(d, e, g)`, indexed for the join on `c = d`.
    fn database() -> Database {
        let mut db = Database::new();
        let int = |name: &str| Column::new(name, ColumnType::Int);
        db.create_relation(Schema::new("r", vec![int("a"), int("c"), int("f")]))
            .unwrap();
        for i in 0..24i64 {
            db.insert("r", tuple![i, i % 6, i % 4]).unwrap();
        }
        db.create_index(IndexDef::btree("r", vec![2])).unwrap();
        db.create_index(IndexDef::btree("r", vec![1])).unwrap();
        db.create_relation(Schema::new("s", vec![int("d"), int("e"), int("g")]))
            .unwrap();
        for d in 0..6i64 {
            db.insert("s", tuple![d, 10 + d, d % 2]).unwrap();
        }
        db.create_index(IndexDef::btree("s", vec![0])).unwrap();
        db
    }

    /// A bridge relation's ΔR join that fails permanently (here: the
    /// other relation cannot be read) must not end the batch with later
    /// work unapplied and the view unrepaired: the view's shards are
    /// drained like after exhausted retries, every later batch still
    /// runs, and nothing stale is served once the deltas become visible.
    #[test]
    fn permanent_join_error_drains_instead_of_leaving_stale_partials() {
        let mut db = database();
        // `s` projects no `Ls'` column: a bridge, maintained by the join.
        let t = pmv_query::TemplateBuilder::new("bridge")
            .relation(db.schema("r").unwrap())
            .relation(db.schema("s").unwrap())
            .join("r", "c", "s", "d")
            .unwrap()
            .select("r", "a")
            .unwrap()
            .cond_eq("r", "f")
            .unwrap()
            .build()
            .unwrap();
        let config = PmvConfig::new(3, 16, PolicyKind::Clock);
        let def = PartialViewDef::all_equality("bridge_pmv", t.clone()).unwrap();
        let view = SharedPmv::with_shards(def, config, 4);
        let queries: Vec<_> = (0..4i64)
            .map(|f| {
                t.bind(vec![Condition::Equality(vec![Value::Int(f)])])
                    .unwrap()
            })
            .collect();
        for q in &queries {
            view.run_pinned(&db.snapshot(), q).unwrap();
        }
        let cached = view.tuple_count();
        assert!(cached > 0);

        // One transaction deleting from both relations: the bridge's
        // batch first, then the indexed one.
        let row_of = |db: &Database, rel: &str| db.relation(rel).unwrap().iter().next().unwrap().0;
        let (r_row, s_row) = (row_of(&db, "r"), row_of(&db, "s"));
        let mut txn = Transaction::begin(&mut db);
        txn.delete("s", s_row).unwrap();
        txn.delete("r", r_row).unwrap();
        let batches = txn.commit();
        assert_eq!(batches.len(), 2);
        assert_eq!(batches[0].relation(), "s");

        // Maintain against a database in which `r` does not exist: the
        // join for the `s` delta cannot be computed.
        view.maintain_all(&Database::new(), &batches);
        let stats = view.stats();
        assert!(stats.maint_fallbacks >= 1, "{stats:?}");
        assert_eq!(stats.maint_retries, 0, "a permanent error is not retried");
        assert_eq!(stats.maint_deletes_joined, 2, "the second batch still ran");
        let report = view.validate();
        assert!(report.is_consistent(), "{report}");
        let drained = report.shards.iter().filter(|s| s.quarantined).count();
        assert!(drained == 4 && drained == view.quarantined_shards());
        assert!(view.tuple_count() < cached);

        // The real post-delta database: nothing stale is served.
        for q in &queries {
            let served = view.run_pinned(&db.snapshot(), q).unwrap();
            assert_eq!(served.ds_leftover, 0);
            let (mut want, _, _) = run_plain(&db, q).unwrap();
            let mut got = served.all_results();
            got.sort();
            want.sort();
            assert_eq!(got, want);
        }
        assert_eq!(view.revalidate(&db).unwrap(), 0);
        assert_eq!(view.quarantined_shards(), 0);
        assert_eq!(view.health(), ViewHealth::Healthy);
        assert_eq!(view.stats().maint_fallbacks, 0, "transient tally reset");
    }
}
