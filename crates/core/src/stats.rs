//! Cumulative PMV statistics.
//!
//! The counter list is declared once in `for_each_stat_field!` and
//! expanded into both the plain [`PmvStats`] block and the lock-free
//! [`AtomicPmvStats`] used by the sharded embedding — adding a counter is
//! a one-line change instead of six hand-synchronized edit sites.

use std::sync::atomic::{AtomicU64, Ordering};

/// Invoke `$cb!` with the full `[class] name` counter list. Every struct
/// and impl below derives from this single declaration.
///
/// The class tags feed [`PmvStats::reset_transient`]:
/// * `[keep]` — cumulative workload history (queries, hits, admissions,
///   maintenance work); survives revalidation.
/// * `[transient]` — failure-episode counters (panics, degradations,
///   quarantines, retries); a completed revalidation sweep re-derives
///   the view from base truth and closes the episode, so these reset.
macro_rules! for_each_stat_field {
    ($cb:ident) => {
        $cb! {
            /// Queries run through the pipeline.
            [keep] queries,
            /// Queries for which the PMV provided at least one partial
            /// result — the numerator of the paper's *hit probability*
            /// ("if any of the h basic condition parts in the Cselect of
            /// Q exists in V_PM, Q is hit"). Note the paper's simulation
            /// counts presence of the bcp; a bcp present but with zero
            /// matching tuples still counts as a hit there. We count
            /// both, see `bcp_hit_queries`.
            [keep] serving_queries,
            /// Queries for which at least one probed bcp was resident.
            [keep] bcp_hit_queries,
            /// Partial result tuples served from the PMV (Operation O2).
            [keep] partial_tuples_served,
            /// Result tuples stored into the PMV (Operation O3
            /// fill/update).
            [keep] tuples_admitted,
            /// bcp admissions that landed in a probation queue (2Q's A1).
            [keep] probations,
            /// bcp admissions the store declined: it was full and the bcp
            /// did not out-count the entry it would have evicted.
            [keep] admissions_declined,
            /// Condition parts generated across all queries (Σ h).
            [keep] condition_parts,
            /// Inserts into base relations that required no PMV work.
            [keep] maint_inserts_ignored,
            /// Deletes processed.
            [keep] maint_deletes_joined,
            /// Updates skipped because no relevant attribute changed.
            [keep] maint_updates_ignored,
            /// Updates processed like deletes.
            [keep] maint_updates_joined,
            /// View tuples evicted by maintenance.
            [keep] maint_tuples_removed,
            /// View tuples removed via the delta-key index (no base
            /// join ran for them).
            [keep] maint_index_removals,
            /// ΔR joins executed for bridge relations (those projecting
            /// no `Ls'` column): one per distinct (relation, tuple),
            /// duplicates coalesced into it.
            [keep] maint_coalesced_joins,
            /// Deletes whose delta-key index lookup found no cached
            /// tuple: the ΔR join the Section 3.4 filter avoids.
            [keep] maint_joins_avoided,
            /// Rows produced by maintenance joins (bridge relations and
            /// the cross-relation union pass).
            [keep] maint_join_rows,
            /// Targeted per-bcp refills issued instead of full O3 runs.
            [keep] upqueries,
            /// Tuples admitted into the cache by upquery refills.
            [keep] upquery_rows,
            /// Upqueries that fell back to a full O3 execution
            /// (budget exhausted or transient failure).
            [transient] upquery_fallbacks,
            /// Queries fully answered from complete cached bcps — O3
            /// (and its dedup) skipped entirely.
            [keep] complete_serves,
            /// Base tuples O3 executions (full runs and upqueries)
            /// examined — with `queries`, the per-template scan cost
            /// view selection weighs against the hit counters.
            [keep] o3_rows_scanned,
            /// Queries that returned a `Degraded` outcome (partials only).
            [transient] degraded_queries,
            /// O3 executions that panicked and were caught.
            [transient] exec_panics,
            /// O3 executions that failed with a transient error.
            [transient] exec_errors,
            /// O3 executions cut short by a deadline or row budget.
            [transient] budget_exceeded,
            /// Shards drained into quarantine (panic mid-mutation or
            /// maintenance fallback).
            [transient] quarantine_events,
            /// Maintenance join retries after transient failures.
            [transient] maint_retries,
            /// Maintenance fallbacks: retries exhausted, affected shards
            /// invalidated instead of repaired.
            [transient] maint_fallbacks,
            /// Revalidation sweeps completed (each lifts quarantine).
            [keep] revalidations,
        }
    };
}

/// Expand to a reset for `[transient]` fields, nothing for `[keep]`.
macro_rules! reset_transient_plain {
    ($s:ident, keep, $field:ident) => {};
    ($s:ident, transient, $field:ident) => {
        $s.$field = 0;
    };
}

macro_rules! reset_transient_atomic {
    ($s:ident, keep, $field:ident) => {};
    ($s:ident, transient, $field:ident) => {
        $s.$field.store(0, Ordering::Relaxed);
    };
}

macro_rules! define_plain_stats {
    ($($(#[$doc:meta])* [$class:ident] $field:ident),+ $(,)?) => {
        /// Counters accumulated across a PMV's lifetime.
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        pub struct PmvStats {
            $($(#[$doc])* pub $field: u64,)+
        }

        impl PmvStats {
            /// Fold another stats block into this one.
            pub fn merge(&mut self, other: &PmvStats) {
                $(self.$field += other.$field;)+
            }

            /// Zero the failure-episode (`[transient]`) counters. Called
            /// by `revalidate` paths: the sweep re-derives the view from
            /// base truth, so panic/degradation/quarantine tallies from
            /// the closed episode must not keep tripping health reports.
            pub fn reset_transient(&mut self) {
                $(reset_transient_plain!(self, $class, $field);)+
            }

            /// Every counter as `(name, value)` pairs in declaration
            /// order — the export feed for `pmv_obs::ViewMetrics`.
            pub fn as_pairs(&self) -> Vec<(&'static str, u64)> {
                vec![$((stringify!($field), self.$field),)+]
            }
        }
    };
}
for_each_stat_field!(define_plain_stats);

impl PmvStats {
    /// Hit probability over the queries seen so far, by the paper's
    /// definition (bcp residency).
    pub fn hit_probability(&self) -> f64 {
        self.rate(self.bcp_hit_queries)
    }

    /// Fraction of queries that actually received partial tuples.
    pub fn serving_probability(&self) -> f64 {
        self.rate(self.serving_queries)
    }

    /// Fraction of queries that returned a flagged-degraded outcome —
    /// the robustness metric exported as the `degraded_query_rate` gauge.
    pub fn degraded_query_rate(&self) -> f64 {
        self.rate(self.degraded_queries)
    }

    fn rate(&self, numerator: u64) -> f64 {
        if self.queries == 0 {
            0.0
        } else {
            numerator as f64 / self.queries as f64
        }
    }
}

macro_rules! define_atomic_stats {
    ($($(#[$doc:meta])* [$class:ident] $field:ident),+ $(,)?) => {
        /// Shared-counter variant of [`PmvStats`] for concurrent
        /// embeddings (notably the sharded
        /// [`crate::concurrent::SharedPmv`]): queries and maintainers
        /// accumulate a local [`PmvStats`] and publish it with one
        /// [`AtomicPmvStats::add`], so no lock is ever taken for
        /// bookkeeping. All counters use relaxed ordering — they are
        /// statistics, not synchronization.
        #[derive(Debug, Default)]
        pub struct AtomicPmvStats {
            $($field: AtomicU64,)+
        }

        impl AtomicPmvStats {
            /// Fresh zeroed counters.
            pub fn new() -> Self {
                AtomicPmvStats::default()
            }

            /// Fold a locally accumulated stats block into the shared
            /// counters.
            pub fn add(&self, delta: &PmvStats) {
                $(if delta.$field != 0 {
                    self.$field.fetch_add(delta.$field, Ordering::Relaxed);
                })+
            }

            /// Point-in-time copy of the counters. Individual fields are
            /// read relaxed, so a snapshot taken while writers are active
            /// may mix adjacent updates; totals are exact once writers
            /// quiesce.
            pub fn snapshot(&self) -> PmvStats {
                PmvStats {
                    $($field: self.$field.load(Ordering::Relaxed),)+
                }
            }

            /// Zero every counter (e.g. after a warm-up phase).
            pub fn reset(&self) {
                $(self.$field.store(0, Ordering::Relaxed);)+
            }

            /// Zero the failure-episode (`[transient]`) counters; see
            /// [`PmvStats::reset_transient`].
            pub fn reset_transient(&self) {
                $(reset_transient_atomic!(self, $class, $field);)+
            }
        }
    };
}
for_each_stat_field!(define_atomic_stats);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probabilities() {
        let s = PmvStats {
            queries: 10,
            bcp_hit_queries: 9,
            serving_queries: 8,
            degraded_queries: 2,
            ..Default::default()
        };
        assert!((s.hit_probability() - 0.9).abs() < 1e-12);
        assert!((s.serving_probability() - 0.8).abs() < 1e-12);
        assert!((s.degraded_query_rate() - 0.2).abs() < 1e-12);
        assert_eq!(PmvStats::default().hit_probability(), 0.0);
        assert_eq!(PmvStats::default().degraded_query_rate(), 0.0);
    }

    #[test]
    fn as_pairs_covers_every_field_in_order() {
        let s = PmvStats {
            queries: 10,
            revalidations: 2,
            ..Default::default()
        };
        let pairs = s.as_pairs();
        assert_eq!(pairs[0], ("queries", 10));
        assert!(pairs.contains(&("revalidations", 2)));
        assert!(pairs.contains(&("degraded_queries", 0)));
        // One pair per declared counter, no duplicates.
        let mut names: Vec<_> = pairs.iter().map(|(n, _)| *n).collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
        assert_eq!(n, 30);
        assert!(pairs.contains(&("admissions_declined", 0)));
        assert!(pairs.contains(&("maint_index_removals", 0)));
        assert!(pairs.contains(&("upqueries", 0)));
        assert!(pairs.contains(&("complete_serves", 0)));
    }

    #[test]
    fn merge_adds_fields() {
        let mut a = PmvStats {
            queries: 1,
            partial_tuples_served: 5,
            ..Default::default()
        };
        let b = PmvStats {
            queries: 2,
            partial_tuples_served: 7,
            maint_tuples_removed: 3,
            quarantine_events: 1,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.queries, 3);
        assert_eq!(a.partial_tuples_served, 12);
        assert_eq!(a.maint_tuples_removed, 3);
        assert_eq!(a.quarantine_events, 1);
    }

    #[test]
    fn atomic_add_snapshot_reset() {
        let shared = AtomicPmvStats::new();
        let a = PmvStats {
            queries: 3,
            bcp_hit_queries: 2,
            tuples_admitted: 5,
            ..Default::default()
        };
        let b = PmvStats {
            queries: 1,
            maint_tuples_removed: 4,
            exec_panics: 2,
            ..Default::default()
        };
        shared.add(&a);
        shared.add(&b);
        let snap = shared.snapshot();
        assert_eq!(snap.queries, 4);
        assert_eq!(snap.bcp_hit_queries, 2);
        assert_eq!(snap.tuples_admitted, 5);
        assert_eq!(snap.maint_tuples_removed, 4);
        assert_eq!(snap.exec_panics, 2);
        assert!((snap.hit_probability() - 0.5).abs() < 1e-12);
        shared.reset();
        assert_eq!(shared.snapshot(), PmvStats::default());
    }

    #[test]
    fn reset_transient_keeps_workload_history() {
        let mut s = PmvStats {
            queries: 10,
            tuples_admitted: 7,
            revalidations: 2,
            degraded_queries: 3,
            exec_panics: 1,
            exec_errors: 2,
            budget_exceeded: 4,
            quarantine_events: 5,
            maint_retries: 6,
            maint_fallbacks: 1,
            ..Default::default()
        };
        s.reset_transient();
        assert_eq!(s.queries, 10, "workload history survives");
        assert_eq!(s.tuples_admitted, 7);
        assert_eq!(s.revalidations, 2, "revalidation count is history");
        assert_eq!(s.degraded_queries, 0);
        assert_eq!(s.exec_panics, 0);
        assert_eq!(s.exec_errors, 0);
        assert_eq!(s.budget_exceeded, 0);
        assert_eq!(s.quarantine_events, 0);
        assert_eq!(s.maint_retries, 0);
        assert_eq!(s.maint_fallbacks, 0);

        let shared = AtomicPmvStats::new();
        shared.add(&PmvStats {
            queries: 4,
            quarantine_events: 2,
            ..Default::default()
        });
        shared.reset_transient();
        let snap = shared.snapshot();
        assert_eq!(snap.queries, 4);
        assert_eq!(snap.quarantine_events, 0);
    }

    #[test]
    fn atomic_adds_from_threads_sum_exactly() {
        let shared = std::sync::Arc::new(AtomicPmvStats::new());
        let mut handles = Vec::new();
        for _ in 0..8 {
            let shared = std::sync::Arc::clone(&shared);
            handles.push(std::thread::spawn(move || {
                for _ in 0..1000 {
                    shared.add(&PmvStats {
                        queries: 1,
                        condition_parts: 2,
                        ..Default::default()
                    });
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let snap = shared.snapshot();
        assert_eq!(snap.queries, 8000);
        assert_eq!(snap.condition_parts, 16000);
    }
}
