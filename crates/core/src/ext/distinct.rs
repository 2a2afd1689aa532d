//! DISTINCT handling (Section 3.6):
//!
//! > "In Operation O2, only distinct tuples in the partial results
//! > obtained from the PMV are returned to the user and stored in the
//! > data structure DS. In Operation O3, all distinct result tuples are
//! > first obtained from query execution. Then only those tuples that
//! > are not in DS are returned to the user."

use std::collections::HashSet;

use pmv_query::QueryInstance;
use pmv_storage::Tuple;

use crate::concurrent::SharedPmv;
use crate::epoch::EpochDb;
use crate::pipeline::QueryTimings;
use crate::Result;

/// Result of a DISTINCT pipeline run.
#[derive(Clone, Debug)]
pub struct DistinctOutcome {
    /// Distinct partial results served early (user layout).
    pub partial: Vec<Tuple>,
    /// Distinct remaining results (user layout, none repeated from
    /// `partial`).
    pub remaining: Vec<Tuple>,
    /// Whether any probed bcp was resident.
    pub bcp_hit: bool,
    /// Timing breakdown of the underlying run.
    pub timings: QueryTimings,
}

impl DistinctOutcome {
    /// All distinct results, partial first.
    pub fn all_results(&self) -> Vec<Tuple> {
        let mut v = self.partial.clone();
        v.extend_from_slice(&self.remaining);
        v
    }
}

/// Run `q` with DISTINCT semantics over the user-visible select list.
/// The PMV itself still stores/updates multiset results (its content is
/// shared with non-DISTINCT queries of the same template); only the
/// user-facing streams are deduplicated.
pub fn run_distinct(edb: &EpochDb, pmv: &SharedPmv, q: &QueryInstance) -> Result<DistinctOutcome> {
    let outcome = edb.query(pmv, q)?;
    let mut seen: HashSet<Tuple> = HashSet::new();
    let mut partial = Vec::new();
    for t in &outcome.partial {
        if seen.insert(Tuple::clone(t)) {
            partial.push(Tuple::clone(t));
        }
    }
    let mut remaining = Vec::new();
    for t in &outcome.remaining {
        if seen.insert(Tuple::clone(t)) {
            remaining.push(Tuple::clone(t));
        }
    }
    Ok(DistinctOutcome {
        partial,
        remaining,
        bcp_hit: outcome.bcp_hit,
        timings: outcome.timings,
    })
}
