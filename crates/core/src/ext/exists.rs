//! EXISTS-nested-query acceleration (Section 3.6).
//!
//! "Suppose that we can quickly obtain tuples from the main query but
//! checking the EXISTS condition is time-consuming. In this case, a PMV
//! can be used to quickly generate partial results of the subquery" —
//! and since EXISTS only needs *one* witness, any cached tuple settles
//! the check without executing the subquery at all.

use pmv_query::QueryInstance;

use crate::concurrent::SharedPmv;
use crate::epoch::EpochDb;
use crate::o1::decompose;
use crate::Result;

/// How an EXISTS check was answered.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExistsOutcome {
    /// The EXISTS verdict.
    pub exists: bool,
    /// True when a cached PMV tuple answered it without execution.
    pub fast_path: bool,
}

/// Evaluate `EXISTS (subquery)` using the subquery's PMV.
///
/// Fast path: probe the PMV for the subquery's condition parts; one
/// matching cached tuple proves existence. Slow path: run the full
/// pipeline (which also warms the PMV for future checks) and test for
/// any result.
pub fn exists_accelerated(
    edb: &EpochDb,
    pmv: &SharedPmv,
    subquery: &QueryInstance,
) -> Result<ExistsOutcome> {
    // Fast path: a witness in the PMV settles it. (Read-only probe: no
    // policy touch, no stats mutation beyond the fast-path counterless
    // peek — the slow path does full accounting.)
    let parts = decompose(pmv.def(), subquery)?;
    if parts.iter().any(|part| pmv.has_witness(part, subquery)) {
        return Ok(ExistsOutcome {
            exists: true,
            fast_path: true,
        });
    }
    // Slow path: execute (and warm the PMV as a side effect).
    let outcome = edb.query(pmv, subquery)?;
    Ok(ExistsOutcome {
        exists: !outcome.partial.is_empty() || !outcome.remaining.is_empty(),
        fast_path: false,
    })
}
