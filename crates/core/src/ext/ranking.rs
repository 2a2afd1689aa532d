//! Popularity ranking of result tuples (paper conclusion: "our techniques
//! can be extended to address other problems, such as ranking query
//! result tuples according to their popularity").
//!
//! The PMV store counts, per bcp, how many queries it served (its *hit
//! count*). Result tuples can then be ranked by their containing bcp's
//! popularity, putting the hottest results first.

use pmv_storage::Tuple;

use crate::concurrent::SharedPmv;
use crate::pipeline::QueryOutcome;

/// Rank an outcome's full result set by descending bcp popularity.
/// Returns `(user tuple, popularity)` pairs; ties keep their original
/// (partial-first) order.
pub fn rank_by_popularity(pmv: &SharedPmv, outcome: &QueryOutcome) -> Vec<(Tuple, u64)> {
    let template = pmv.def().template();
    let mut ranked: Vec<(Tuple, u64)> = outcome
        .partial_expanded
        .iter()
        .chain(&outcome.remaining_expanded)
        .map(|t| {
            let bcp = pmv.def().bcp_of_tuple(t);
            (template.user_tuple(t), pmv.hit_count(&bcp))
        })
        .collect();
    ranked.sort_by_key(|r| std::cmp::Reverse(r.1));
    ranked
}
