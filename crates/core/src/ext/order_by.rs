//! ORDER BY handling (Section 3.6 mentions queries "with order by
//! clauses" alongside aggregates; details deferred to \[25\]).
//!
//! Interface change, as with aggregates: the early partial results are
//! delivered sorted (a correctly ordered *sample* of the answer), and the
//! full, totally ordered answer follows after execution. The combined
//! stream cannot be globally ordered before execution finishes — that is
//! inherent — so the API exposes both the ordered prefix view and the
//! final ordering.

use std::cmp::Ordering;

use pmv_query::QueryInstance;
use pmv_storage::{Tuple, Value};

use crate::concurrent::SharedPmv;
use crate::epoch::EpochDb;
use crate::pipeline::QueryTimings;
use crate::Result;

/// Sort direction for one key.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    /// Ascending.
    Asc,
    /// Descending.
    Desc,
}

/// An ORDER BY specification: positions in the user select list with
/// directions, applied lexicographically.
#[derive(Clone, Debug)]
pub struct OrderBy {
    /// `(user-layout position, direction)` pairs, major key first.
    pub keys: Vec<(usize, Direction)>,
}

impl OrderBy {
    /// Compare two user-layout tuples under this ordering.
    pub fn cmp(&self, a: &Tuple, b: &Tuple) -> Ordering {
        for &(pos, dir) in &self.keys {
            let (x, y): (&Value, &Value) = (a.get(pos), b.get(pos));
            let ord = x.cmp(y);
            let ord = match dir {
                Direction::Asc => ord,
                Direction::Desc => ord.reverse(),
            };
            if ord != Ordering::Equal {
                return ord;
            }
        }
        Ordering::Equal
    }

    /// Sort tuples under this ordering (stable).
    pub fn sort(&self, tuples: &mut [Tuple]) {
        tuples.sort_by(|a, b| self.cmp(a, b));
    }
}

/// Outcome of an ordered run.
#[derive(Clone, Debug)]
pub struct OrderedOutcome {
    /// Partial results, sorted under the requested ordering — an ordered
    /// sample available immediately.
    pub partial_sorted: Vec<Tuple>,
    /// The complete answer, totally sorted.
    pub all_sorted: Vec<Tuple>,
    /// Whether any probed bcp was resident.
    pub bcp_hit: bool,
    /// Timing breakdown of the underlying run.
    pub timings: QueryTimings,
}

/// Run `q` with ORDER BY semantics.
pub fn run_ordered(
    edb: &EpochDb,
    pmv: &SharedPmv,
    q: &QueryInstance,
    order: &OrderBy,
) -> Result<OrderedOutcome> {
    let outcome = edb.query(pmv, q)?;
    let mut partial_sorted: Vec<Tuple> = outcome.partial.iter().map(|t| Tuple::clone(t)).collect();
    order.sort(&mut partial_sorted);
    let mut all_sorted = outcome.all_results();
    order.sort(&mut all_sorted);
    Ok(OrderedOutcome {
        partial_sorted,
        all_sorted,
        bcp_hit: outcome.bcp_hit,
        timings: outcome.timings,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmv_storage::tuple;

    #[test]
    fn lexicographic_multi_key() {
        let order = OrderBy {
            keys: vec![(0, Direction::Asc), (1, Direction::Desc)],
        };
        let mut rows = vec![
            tuple![2i64, 1i64],
            tuple![1i64, 5i64],
            tuple![1i64, 9i64],
            tuple![2i64, 7i64],
        ];
        order.sort(&mut rows);
        assert_eq!(
            rows,
            vec![
                tuple![1i64, 9i64],
                tuple![1i64, 5i64],
                tuple![2i64, 7i64],
                tuple![2i64, 1i64],
            ]
        );
    }
}
