//! Aggregate (GROUP BY) queries over the PMV pipeline (Section 3.6).
//!
//! "With minor changes in the user interface, PMVs can also be used to
//! handle aggregate queries." The change is in the *interface*: the early
//! answer computed from partial results is labeled a partial aggregate
//! (a lower bound for COUNT/SUM over non-negative values, a tightening
//! bound for MIN/MAX); the exact aggregate follows once execution
//! finishes.

use std::collections::HashMap;

use pmv_query::QueryInstance;
use pmv_storage::{Tuple, Value};

use crate::concurrent::SharedPmv;
use crate::epoch::EpochDb;
use crate::pipeline::QueryTimings;
use crate::{CoreError, Result};

/// Aggregate function over a user-layout column.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AggFn {
    /// COUNT(*).
    Count,
    /// SUM over the numeric column at this user-layout position.
    Sum(usize),
    /// MIN over the column at this position.
    Min(usize),
    /// MAX over the column at this position.
    Max(usize),
}

/// A computed aggregate value.
#[derive(Clone, Debug, PartialEq)]
pub enum AggValue {
    /// COUNT result.
    Count(u64),
    /// SUM result (doubles and ints both accumulate here).
    Sum(f64),
    /// MIN result.
    Min(Value),
    /// MAX result.
    Max(Value),
}

/// GROUP BY specification: grouping positions in the *user* select list,
/// plus one aggregate.
#[derive(Clone, Debug)]
pub struct GroupBySpec {
    /// Positions in `Ls` to group on (empty = one global group).
    pub group_by: Vec<usize>,
    /// The aggregate to compute.
    pub agg: AggFn,
}

/// Outcome of an aggregate run: early partial aggregates plus the exact
/// final ones.
#[derive(Clone, Debug)]
pub struct AggregateOutcome {
    /// Aggregates over the partial results only — available immediately,
    /// clearly labeled approximate.
    pub partial: Vec<(Tuple, AggValue)>,
    /// Exact aggregates over the full result set.
    pub exact: Vec<(Tuple, AggValue)>,
    /// Whether any probed bcp was resident.
    pub bcp_hit: bool,
    /// Timing breakdown of the underlying run.
    pub timings: QueryTimings,
}

fn numeric(v: &Value) -> Result<f64> {
    match v {
        Value::Int(i) => Ok(*i as f64),
        Value::Double(d) => Ok(d.get()),
        other => Err(CoreError::Definition(format!(
            "cannot aggregate non-numeric value {other}"
        ))),
    }
}

/// Fold `rows` (user layout) into per-group aggregates, sorted by group
/// key for deterministic output.
pub fn aggregate_rows<'a>(
    rows: impl IntoIterator<Item = &'a Tuple>,
    spec: &GroupBySpec,
) -> Result<Vec<(Tuple, AggValue)>> {
    let mut groups: HashMap<Tuple, AggValue> = HashMap::new();
    for row in rows {
        let key = row.project(&spec.group_by);
        match spec.agg {
            AggFn::Count => {
                let e = groups.entry(key).or_insert(AggValue::Count(0));
                if let AggValue::Count(n) = e {
                    *n += 1;
                }
            }
            AggFn::Sum(col) => {
                let x = numeric(row.get(col))?;
                let e = groups.entry(key).or_insert(AggValue::Sum(0.0));
                if let AggValue::Sum(s) = e {
                    *s += x;
                }
            }
            AggFn::Min(col) => {
                let v = row.get(col).clone();
                groups
                    .entry(key)
                    .and_modify(|e| {
                        if let AggValue::Min(m) = e {
                            if v < *m {
                                *m = v.clone();
                            }
                        }
                    })
                    .or_insert(AggValue::Min(v));
            }
            AggFn::Max(col) => {
                let v = row.get(col).clone();
                groups
                    .entry(key)
                    .and_modify(|e| {
                        if let AggValue::Max(m) = e {
                            if v > *m {
                                *m = v.clone();
                            }
                        }
                    })
                    .or_insert(AggValue::Max(v));
            }
        }
    }
    let mut out: Vec<(Tuple, AggValue)> = groups.into_iter().collect();
    out.sort_by(|a, b| a.0.cmp(&b.0));
    Ok(out)
}

/// Run `q` and report both the immediate partial aggregates and the
/// exact final aggregates.
pub fn run_aggregate(
    edb: &EpochDb,
    pmv: &SharedPmv,
    q: &QueryInstance,
    spec: &GroupBySpec,
) -> Result<AggregateOutcome> {
    let outcome = edb.query(pmv, q)?;
    let partial = aggregate_rows(outcome.partial.iter().map(|t| &**t), spec)?;
    let exact = aggregate_rows(&outcome.all_results(), spec)?;
    Ok(AggregateOutcome {
        partial,
        exact,
        bcp_hit: outcome.bcp_hit,
        timings: outcome.timings,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmv_storage::tuple;

    #[test]
    fn count_groups() {
        let rows = vec![
            tuple![1i64, 10i64],
            tuple![1i64, 20i64],
            tuple![2i64, 30i64],
        ];
        let out = aggregate_rows(
            &rows,
            &GroupBySpec {
                group_by: vec![0],
                agg: AggFn::Count,
            },
        )
        .unwrap();
        assert_eq!(
            out,
            vec![
                (tuple![1i64], AggValue::Count(2)),
                (tuple![2i64], AggValue::Count(1)),
            ]
        );
    }

    #[test]
    fn sum_min_max() {
        let rows = vec![tuple![1i64, 10i64], tuple![1i64, 20i64]];
        let spec = |agg| GroupBySpec {
            group_by: vec![0],
            agg,
        };
        assert_eq!(
            aggregate_rows(&rows, &spec(AggFn::Sum(1))).unwrap()[0].1,
            AggValue::Sum(30.0)
        );
        assert_eq!(
            aggregate_rows(&rows, &spec(AggFn::Min(1))).unwrap()[0].1,
            AggValue::Min(Value::Int(10))
        );
        assert_eq!(
            aggregate_rows(&rows, &spec(AggFn::Max(1))).unwrap()[0].1,
            AggValue::Max(Value::Int(20))
        );
    }

    #[test]
    fn global_group_when_empty_group_by() {
        let rows = vec![tuple![1i64], tuple![2i64], tuple![3i64]];
        let out = aggregate_rows(
            &rows,
            &GroupBySpec {
                group_by: vec![],
                agg: AggFn::Count,
            },
        )
        .unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].1, AggValue::Count(3));
    }

    #[test]
    fn sum_of_strings_errors() {
        let rows = vec![tuple!["x"]];
        assert!(aggregate_rows(
            &rows,
            &GroupBySpec {
                group_by: vec![],
                agg: AggFn::Sum(0),
            },
        )
        .is_err());
    }
}
