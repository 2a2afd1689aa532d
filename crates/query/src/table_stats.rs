//! Table statistics, in the spirit of the paper's setup step "we ran the
//! PostgreSQL statistics collection program on all the relations"
//! (Section 4.2): per-column distinct counts used by the executor to
//! pick the most selective driving condition.

use std::collections::{HashMap, HashSet};

use pmv_storage::Value;

use crate::engine::Database;
use crate::Result;

/// Statistics for one column.
#[derive(Clone, Debug, PartialEq)]
pub struct ColumnStats {
    /// Number of distinct values observed.
    pub distinct: usize,
    /// Minimum value (None for an empty relation).
    pub min: Option<Value>,
    /// Maximum value.
    pub max: Option<Value>,
    /// Equi-depth histogram over integer columns (None otherwise or when
    /// the relation is empty).
    pub histogram: Option<Histogram>,
}

/// An equi-depth histogram: `bounds` are bucket upper edges over the
/// sorted values, so each bucket holds ≈ rows/buckets values. Standard
/// RDBMS statistics fare; used to estimate interval selectivities on
/// skewed data where a min/max uniformity assumption misleads.
#[derive(Clone, Debug, PartialEq)]
pub struct Histogram {
    /// Total values summarized.
    total: usize,
    /// Ascending bucket upper bounds (inclusive); the last equals max.
    bounds: Vec<i64>,
    /// Overall minimum.
    lo: i64,
}

impl Histogram {
    /// Number of buckets this histogram was built with.
    pub const BUCKETS: usize = 32;

    /// Build from an unsorted sample of integer values.
    pub fn build(mut values: Vec<i64>) -> Option<Histogram> {
        if values.is_empty() {
            return None;
        }
        values.sort_unstable();
        let total = values.len();
        let lo = values[0];
        let buckets = Self::BUCKETS.min(total);
        let mut bounds = Vec::with_capacity(buckets);
        for b in 1..=buckets {
            let idx = (b * total / buckets).saturating_sub(1);
            bounds.push(values[idx]);
        }
        bounds.dedup();
        Some(Histogram { total, bounds, lo })
    }

    /// Estimated number of rows with value in `[lo, hi]` (inclusive,
    /// saturating at the histogram's range).
    pub fn estimate_range_rows(&self, lo: i64, hi: i64) -> f64 {
        if hi < lo || self.total == 0 {
            return 0.0;
        }
        // Fraction of values ≤ x, with linear interpolation inside the
        // bucket. Bucket i covers the integer range (prev_edge, edge]
        // (the first bucket starts at lo).
        let frac_le = |x: i64| -> f64 {
            if x < self.lo {
                return 0.0;
            }
            let nb = self.bounds.len() as f64;
            let mut prev = self.lo - 1;
            for (i, &edge) in self.bounds.iter().enumerate() {
                if x <= edge {
                    let width = (edge - prev) as f64; // ≥ 1
                    let within = (x - prev) as f64 / width;
                    return (i as f64 + within.min(1.0)) / nb;
                }
                prev = edge;
            }
            1.0
        };
        let f = (frac_le(hi) - frac_le(lo - 1)).clamp(0.0, 1.0);
        f * self.total as f64
    }
}

/// Statistics for one relation.
#[derive(Clone, Debug)]
pub struct RelationStats {
    /// Live tuple count at analyze time.
    pub rows: usize,
    /// Per-column statistics, in schema order.
    pub columns: Vec<ColumnStats>,
}

impl RelationStats {
    /// Estimated rows matching one equality disjunct on `col`
    /// (uniformity assumption: rows / distinct).
    pub fn eq_selectivity_rows(&self, col: usize) -> f64 {
        let d = self.columns[col].distinct.max(1);
        self.rows as f64 / d as f64
    }
}

/// Statistics for a set of relations.
#[derive(Clone, Debug, Default)]
pub struct TableStats {
    relations: HashMap<String, RelationStats>,
}

impl TableStats {
    /// Scan the named relations once, collecting row counts and
    /// per-column distinct/min/max.
    pub fn analyze(db: &Database, relations: &[&str]) -> Result<TableStats> {
        let mut out = TableStats::default();
        for &name in relations {
            let rel = db.relation(name)?;
            let arity = rel.schema().arity();
            let mut distinct: Vec<HashSet<Value>> = vec![HashSet::new(); arity];
            let mut min: Vec<Option<Value>> = vec![None; arity];
            let mut max: Vec<Option<Value>> = vec![None; arity];
            let mut int_samples: Vec<Vec<i64>> = vec![Vec::new(); arity];
            let mut rows = 0usize;
            for (_, t) in rel.iter() {
                rows += 1;
                for c in 0..arity {
                    let v = t.get(c);
                    distinct[c].insert(v.clone());
                    if let Value::Int(i) = v {
                        int_samples[c].push(*i);
                    }
                    match &min[c] {
                        Some(m) if v >= m => {}
                        _ => min[c] = Some(v.clone()),
                    }
                    match &max[c] {
                        Some(m) if v <= m => {}
                        _ => max[c] = Some(v.clone()),
                    }
                }
            }
            let mut int_samples = int_samples.into_iter();
            out.relations.insert(
                name.to_string(),
                RelationStats {
                    rows,
                    columns: (0..arity)
                        .map(|c| {
                            let samples = int_samples.next().expect("one per column");
                            ColumnStats {
                                distinct: distinct[c].len(),
                                min: min[c].clone(),
                                max: max[c].clone(),
                                histogram: if samples.len() == rows {
                                    Histogram::build(samples)
                                } else {
                                    None // non-integer column
                                },
                            }
                        })
                        .collect(),
                },
            );
        }
        Ok(out)
    }

    /// Stats for one relation.
    pub fn relation(&self, name: &str) -> Option<&RelationStats> {
        self.relations.get(name)
    }

    /// Number of analyzed relations.
    pub fn len(&self) -> usize {
        self.relations.len()
    }

    /// True if nothing has been analyzed.
    pub fn is_empty(&self) -> bool {
        self.relations.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmv_storage::{tuple, Column, ColumnType, Schema};

    fn db() -> Database {
        let mut db = Database::new();
        db.create_relation(Schema::new(
            "r",
            vec![
                Column::new("a", ColumnType::Int),
                Column::new("b", ColumnType::Int),
            ],
        ))
        .unwrap();
        for i in 0..100i64 {
            db.insert("r", tuple![i, i % 4]).unwrap();
        }
        db
    }

    #[test]
    fn analyze_counts_distincts_and_bounds() {
        let db = db();
        let stats = TableStats::analyze(&db, &["r"]).unwrap();
        let r = stats.relation("r").unwrap();
        assert_eq!(r.rows, 100);
        assert_eq!(r.columns[0].distinct, 100);
        assert_eq!(r.columns[1].distinct, 4);
        assert_eq!(r.columns[0].min, Some(Value::Int(0)));
        assert_eq!(r.columns[0].max, Some(Value::Int(99)));
        // Uniformity estimates.
        assert!((r.eq_selectivity_rows(0) - 1.0).abs() < 1e-9);
        assert!((r.eq_selectivity_rows(1) - 25.0).abs() < 1e-9);
    }

    #[test]
    fn empty_relation_is_safe() {
        let mut db = Database::new();
        db.create_relation(Schema::new("e", vec![Column::new("x", ColumnType::Int)]))
            .unwrap();
        let stats = TableStats::analyze(&db, &["e"]).unwrap();
        let e = stats.relation("e").unwrap();
        assert_eq!(e.rows, 0);
        assert_eq!(e.columns[0].distinct, 0);
        assert_eq!(e.columns[0].min, None);
        assert!(e.eq_selectivity_rows(0) >= 0.0);
    }

    #[test]
    fn histogram_equi_depth_on_uniform_data() {
        let h = Histogram::build((0..1000i64).collect()).unwrap();
        // Whole range ≈ all rows.
        assert!((h.estimate_range_rows(0, 999) - 1000.0).abs() < 1.0);
        // A 10% slice ≈ 100 rows (within a bucket of slack).
        let est = h.estimate_range_rows(100, 199);
        assert!((60.0..=160.0).contains(&est), "{est}");
        // Out-of-range queries estimate ~0.
        assert!(h.estimate_range_rows(2000, 3000) < 1.0);
        assert_eq!(h.estimate_range_rows(10, 5), 0.0);
    }

    #[test]
    fn histogram_handles_skew_better_than_uniformity() {
        // 90% of values at 0..10, 10% spread to 1000.
        let mut vals: Vec<i64> = (0..900).map(|i| i % 10).collect();
        vals.extend((0..100).map(|i| 10 + i * 10));
        let h = Histogram::build(vals).unwrap();
        let dense = h.estimate_range_rows(0, 9);
        let sparse = h.estimate_range_rows(500, 1000);
        assert!(dense > 700.0, "dense region underestimated: {dense}");
        assert!(sparse < 150.0, "sparse region overestimated: {sparse}");
        // A min/max uniformity model would say dense ≈ 10/1000 of rows
        // = 10 — off by ~80×.
    }

    #[test]
    fn analyze_builds_histograms_for_int_columns() {
        let db = db();
        let stats = TableStats::analyze(&db, &["r"]).unwrap();
        let r = stats.relation("r").unwrap();
        assert!(r.columns[0].histogram.is_some());
        let h = r.columns[0].histogram.as_ref().unwrap();
        assert!((h.estimate_range_rows(0, 99) - 100.0).abs() < 10.0);
    }

    #[test]
    fn histogram_build_edge_cases() {
        assert!(Histogram::build(vec![]).is_none());
        let single = Histogram::build(vec![5]).unwrap();
        assert!(single.estimate_range_rows(5, 5) >= 0.9);
        let constant = Histogram::build(vec![7; 100]).unwrap();
        assert!((constant.estimate_range_rows(7, 7) - 100.0).abs() < 1.0);
        assert!(constant.estimate_range_rows(8, 9) < 1.0);
    }

    #[test]
    fn unknown_relation_errors() {
        let db = db();
        assert!(TableStats::analyze(&db, &["nope"]).is_err());
    }
}
