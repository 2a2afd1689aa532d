//! The two disjunctive selection-condition forms of Section 2.1.
//!
//! An equality-form condition is `∨_{r=1..u} (R.a = v_r)`; an interval-form
//! condition is `∨_{r=1..u} (v_r < R.a < w_r)` with pairwise-disjoint
//! intervals that may be open/closed and bounded/unbounded on either side.

use std::cmp::Ordering;
use std::fmt;
use std::ops::Bound;

use pmv_storage::Value;

/// One interval over a totally ordered attribute domain.
///
/// Bounds may be open ([`Bound::Excluded`]), closed ([`Bound::Included`]),
/// or unbounded — "the intervals can be either bounded or unbounded, open
/// or closed" (Section 2.1).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Interval {
    /// Lower bound.
    pub lo: Bound<Value>,
    /// Upper bound.
    pub hi: Bound<Value>,
}

impl Interval {
    /// Open interval `(lo, hi)`.
    pub fn open(lo: impl Into<Value>, hi: impl Into<Value>) -> Self {
        Interval {
            lo: Bound::Excluded(lo.into()),
            hi: Bound::Excluded(hi.into()),
        }
    }

    /// Closed interval `[lo, hi]`.
    pub fn closed(lo: impl Into<Value>, hi: impl Into<Value>) -> Self {
        Interval {
            lo: Bound::Included(lo.into()),
            hi: Bound::Included(hi.into()),
        }
    }

    /// Half-open interval `[lo, hi)`.
    pub fn half_open(lo: impl Into<Value>, hi: impl Into<Value>) -> Self {
        Interval {
            lo: Bound::Included(lo.into()),
            hi: Bound::Excluded(hi.into()),
        }
    }

    /// Interval unbounded below: `(-∞, hi)` (open at `hi` unless `closed`).
    pub fn below(hi: impl Into<Value>, closed: bool) -> Self {
        Interval {
            lo: Bound::Unbounded,
            hi: if closed {
                Bound::Included(hi.into())
            } else {
                Bound::Excluded(hi.into())
            },
        }
    }

    /// Interval unbounded above: `(lo, +∞)` (open at `lo` unless `closed`).
    pub fn above(lo: impl Into<Value>, closed: bool) -> Self {
        Interval {
            lo: if closed {
                Bound::Included(lo.into())
            } else {
                Bound::Excluded(lo.into())
            },
            hi: Bound::Unbounded,
        }
    }

    /// The whole domain `(-∞, +∞)` — the paper's `E_i`.
    pub fn everything() -> Self {
        Interval {
            lo: Bound::Unbounded,
            hi: Bound::Unbounded,
        }
    }

    /// Whether `v` lies inside this interval.
    pub fn contains(&self, v: &Value) -> bool {
        let above_lo = match &self.lo {
            Bound::Unbounded => true,
            Bound::Included(b) => v >= b,
            Bound::Excluded(b) => v > b,
        };
        let below_hi = match &self.hi {
            Bound::Unbounded => true,
            Bound::Included(b) => v <= b,
            Bound::Excluded(b) => v < b,
        };
        above_lo && below_hi
    }

    /// Whether the interval is certainly empty (only decidable when both
    /// bounds are present).
    pub fn is_empty(&self) -> bool {
        match (&self.lo, &self.hi) {
            (Bound::Included(a), Bound::Included(b)) => a > b,
            (Bound::Included(a), Bound::Excluded(b))
            | (Bound::Excluded(a), Bound::Included(b))
            | (Bound::Excluded(a), Bound::Excluded(b)) => a >= b,
            _ => false,
        }
    }

    /// Whether two intervals overlap (share at least one point). Assumes
    /// neither is empty.
    pub fn overlaps(&self, other: &Interval) -> bool {
        // a.lo <= b.hi and b.lo <= a.hi, with open/closed care: intervals
        // are disjoint iff one ends before the other begins.
        !Self::ends_before(&self.hi, &other.lo) && !Self::ends_before(&other.hi, &self.lo)
    }

    /// True if an interval ending at `hi` is entirely before one starting
    /// at `lo`.
    fn ends_before(hi: &Bound<Value>, lo: &Bound<Value>) -> bool {
        match (hi, lo) {
            (Bound::Unbounded, _) | (_, Bound::Unbounded) => false,
            (Bound::Included(h), Bound::Included(l)) => h < l,
            (Bound::Included(h), Bound::Excluded(l)) => h <= l,
            (Bound::Excluded(h), Bound::Included(l)) => h <= l,
            (Bound::Excluded(h), Bound::Excluded(l)) => h <= l,
        }
    }

    /// Intersection of two intervals, or `None` if they do not overlap.
    pub fn intersect(&self, other: &Interval) -> Option<Interval> {
        if !self.overlaps(other) {
            return None;
        }
        let lo = Self::max_lo(&self.lo, &other.lo);
        let hi = Self::min_hi(&self.hi, &other.hi);
        let out = Interval { lo, hi };
        (!out.is_empty()).then_some(out)
    }

    /// The tighter (greater) of two lower bounds.
    fn max_lo(a: &Bound<Value>, b: &Bound<Value>) -> Bound<Value> {
        match Self::cmp_lo(a, b) {
            Ordering::Less => b.clone(),
            _ => a.clone(),
        }
    }

    /// The tighter (smaller) of two upper bounds.
    fn min_hi(a: &Bound<Value>, b: &Bound<Value>) -> Bound<Value> {
        match Self::cmp_hi(a, b) {
            Ordering::Greater => b.clone(),
            _ => a.clone(),
        }
    }

    /// Order lower bounds by tightness (Unbounded loosest; at equal value
    /// Included is looser than Excluded).
    fn cmp_lo(a: &Bound<Value>, b: &Bound<Value>) -> Ordering {
        match (a, b) {
            (Bound::Unbounded, Bound::Unbounded) => Ordering::Equal,
            (Bound::Unbounded, _) => Ordering::Less,
            (_, Bound::Unbounded) => Ordering::Greater,
            (Bound::Included(x), Bound::Included(y)) | (Bound::Excluded(x), Bound::Excluded(y)) => {
                x.cmp(y)
            }
            (Bound::Included(x), Bound::Excluded(y)) => x.cmp(y).then(Ordering::Less),
            (Bound::Excluded(x), Bound::Included(y)) => x.cmp(y).then(Ordering::Greater),
        }
    }

    /// Order upper bounds by position (Unbounded greatest; at equal value
    /// Excluded is smaller than Included).
    fn cmp_hi(a: &Bound<Value>, b: &Bound<Value>) -> Ordering {
        match (a, b) {
            (Bound::Unbounded, Bound::Unbounded) => Ordering::Equal,
            (Bound::Unbounded, _) => Ordering::Greater,
            (_, Bound::Unbounded) => Ordering::Less,
            (Bound::Included(x), Bound::Included(y)) | (Bound::Excluded(x), Bound::Excluded(y)) => {
                x.cmp(y)
            }
            (Bound::Excluded(x), Bound::Included(y)) => x.cmp(y).then(Ordering::Less),
            (Bound::Included(x), Bound::Excluded(y)) => x.cmp(y).then(Ordering::Greater),
        }
    }
}

impl fmt::Display for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.lo {
            Bound::Unbounded => write!(f, "(-inf")?,
            Bound::Included(v) => write!(f, "[{v}")?,
            Bound::Excluded(v) => write!(f, "({v}")?,
        }
        write!(f, ", ")?;
        match &self.hi {
            Bound::Unbounded => write!(f, "+inf)"),
            Bound::Included(v) => write!(f, "{v}]"),
            Bound::Excluded(v) => write!(f, "{v})"),
        }
    }
}

/// A bound selection condition `Ci`: one of the two disjunctive forms,
/// over a single attribute.
#[derive(Clone, Debug, PartialEq)]
pub enum Condition {
    /// Equality form: attribute ∈ `values`.
    Equality(Vec<Value>),
    /// Interval form: attribute in one of the (disjoint) `intervals`.
    Intervals(Vec<Interval>),
}

impl Condition {
    /// Whether `v` satisfies the condition.
    pub fn matches(&self, v: &Value) -> bool {
        match self {
            Condition::Equality(vals) => vals.contains(v),
            Condition::Intervals(ivs) => ivs.iter().any(|i| i.contains(v)),
        }
    }

    /// Number of disjuncts (`u_i` in the paper).
    pub fn disjunct_count(&self) -> usize {
        match self {
            Condition::Equality(vals) => vals.len(),
            Condition::Intervals(ivs) => ivs.len(),
        }
    }

    /// Validate the form: equality values must be distinct; intervals must
    /// be non-empty and pairwise disjoint (Section 2.1 requires it).
    pub fn validate(&self) -> Result<(), String> {
        match self {
            Condition::Equality(vals) => {
                if vals.is_empty() {
                    return Err("equality condition with no values".into());
                }
                for (i, v) in vals.iter().enumerate() {
                    if vals[..i].contains(v) {
                        return Err(format!("duplicate equality value {v}"));
                    }
                }
                Ok(())
            }
            Condition::Intervals(ivs) => {
                if ivs.is_empty() {
                    return Err("interval condition with no intervals".into());
                }
                for (i, iv) in ivs.iter().enumerate() {
                    if iv.is_empty() {
                        return Err(format!("empty interval {iv}"));
                    }
                    for other in &ivs[..i] {
                        if iv.overlaps(other) {
                            return Err(format!("intervals {other} and {iv} overlap"));
                        }
                    }
                }
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(x: i64) -> Value {
        Value::Int(x)
    }

    #[test]
    fn contains_respects_open_closed() {
        let open = Interval::open(1i64, 5i64);
        assert!(!open.contains(&v(1)));
        assert!(open.contains(&v(3)));
        assert!(!open.contains(&v(5)));

        let closed = Interval::closed(1i64, 5i64);
        assert!(closed.contains(&v(1)));
        assert!(closed.contains(&v(5)));

        let half = Interval::half_open(1i64, 5i64);
        assert!(half.contains(&v(1)));
        assert!(!half.contains(&v(5)));
    }

    #[test]
    fn unbounded_sides() {
        let below = Interval::below(10i64, false);
        assert!(below.contains(&v(i64::MIN)));
        assert!(!below.contains(&v(10)));
        let above = Interval::above(10i64, true);
        assert!(above.contains(&v(10)));
        assert!(above.contains(&v(i64::MAX)));
        assert!(Interval::everything().contains(&v(0)));
    }

    #[test]
    fn emptiness() {
        assert!(Interval::open(3i64, 3i64).is_empty());
        assert!(!Interval::closed(3i64, 3i64).is_empty());
        assert!(Interval::closed(5i64, 3i64).is_empty());
        assert!(!Interval::everything().is_empty());
    }

    #[test]
    fn overlap_cases() {
        let a = Interval::closed(1i64, 5i64);
        let b = Interval::closed(5i64, 9i64);
        assert!(a.overlaps(&b)); // share point 5
        let c = Interval::open(5i64, 9i64);
        assert!(!a.overlaps(&c)); // c starts strictly after 5
        let d = Interval::half_open(1i64, 5i64);
        let e = Interval::half_open(5i64, 9i64);
        assert!(!d.overlaps(&e)); // [1,5) and [5,9) are disjoint
        assert!(Interval::everything().overlaps(&a));
    }

    #[test]
    fn intersection() {
        let a = Interval::closed(1i64, 10i64);
        let b = Interval::open(5i64, 20i64);
        let i = a.intersect(&b).unwrap();
        assert!(!i.contains(&v(5)));
        assert!(i.contains(&v(6)));
        assert!(i.contains(&v(10)));
        assert!(!i.contains(&v(11)));

        let c = Interval::closed(30i64, 40i64);
        assert!(a.intersect(&c).is_none());
    }

    #[test]
    fn intersect_with_unbounded() {
        let a = Interval::everything();
        let b = Interval::half_open(2i64, 7i64);
        assert_eq!(a.intersect(&b), Some(b.clone()));
        assert_eq!(b.intersect(&a), Some(b));
    }

    #[test]
    fn condition_matches() {
        let eq = Condition::Equality(vec![v(1), v(3)]);
        assert!(eq.matches(&v(3)));
        assert!(!eq.matches(&v(2)));
        assert_eq!(eq.disjunct_count(), 2);

        let iv = Condition::Intervals(vec![
            Interval::open(0i64, 10i64),
            Interval::open(20i64, 30i64),
        ]);
        assert!(iv.matches(&v(5)));
        assert!(!iv.matches(&v(15)));
        assert!(iv.matches(&v(25)));
    }

    #[test]
    fn validation_catches_bad_forms() {
        assert!(Condition::Equality(vec![]).validate().is_err());
        assert!(Condition::Equality(vec![v(1), v(1)]).validate().is_err());
        assert!(Condition::Equality(vec![v(1), v(2)]).validate().is_ok());

        let overlapping = Condition::Intervals(vec![
            Interval::closed(1i64, 5i64),
            Interval::closed(4i64, 9i64),
        ]);
        assert!(overlapping.validate().is_err());

        let disjoint = Condition::Intervals(vec![
            Interval::half_open(1i64, 5i64),
            Interval::half_open(5i64, 9i64),
        ]);
        assert!(disjoint.validate().is_ok());

        let empty = Condition::Intervals(vec![Interval::open(3i64, 3i64)]);
        assert!(empty.validate().is_err());
    }

    #[test]
    fn display_formats() {
        assert_eq!(Interval::open(1i64, 2i64).to_string(), "(1, 2)");
        assert_eq!(Interval::closed(1i64, 2i64).to_string(), "[1, 2]");
        assert_eq!(Interval::everything().to_string(), "(-inf, +inf)");
    }
}
