//! Basic condition parts (Section 3.1).
//!
//! For each interval-form selection condition `Ci`, the RDBMS knows
//! "dividing values" that split the attribute's entire range `E_i` into
//! non-overlapping *basic intervals* that fully cover `E_i`; each basic
//! interval gets an id. A **basic condition part** (bcp) is then an
//! m-tuple with, per condition, either an equality value (equality form)
//! or a basic-interval id (interval form) — exactly how the paper stores
//! bcps: "if d_i is of the form R.a = b_i, value b_i is stored; if d_i is
//! an interval, the id of (b_i, c_i) is stored."

use std::borrow::Cow;
use std::fmt;
use std::ops::Bound;

use pmv_query::Interval;
use pmv_storage::packed::{self, Field, Fields};
use pmv_storage::string::INLINE_CAP;
use pmv_storage::{ByteStr, HeapSize, RowRef, Value};

/// One dimension of a [`BcpKey`].
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum BcpDim {
    /// Equality-form condition: the equality value itself.
    Eq(Value),
    /// Interval-form condition: the basic interval's id.
    Iv(u32),
}

impl fmt::Display for BcpDim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BcpDim::Eq(v) => write!(f, "{v}"),
            BcpDim::Iv(id) => write!(f, "#{id}"),
        }
    }
}

/// A basic condition part: one packed field per selection condition, in
/// `Cselect` order — an equality dimension's value in
/// [`PackedRow`](pmv_storage::PackedRow)'s encoding, an interval
/// dimension's basic-interval id written as an `Int`. The template says
/// which dimensions are intervals, so the bytes carry no mark of it:
/// [`BcpKey::dims`] takes the shape. A value has one encoding, so equal
/// keys have equal bytes, and `Eq`, `Hash` and `Ord` are the bytes'.
///
/// The bytes sit in a 16-byte [`ByteStr`]: a key of at most 12 bytes —
/// every T1 key, two integers of 1–2 bytes each behind one byte of their
/// two tags — is
/// inline, owns no heap and allocates nothing when built or cloned.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BcpKey(ByteStr);

impl BcpKey {
    /// Build from dimensions (one per condition, in `Cselect` order).
    pub fn new(dims: impl AsRef<[BcpDim]>) -> Self {
        BcpKey::pack(dims.as_ref().iter().map(|d| match d {
            BcpDim::Eq(v) => Cow::Borrowed(v),
            BcpDim::Iv(id) => Cow::Owned(Value::Int(i64::from(*id))),
        }))
    }

    /// The key whose fields are `fields`, in order: an equality
    /// dimension's value, an interval dimension's id as an `Int`,
    /// packed as a row is. A key that fits inline — every T1 key — is
    /// written in one pass into a stack buffer with room for an
    /// integer's 8-byte store; a longer one is sized and written again
    /// into its heap bytes.
    pub(crate) fn pack<'a>(fields: impl Iterator<Item = Cow<'a, Value>> + Clone) -> Self {
        let mut buf = [0u8; INLINE_CAP + packed::MAX_NUMBER_BYTES];
        match packed::pack_into(&mut buf, fields.clone()) {
            Some(len) if len <= INLINE_CAP => {
                let inline = buf[..INLINE_CAP].try_into().expect("INLINE_CAP bytes");
                BcpKey(ByteStr::inline_prefix(inline, len))
            }
            _ => {
                let mut long = vec![0u8; packed::row_len(fields.clone())];
                packed::pack_into(&mut long, fields).expect("a key fits its row_len");
                BcpKey(ByteStr::new(long))
            }
        }
    }

    /// The fields, one per dimension: an interval dimension reads as its
    /// id, an `Int`.
    #[inline]
    pub fn fields(&self) -> Fields<'_> {
        Fields::new(self.0.as_bytes())
    }

    /// The fields as values — what a stored layout derives an equality
    /// position from. Decoded once per entry, not per served row.
    pub fn values(&self) -> impl Iterator<Item = Value> + '_ {
        self.fields().map(Field::to_value)
    }

    /// The dimensions, `interval(i)` telling whether condition `i` is
    /// interval-form.
    pub fn dims(&self, interval: impl Fn(usize) -> bool) -> Vec<BcpDim> {
        self.fields()
            .enumerate()
            .map(|(i, f)| match f {
                Field::Int(id) if interval(i) => {
                    BcpDim::Iv(u32::try_from(id).expect("an interval id is a u32"))
                }
                _ => BcpDim::Eq(f.to_value()),
            })
            .collect()
    }

    /// Number of dimensions (`m`).
    pub fn arity(&self) -> usize {
        self.fields().count()
    }

    /// The packed bytes.
    pub fn as_bytes(&self) -> &[u8] {
        self.0.as_bytes()
    }

    /// The packed bytes as a row of one field per dimension: what a
    /// store entry frames its key as.
    pub fn row(&self) -> RowRef<'_> {
        RowRef::new(self.as_bytes())
    }

    /// The key whose packed bytes are `row`'s, as [`Self::row`] gave
    /// them: inline, allocating nothing, when they fit.
    pub(crate) fn from_row(row: RowRef<'_>) -> Self {
        BcpKey(ByteStr::new(row.as_bytes()))
    }

    /// Whether the bytes are held inline, in the key's 16 bytes.
    pub fn is_inline(&self) -> bool {
        self.0.is_inline()
    }
}

impl fmt::Debug for BcpKey {
    /// Each field as a value: an interval dimension prints as its id.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bcp(")?;
        for (i, v) in self.values().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

impl HeapSize for BcpKey {
    /// Nothing when inline, else the packed bytes.
    fn heap_size(&self) -> usize {
        self.0.heap_size()
    }
}

/// Discretizer for one interval-form condition: sorted dividing values
/// splitting `E = (-∞, +∞)` into half-open basic intervals
/// `(-∞, d_0), [d_0, d_1), …, [d_{n-1}, +∞)` with ids `0..=n`.
///
/// ```
/// use pmv_core::Discretizer;
/// use pmv_storage::Value;
///
/// let d = Discretizer::new(vec![Value::Int(10), Value::Int(20)]);
/// assert_eq!(d.interval_count(), 3);
/// assert_eq!(d.id_of(&Value::Int(5)), 0);   // (-inf, 10)
/// assert_eq!(d.id_of(&Value::Int(10)), 1);  // [10, 20)
/// assert_eq!(d.id_of(&Value::Int(25)), 2);  // [20, +inf)
/// ```
///
/// The half-open convention makes the basic intervals a true partition
/// (every domain value belongs to exactly one basic interval), which the
/// paper requires ("non-overlapping basic intervals … fully cover E_i").
#[derive(Clone, Debug, PartialEq)]
pub struct Discretizer {
    dividers: Vec<Value>,
}

impl Discretizer {
    /// Build from dividing values; they are sorted and deduplicated.
    pub fn new(mut dividers: Vec<Value>) -> Self {
        dividers.sort();
        dividers.dedup();
        Discretizer { dividers }
    }

    /// Build from dividing values **verbatim**, trusting the caller —
    /// for dividers loaded from persisted metadata or supplied by a DBA
    /// tool. Unlike [`Discretizer::new`] this performs no
    /// normalization, so the result may violate the strictly-increasing
    /// (normalized) form; the static verifier exists to catch exactly
    /// that (`PMV002 OverlappingBasicIntervals`, `PMV003
    /// GridGapOnDimension`) before such a grid reaches a registration.
    pub fn from_raw(dividers: Vec<Value>) -> Self {
        Discretizer { dividers }
    }

    /// Whether the dividers are in normalized form: strictly increasing,
    /// so the basic intervals are pairwise disjoint, non-empty, and
    /// fully cover the dimension under the half-open convention.
    pub fn is_normalized(&self) -> bool {
        self.dividers.windows(2).all(|w| w[0] < w[1])
    }

    /// Evenly spaced integer dividers: `lo, lo+step, …` (`count` of them).
    /// Convenience for benchmarks and form-based UIs with regular ranges.
    pub fn int_grid(lo: i64, step: i64, count: usize) -> Self {
        assert!(step > 0, "grid step must be positive");
        Discretizer {
            dividers: (0..count as i64)
                .map(|i| Value::Int(lo + i * step))
                .collect(),
        }
    }

    /// Learn dividing values from a trace of query intervals, per
    /// Section 3.1: "the continuous feature discretization technique in
    /// machine learning can automatically learn dividing values from
    /// query traces", and in form-based applications "these from values
    /// and to values can serve as dividing values."
    ///
    /// Every bounded endpoint observed in the trace becomes a candidate
    /// divider — intervals then align exactly with basic-interval
    /// boundaries, which is the criterion the paper states ("the
    /// resulting basic intervals can be used to differentiate hot
    /// results from cold results"). When candidates exceed
    /// `max_dividers`, the most *frequent* endpoints are kept (hot form
    /// choices recur in a trace; rare ones matter least).
    ///
    /// Endpoint exclusivity matters under the half-open convention
    /// `[d, next)`: a divider at `d` puts `d` itself in the basic
    /// interval to its *right*. An included lower endpoint `[v, …` and
    /// an excluded upper endpoint `…, v)` therefore use `v` directly,
    /// while an excluded lower endpoint `(v, …` and an included upper
    /// endpoint `…, v]` need the divider at `v`'s successor — `v + 1`
    /// for integer domains. Non-integer domains have no successor, so
    /// those endpoints fall back to `v`, the closest expressible
    /// divider (the basic interval then mixes the boundary value in;
    /// that is inherent, not a bug).
    pub fn learn_from_trace(trace: &[Interval], max_dividers: usize) -> Self {
        use std::collections::HashMap;
        assert!(max_dividers > 0, "need at least one divider");
        fn successor(v: &Value) -> Value {
            match v {
                Value::Int(i) => Value::Int(i.saturating_add(1)),
                other => other.clone(),
            }
        }
        let mut freq: HashMap<Value, usize> = HashMap::new();
        for iv in trace {
            let lo = match &iv.lo {
                Bound::Included(v) => Some(v.clone()),
                Bound::Excluded(v) => Some(successor(v)),
                Bound::Unbounded => None,
            };
            let hi = match &iv.hi {
                Bound::Excluded(v) => Some(v.clone()),
                Bound::Included(v) => Some(successor(v)),
                Bound::Unbounded => None,
            };
            // Normalize per interval: under the half-open convention the
            // two endpoints of a degenerate interval (e.g. the empty
            // `(10, 11)` over integers) map to the *same* divider; count
            // it once, not twice, or a single degenerate trace entry
            // outweighs two distinct hot endpoints.
            let same = matches!((&lo, &hi), (Some(a), Some(b)) if a == b);
            for v in [lo, if same { None } else { hi }].into_iter().flatten() {
                *freq.entry(v).or_insert(0) += 1;
            }
        }
        let mut candidates: Vec<(Value, usize)> = freq.into_iter().collect();
        // Most frequent first; ties broken by value for determinism.
        candidates.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        candidates.truncate(max_dividers);
        Discretizer::new(candidates.into_iter().map(|(v, _)| v).collect())
    }

    /// The dividing values, sorted.
    pub fn dividers(&self) -> &[Value] {
        &self.dividers
    }

    /// Number of basic intervals (`dividers + 1`).
    pub fn interval_count(&self) -> usize {
        self.dividers.len() + 1
    }

    /// Id of the basic interval containing `v`.
    pub fn id_of(&self, v: &Value) -> u32 {
        self.dividers.partition_point(|d| d <= v) as u32
    }

    /// The basic interval with id `id`.
    pub fn interval_of(&self, id: u32) -> Interval {
        let id = id as usize;
        assert!(id < self.interval_count(), "basic interval id out of range");
        let lo = if id == 0 {
            Bound::Unbounded
        } else {
            Bound::Included(self.dividers[id - 1].clone())
        };
        let hi = if id == self.dividers.len() {
            Bound::Unbounded
        } else {
            Bound::Excluded(self.dividers[id].clone())
        };
        Interval { lo, hi }
    }

    /// Ids of all basic intervals that overlap `query` (the paper's `J_r`
    /// sets in Operation O1), in ascending order.
    pub fn overlapping_ids(&self, query: &Interval) -> std::ops::RangeInclusive<u32> {
        let first = match &query.lo {
            Bound::Unbounded => 0,
            Bound::Included(v) | Bound::Excluded(v) => self.id_of(v),
        };
        let last = match &query.hi {
            Bound::Unbounded => (self.interval_count() - 1) as u32,
            Bound::Included(v) => self.id_of(v),
            Bound::Excluded(v) => {
                // An interval ending exactly at a divider (exclusive) does
                // not reach the basic interval that starts there.
                let id = self.id_of(v);
                if id > 0 && self.dividers[id as usize - 1] == *v {
                    id - 1
                } else {
                    id
                }
            }
        };
        first..=last
    }

    /// The portion of basic interval `id` covered by `query`
    /// (intersection), or `None` if they do not overlap. Also reports
    /// whether the fragment covers the whole basic interval.
    pub fn fragment(&self, id: u32, query: &Interval) -> Option<(Interval, bool)> {
        let basic = self.interval_of(id);
        let frag = basic.intersect(query)?;
        let whole = frag == basic;
        Some((frag, whole))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(x: i64) -> Value {
        Value::Int(x)
    }

    #[test]
    fn a_bcp_key_is_sixteen_bytes_and_t1_keys_are_inline() {
        assert_eq!(std::mem::size_of::<BcpKey>(), 16);
        // T1's widest key: date 2 405 and supplier 200, two bytes each
        // behind one byte of their two tags.
        for (date, supp) in [(0, 1), (127, 127), (2_405, 200)] {
            let k = BcpKey::new(vec![BcpDim::Eq(v(date)), BcpDim::Eq(v(supp))]);
            assert!(k.is_inline() && k.as_bytes().len() <= 5, "{k:?}");
            assert_eq!(k.heap_size(), 0);
            assert_eq!(k.values().collect::<Vec<_>>(), [v(date), v(supp)]);
        }
        // Past 12 bytes a key goes to the heap and is charged its bytes:
        // a tag byte, the string's length and 13 bytes, the id's byte.
        let long = BcpKey::new(vec![BcpDim::Eq(Value::str("thirteen byte")), BcpDim::Iv(7)]);
        assert!(!long.is_inline());
        assert_eq!(long.heap_size(), long.as_bytes().len());
        assert_eq!(long.as_bytes().len(), 1 + 1 + 13 + 1);
    }

    #[test]
    fn id_of_partitions_domain() {
        let d = Discretizer::new(vec![v(10), v(20), v(30)]);
        assert_eq!(d.interval_count(), 4);
        assert_eq!(d.id_of(&v(-100)), 0);
        assert_eq!(d.id_of(&v(9)), 0);
        assert_eq!(d.id_of(&v(10)), 1); // divider belongs to the right
        assert_eq!(d.id_of(&v(19)), 1);
        assert_eq!(d.id_of(&v(20)), 2);
        assert_eq!(d.id_of(&v(30)), 3);
        assert_eq!(d.id_of(&v(1000)), 3);
    }

    #[test]
    fn interval_of_roundtrips_with_id_of() {
        let d = Discretizer::new(vec![v(10), v(20)]);
        for x in [-5i64, 0, 9, 10, 15, 19, 20, 25, 100] {
            let id = d.id_of(&v(x));
            assert!(
                d.interval_of(id).contains(&v(x)),
                "value {x} must lie in its own basic interval"
            );
        }
    }

    #[test]
    fn basic_intervals_are_disjoint_and_cover() {
        let d = Discretizer::new(vec![v(10), v(20)]);
        let all: Vec<Interval> = (0..d.interval_count() as u32)
            .map(|i| d.interval_of(i))
            .collect();
        for (i, a) in all.iter().enumerate() {
            for b in &all[..i] {
                assert!(!a.overlaps(b), "{a} overlaps {b}");
            }
        }
        // Coverage at and around dividers.
        for x in [9i64, 10, 11, 19, 20, 21] {
            assert!(all.iter().any(|iv| iv.contains(&v(x))));
        }
    }

    #[test]
    fn overlapping_ids_basic() {
        let d = Discretizer::new(vec![v(10), v(20), v(30)]);
        // (12, 28) overlaps basic intervals [10,20) and [20,30).
        assert_eq!(d.overlapping_ids(&Interval::open(12i64, 28i64)), 1..=2);
        // (5, 35) overlaps all four.
        assert_eq!(d.overlapping_ids(&Interval::open(5i64, 35i64)), 0..=3);
        // Unbounded covers everything.
        assert_eq!(d.overlapping_ids(&Interval::everything()), 0..=3);
    }

    #[test]
    fn overlapping_ids_at_divider_boundaries() {
        let d = Discretizer::new(vec![v(10), v(20)]);
        // [10, 20) is exactly basic interval 1.
        assert_eq!(d.overlapping_ids(&Interval::half_open(10i64, 20i64)), 1..=1);
        // (10, 20] touches basic 1 and basic 2 (value 20 itself).
        assert_eq!(d.overlapping_ids(&Interval::open(10i64, 20i64)), 1..=1);
        assert_eq!(d.overlapping_ids(&Interval::closed(10i64, 20i64)), 1..=2);
        // [5, 10) stays in basic 0 even though it ends at the divider.
        assert_eq!(d.overlapping_ids(&Interval::half_open(5i64, 10i64)), 0..=0);
    }

    #[test]
    fn fragment_detects_whole_coverage() {
        let d = Discretizer::new(vec![v(10), v(20)]);
        // Query (5, 25) fully covers basic 1 = [10, 20).
        let q = Interval::open(5i64, 25i64);
        let (frag, whole) = d.fragment(1, &q).unwrap();
        assert!(whole);
        assert_eq!(frag, d.interval_of(1));
        // Partially covers basic 0 and basic 2.
        let (frag0, whole0) = d.fragment(0, &q).unwrap();
        assert!(!whole0);
        assert!(frag0.contains(&v(6)));
        assert!(!frag0.contains(&v(5)));
        let (_, whole2) = d.fragment(2, &q).unwrap();
        assert!(!whole2);
        // Non-overlapping id.
        let far = Interval::open(100i64, 200i64);
        assert!(d.fragment(0, &far).is_none());
    }

    #[test]
    fn int_grid_spacing() {
        let d = Discretizer::int_grid(0, 10, 3); // dividers 0, 10, 20
        assert_eq!(d.dividers(), &[v(0), v(10), v(20)]);
        assert_eq!(d.interval_count(), 4);
        assert_eq!(d.id_of(&v(-1)), 0);
        assert_eq!(d.id_of(&v(0)), 1);
        assert_eq!(d.id_of(&v(15)), 2);
    }

    #[test]
    fn learn_from_trace_uses_endpoints() {
        let trace = vec![
            Interval::half_open(10i64, 20i64),
            Interval::half_open(10i64, 30i64),
            Interval::above(20i64, true),
        ];
        let d = Discretizer::learn_from_trace(&trace, 10);
        assert_eq!(d.dividers(), &[v(10), v(20), v(30)]);
        // Every trace interval now aligns with basic-interval borders:
        // its fragments are whole basic intervals.
        for iv in &trace {
            for id in d.overlapping_ids(iv) {
                let (_, whole) = d.fragment(id, iv).unwrap();
                assert!(whole, "interval {iv} fragment {id} not whole");
            }
        }
    }

    #[test]
    fn learn_from_trace_respects_exclusive_endpoints() {
        // (10, 21) over integers is {11, …, 20} = [11, 21), so the
        // learned dividers must be 11 and 21. The seed used the raw
        // endpoints 10 and 21, putting the *cold* boundary value 10 in
        // the same basic interval as the hot values 11..=20.
        let d = Discretizer::learn_from_trace(&[Interval::open(10i64, 21i64)], 10);
        assert_eq!(d.dividers(), &[v(11), v(21)]);
        assert_ne!(
            d.id_of(&v(10)),
            d.id_of(&v(11)),
            "cold 10 split from hot 11"
        );
        assert_eq!(d.id_of(&v(11)), d.id_of(&v(20)));
        assert_ne!(
            d.id_of(&v(20)),
            d.id_of(&v(21)),
            "hot 20 split from cold 21"
        );
        // The query interval now covers whole basic intervals only.
        let q = Interval::half_open(11i64, 21i64); // same integer set
        for id in d.overlapping_ids(&q) {
            let (_, whole) = d.fragment(id, &q).unwrap();
            assert!(whole);
        }

        // Included upper endpoint: [30, 39] = [30, 40) needs divider 40.
        let d = Discretizer::learn_from_trace(&[Interval::closed(30i64, 39i64)], 10);
        assert_eq!(d.dividers(), &[v(30), v(40)]);
        assert_eq!(d.id_of(&v(30)), d.id_of(&v(39)));
        assert_ne!(d.id_of(&v(39)), d.id_of(&v(40)));

        // Non-integer domains have no successor: fall back to the raw
        // endpoint rather than inventing one.
        let d = Discretizer::learn_from_trace(&[Interval::above("m", false)], 10);
        assert_eq!(d.dividers(), &[Value::str("m")]);
    }

    #[test]
    fn learn_from_trace_normalizes_degenerate_intervals() {
        // (10, 11) over integers is empty: both endpoints normalize to
        // the same divider 11 under the half-open convention, and must
        // count as ONE candidate. Before normalization, this single
        // degenerate interval gave 11 frequency 2, beating both
        // genuinely observed endpoints 5 and 6 for the divider budget.
        let trace = vec![
            Interval::open(10i64, 11i64),
            Interval::half_open(5i64, 6i64),
        ];
        let d = Discretizer::learn_from_trace(&trace, 2);
        assert_eq!(d.dividers(), &[v(5), v(6)]);
        assert!(d.is_normalized());
    }

    #[test]
    fn raw_dividers_bypass_normalization() {
        // `from_raw` trusts the caller verbatim (persisted metadata);
        // the static verifier's PMV002 check asserts the normalized
        // form that `new` establishes.
        let raw = Discretizer::from_raw(vec![v(20), v(10), v(10)]);
        assert!(!raw.is_normalized());
        let normalized = Discretizer::new(vec![v(20), v(10), v(10)]);
        assert!(normalized.is_normalized());
        assert_eq!(normalized.dividers(), &[v(10), v(20)]);
    }

    #[test]
    fn learn_from_trace_keeps_hottest_endpoints() {
        let mut trace = Vec::new();
        for _ in 0..10 {
            trace.push(Interval::half_open(100i64, 200i64)); // hot
        }
        trace.push(Interval::half_open(1i64, 2i64)); // rare
        let d = Discretizer::learn_from_trace(&trace, 2);
        assert_eq!(d.dividers(), &[v(100), v(200)]);
    }

    #[test]
    fn learn_from_trace_ignores_unbounded_sides() {
        let trace = vec![Interval::everything(), Interval::below(7i64, false)];
        let d = Discretizer::learn_from_trace(&trace, 5);
        assert_eq!(d.dividers(), &[v(7)]);
    }

    #[test]
    fn dividers_sorted_and_deduped() {
        let d = Discretizer::new(vec![v(20), v(10), v(20)]);
        assert_eq!(d.dividers(), &[v(10), v(20)]);
    }

    #[test]
    fn bcp_key_equality_and_display() {
        let a = BcpKey::new(vec![BcpDim::Eq(v(5)), BcpDim::Iv(3)]);
        let b = BcpKey::new(vec![BcpDim::Eq(v(5)), BcpDim::Iv(3)]);
        let c = BcpKey::new(vec![BcpDim::Eq(v(5)), BcpDim::Iv(4)]);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(format!("{a:?}"), "bcp(5, 3)");
        assert_eq!(a.arity(), 2);
        assert_eq!(a.dims(|i| i == 1), [BcpDim::Eq(v(5)), BcpDim::Iv(3)]);
    }

    #[test]
    fn string_attribute_discretization() {
        // The paper notes interval attributes "can be non-numerical (e.g.,
        // string)".
        let d = Discretizer::new(vec![Value::str("g"), Value::str("p")]);
        assert_eq!(d.id_of(&Value::str("apple")), 0);
        assert_eq!(d.id_of(&Value::str("grape")), 1);
        assert_eq!(d.id_of(&Value::str("zebra")), 2);
        let ids = d.overlapping_ids(&Interval::closed("b", "h"));
        assert_eq!(ids, 0..=1);
    }
}
