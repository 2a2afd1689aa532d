//! Typed values stored in tuples.
//!
//! The query class of the paper (Section 2.1) needs equality comparisons on
//! arbitrary attributes and total ordering on interval-form attributes,
//! which "can be a non-numerical (e.g., string) attribute". [`Value`]
//! therefore implements full `Eq + Ord + Hash` across all variants,
//! including doubles (via bit-normalized comparison).

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

use crate::size::HeapSize;
use crate::string::Str;

/// A dynamically typed scalar value.
///
/// Ordering compares values of the same variant naturally; values of
/// different variants order by a fixed variant rank (`Null < Int < Double <
/// Str`). Templates are statically typed per attribute, so cross-variant
/// comparison only happens for `Null` in practice.
#[derive(Clone, Debug)]
pub enum Value {
    /// SQL NULL. Compares equal to itself so tuples remain hashable; the
    /// executor treats predicate comparisons involving NULL as false.
    Null,
    /// 64-bit signed integer. Also used for dates (days since epoch) and
    /// fixed-point money (cents).
    Int(i64),
    /// IEEE-754 double with normalized `-0.0`/NaN so `Eq + Hash` are sound.
    Double(f64),
    /// String: inline up to 12 bytes, shared beyond, so cloning a tuple
    /// never copies string data (see [`Str`]).
    Str(Str),
}

impl Value {
    /// Build a string value.
    pub fn str(s: impl AsRef<str>) -> Self {
        Value::Str(Str::new(s.as_ref()))
    }

    /// Integer payload, if this is an [`Value::Int`].
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// String payload, if this is a [`Value::Str`].
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// Whether `self` and `other` store the same bits: `==`, except that
    /// doubles compare their raw bit patterns, so `-0.0` differs from
    /// `0.0` (and NaN payloads from each other). Equality canonicalizes
    /// both away; a change detector must not.
    pub fn same_bits(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Double(a), Value::Double(b)) => a.to_bits() == b.to_bits(),
            _ => self == other,
        }
    }

    /// Rank used to order across variants.
    fn variant_rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Int(_) => 1,
            Value::Double(_) => 2,
            Value::Str(_) => 3,
        }
    }

    /// Canonical bit pattern for a double: collapses `-0.0` to `+0.0` and
    /// all NaNs to one quiet NaN, so `Eq`/`Hash`/`Ord` agree.
    fn canonical_bits(d: f64) -> u64 {
        if d.is_nan() {
            f64::NAN.to_bits()
        } else if d == 0.0 {
            0.0f64.to_bits()
        } else {
            d.to_bits()
        }
    }

    /// Total order on doubles: NaN sorts greater than all numbers.
    fn cmp_doubles(a: f64, b: f64) -> Ordering {
        match (a.is_nan(), b.is_nan()) {
            (true, true) => Ordering::Equal,
            (true, false) => Ordering::Greater,
            (false, true) => Ordering::Less,
            (false, false) => a.partial_cmp(&b).expect("non-NaN doubles compare"),
        }
    }
}

impl PartialEq for Value {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Value::Null, Value::Null) => true,
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Double(a), Value::Double(b)) => {
                Self::canonical_bits(*a) == Self::canonical_bits(*b)
            }
            (Value::Str(a), Value::Str(b)) => a == b,
            _ => false,
        }
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Double(a), Value::Double(b)) => Self::cmp_doubles(*a, *b),
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            _ => self.variant_rank().cmp(&other.variant_rank()),
        }
    }
}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.variant_rank().hash(state);
        match self {
            Value::Null => {}
            Value::Int(v) => v.hash(state),
            Value::Double(d) => Self::canonical_bits(*d).hash(state),
            Value::Str(s) => s.hash(state),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Int(v) => write!(f, "{v}"),
            Value::Double(d) => write!(f, "{d}"),
            Value::Str(s) => write!(f, "'{s}'"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(v as i64)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Double(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::str(v)
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(Str::from(v))
    }
}

impl HeapSize for Value {
    fn heap_size(&self) -> usize {
        match self {
            Value::Str(s) => s.heap_size(),
            _ => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn int_ordering_and_equality() {
        assert!(Value::Int(1) < Value::Int(2));
        assert_eq!(Value::Int(7), Value::Int(7));
        assert_ne!(Value::Int(7), Value::Int(8));
    }

    #[test]
    fn string_ordering_is_lexicographic() {
        assert!(Value::str("apple") < Value::str("banana"));
        assert_eq!(Value::str("x"), Value::str("x"));
    }

    #[test]
    fn double_negative_zero_equals_positive_zero() {
        assert_eq!(Value::Double(-0.0), Value::Double(0.0));
        assert_eq!(hash_of(&Value::Double(-0.0)), hash_of(&Value::Double(0.0)));
    }

    #[test]
    fn same_bits_tells_the_zeros_apart() {
        assert!(!Value::Double(-0.0).same_bits(&Value::Double(0.0)));
        assert!(Value::Double(-0.0).same_bits(&Value::Double(-0.0)));
        assert!(Value::Double(1.5).same_bits(&Value::Double(1.5)));
        assert!(Value::Int(3).same_bits(&Value::Int(3)));
        assert!(!Value::Int(3).same_bits(&Value::Int(4)));
        assert!(Value::str("x").same_bits(&Value::str("x")));
        assert!(!Value::Int(0).same_bits(&Value::Double(0.0)));
    }

    #[test]
    fn double_nan_is_self_equal_and_sorts_last() {
        let nan = Value::Double(f64::NAN);
        assert_eq!(nan, nan.clone());
        assert!(Value::Double(f64::INFINITY) < nan);
        assert_eq!(hash_of(&nan), hash_of(&Value::Double(f64::NAN)));
    }

    #[test]
    fn cross_variant_order_is_stable() {
        assert!(Value::Null < Value::Int(i64::MIN));
        assert!(Value::Int(i64::MAX) < Value::Double(f64::NEG_INFINITY));
        assert!(Value::Double(f64::INFINITY) < Value::str(""));
    }

    #[test]
    fn equal_values_hash_equal() {
        let pairs = [
            (Value::Int(42), Value::Int(42)),
            (Value::str("abc"), Value::str("abc")),
            (Value::Null, Value::Null),
        ];
        for (a, b) in pairs {
            assert_eq!(a, b);
            assert_eq!(hash_of(&a), hash_of(&b));
        }
    }

    #[test]
    fn accessors_match_variants() {
        assert_eq!(Value::Int(5).as_int(), Some(5));
        assert_eq!(Value::Int(5).as_str(), None);
        assert_eq!(Value::str("s").as_str(), Some("s"));
    }

    #[test]
    fn heap_size_charges_string_payload() {
        // Either side of the 12/13-byte edge: an inline string owns no
        // heap, a heap string charges its payload.
        assert_eq!(Value::Int(1).heap_size(), 0);
        assert_eq!(Value::str("a".repeat(12)).heap_size(), 0);
        assert_eq!(Value::str("a".repeat(13)).heap_size(), 13);
    }

    #[test]
    fn value_is_sixteen_bytes() {
        // Every field of every heap row, result row and index key is one
        // `Value`: this is its per-field cost.
        assert_eq!(std::mem::size_of::<Value>(), 16);
        assert_eq!(std::mem::size_of::<Option<Value>>(), 16);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Value::Int(3).to_string(), "3");
        assert_eq!(Value::str("a").to_string(), "'a'");
        assert_eq!(Value::Null.to_string(), "NULL");
    }
}
