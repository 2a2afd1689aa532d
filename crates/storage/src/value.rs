//! Typed values stored in tuples.
//!
//! The query class of the paper (Section 2.1) needs equality comparisons on
//! arbitrary attributes and total ordering on interval-form attributes,
//! which "can be a non-numerical (e.g., string) attribute". [`Value`]
//! therefore implements full `Eq + Ord + Hash` across all variants. A
//! double is held as an [`F64`], canonical from the moment it is built,
//! so two values are equal exactly when their bits are: there is one
//! identity, and every layer (hashing, packing, the WAL) sees it.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

use crate::size::HeapSize;
use crate::string::Str;

/// An IEEE-754 double with one bit pattern per value: [`F64::new`] turns
/// `-0.0` into `0.0` and every NaN into [`f64::NAN`]. `Eq` and `Hash`
/// compare the bits; `Ord` is numeric, with NaN after every number.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct F64(u64);

impl F64 {
    /// `d`, canonicalized.
    #[inline]
    pub fn new(d: f64) -> Self {
        let d = if d.is_nan() {
            f64::NAN
        } else if d == 0.0 {
            0.0
        } else {
            d
        };
        F64(d.to_bits())
    }

    /// The double.
    #[inline]
    pub fn get(self) -> f64 {
        f64::from_bits(self.0)
    }

    /// The canonical bit pattern.
    #[inline]
    pub fn to_bits(self) -> u64 {
        self.0
    }
}

impl Ord for F64 {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        let (a, b) = (self.get(), other.get());
        // Unordered only when a side is NaN, which sorts last.
        a.partial_cmp(&b)
            .unwrap_or_else(|| a.is_nan().cmp(&b.is_nan()))
    }
}

impl PartialOrd for F64 {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Debug for F64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&self.get(), f)
    }
}

impl fmt::Display for F64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&self.get(), f)
    }
}

/// A dynamically typed scalar value.
///
/// Ordering compares values of the same variant naturally; values of
/// different variants order by declaration (`Null < Int < Double <
/// Str`). Templates are statically typed per attribute, so cross-variant
/// comparison only happens for `Null` in practice.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Value {
    /// SQL NULL. Compares equal to itself so tuples remain hashable; the
    /// executor treats predicate comparisons involving NULL as false.
    Null,
    /// 64-bit signed integer. Also used for dates (days since epoch) and
    /// fixed-point money (cents).
    Int(i64),
    /// IEEE-754 double, canonical (see [`F64`]).
    Double(F64),
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
}

impl Hash for Value {
    /// The variant's position (one byte), then the payload. It keys hash
    /// indexes and the maps and multisets of tuples (DS among them),
    /// which need only that it agrees with `Eq`: a `-0.0` hashes as the
    /// `0.0` it is built as, every NaN as the canonical NaN. A golden
    /// test pins it. (A store places a bcp by the hash of its packed
    /// key bytes, not by this.)
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => 0u8.hash(state),
            Value::Int(v) => {
                1u8.hash(state);
                v.hash(state);
            }
            Value::Double(d) => {
                2u8.hash(state);
                d.hash(state);
            }
            Value::Str(s) => {
                3u8.hash(state);
                s.hash(state);
            }
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
        Value::Double(F64::new(v))
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
        assert_eq!(Value::from(-0.0), Value::from(0.0));
        assert_eq!(F64::new(-0.0).to_bits(), 0.0f64.to_bits());
        assert_eq!(hash_of(&Value::from(-0.0)), hash_of(&Value::from(0.0)));
    }

    #[test]
    fn double_nan_is_self_equal_and_sorts_last() {
        let nan = Value::from(f64::NAN);
        assert_eq!(nan, nan.clone());
        assert!(Value::from(f64::INFINITY) < nan);
        let payload = f64::from_bits(0xfff0_0000_0000_0001);
        assert_eq!(F64::new(payload).to_bits(), f64::NAN.to_bits());
        assert_eq!(hash_of(&nan), hash_of(&Value::from(payload)));
    }

    #[test]
    fn cross_variant_order_is_stable() {
        assert!(Value::Null < Value::Int(i64::MIN));
        assert!(Value::Int(i64::MAX) < Value::from(f64::NEG_INFINITY));
        assert!(Value::from(f64::INFINITY) < Value::str(""));
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
        assert_eq!(Value::from(-0.0).to_string(), "0");
        assert_eq!(Value::from(1.5).to_string(), "1.5");
    }
}
