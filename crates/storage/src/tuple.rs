//! Tuples: immutable boxed slices of values.
//!
//! Tuples are compared, hashed, and cloned constantly by the PMV pipeline —
//! the dedup structure `DS` of Operation O3 is a multiset of result tuples
//! (Section 3.3) — so the representation is a `Box<[Value]>` (two words)
//! of 16-byte values whose strings clone without copying (short ones
//! inline, long ones shared).

use std::fmt;
use std::ops::Index;

use crate::size::HeapSize;
use crate::value::Value;

/// An immutable row of values.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Tuple {
    values: Box<[Value]>,
}

impl Tuple {
    /// Build a tuple from values.
    pub fn new(values: impl Into<Box<[Value]>>) -> Self {
        Tuple {
            values: values.into(),
        }
    }

    /// Values as a slice.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Number of fields.
    pub fn arity(&self) -> usize {
        self.values.len()
    }

    /// Field at `idx`.
    pub fn get(&self, idx: usize) -> &Value {
        &self.values[idx]
    }

    /// Project this tuple onto the given field indices (in order).
    pub fn project(&self, indices: &[usize]) -> Tuple {
        Tuple::new(
            indices
                .iter()
                .map(|&i| self.values[i].clone())
                .collect::<Vec<_>>(),
        )
    }

    /// Concatenate two tuples (used when forming join results).
    pub fn concat(&self, other: &Tuple) -> Tuple {
        let mut v = Vec::with_capacity(self.arity() + other.arity());
        v.extend_from_slice(&self.values);
        v.extend_from_slice(&other.values);
        Tuple::new(v)
    }
}

impl Index<usize> for Tuple {
    type Output = Value;
    fn index(&self, idx: usize) -> &Value {
        &self.values[idx]
    }
}

impl Tuple {
    fn fmt_inner(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

impl fmt::Debug for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.fmt_inner(f)
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.fmt_inner(f)
    }
}

impl From<Vec<Value>> for Tuple {
    fn from(v: Vec<Value>) -> Self {
        Tuple::new(v)
    }
}

impl HeapSize for Tuple {
    fn heap_size(&self) -> usize {
        self.values.heap_size()
    }
}

/// Convenience macro for building tuples in tests and examples:
/// `tuple![1, "abc", 2.5]`.
#[macro_export]
macro_rules! tuple {
    ($($v:expr),* $(,)?) => {
        $crate::tuple::Tuple::new(vec![$($crate::value::Value::from($v)),*])
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_access() {
        let t = tuple![1i64, "abc", 2.5f64];
        assert_eq!(t.arity(), 3);
        assert_eq!(t.get(0), &Value::Int(1));
        assert_eq!(t[1], Value::str("abc"));
    }

    #[test]
    fn project_reorders_and_duplicates() {
        let t = tuple![10i64, 20i64, 30i64];
        let p = t.project(&[2, 0, 0]);
        assert_eq!(p, tuple![30i64, 10i64, 10i64]);
    }

    #[test]
    fn concat_joins_fields() {
        let a = tuple![1i64];
        let b = tuple!["x", 2i64];
        assert_eq!(a.concat(&b), tuple![1i64, "x", 2i64]);
    }

    #[test]
    fn equality_and_hash_are_structural() {
        use std::collections::HashSet;
        let mut s = HashSet::new();
        s.insert(tuple![1i64, "a"]);
        assert!(s.contains(&tuple![1i64, "a"]));
        assert!(!s.contains(&tuple![1i64, "b"]));
    }

    #[test]
    fn display_formats() {
        assert_eq!(tuple![1i64, "a"].to_string(), "(1, 'a')");
    }

    #[test]
    fn heap_size_counts_strings_and_slice() {
        // The slice always; a string's payload only past the 12 inline
        // bytes.
        let slice = 2 * std::mem::size_of::<Value>();
        let inline = Tuple::new(vec![Value::Int(1), Value::str("a".repeat(12))]);
        assert_eq!(inline.heap_size(), slice);
        let heap = Tuple::new(vec![Value::Int(1), Value::str("a".repeat(13))]);
        assert_eq!(heap.heap_size(), slice + 13);
    }
}
