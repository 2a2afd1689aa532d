//! Composite index keys.

use std::cmp::Ordering;
use std::fmt;

use pmv_storage::{HeapSize, Tuple, Value};

/// A composite key: one value per indexed column, ordered
/// lexicographically. Single-column keys are the common case; the PMV's
/// bcp index uses one component per selection condition in the template.
///
/// A single-column key is held inline — no `Box`, so a B-tree leaf's key
/// array *is* the keys and a probe compares without chasing a pointer per
/// key (and an index clone or drop allocates nothing per key). A
/// multi-column key sits behind a thin box (one word, clear of the word
/// `Value` keeps its tag in), so either shape is exactly one `Value` wide.
/// `Eq`, `Ord` and `Hash` are written over [`IndexKey::parts`], so both
/// shapes agree with the `[Value]` slice they borrow as; two single-column
/// keys skip the slices and compare their values directly, which is the
/// same order.
#[derive(Clone)]
pub struct IndexKey(Repr);

#[derive(Clone)]
enum Repr {
    One(Value),
    Many(Box<Box<[Value]>>),
}

impl IndexKey {
    /// Key over several values.
    pub fn new(parts: impl Into<Box<[Value]>>) -> Self {
        let mut parts = parts.into().into_vec();
        if parts.len() == 1 {
            IndexKey::single(parts.pop().expect("one part"))
        } else {
            IndexKey(Repr::Many(Box::new(parts.into())))
        }
    }

    /// Key over a single value.
    pub fn single(v: Value) -> Self {
        IndexKey(Repr::One(v))
    }

    /// Extract the key for `tuple` given the indexed column positions.
    pub fn from_tuple(tuple: &Tuple, columns: &[usize]) -> Self {
        match columns {
            [c] => IndexKey::single(tuple.get(*c).clone()),
            _ => IndexKey(Repr::Many(Box::new(
                columns.iter().map(|&c| tuple.get(c).clone()).collect(),
            ))),
        }
    }

    /// Key components.
    pub fn parts(&self) -> &[Value] {
        match &self.0 {
            Repr::One(v) => std::slice::from_ref(v),
            Repr::Many(parts) => parts,
        }
    }

    /// Number of components.
    pub fn arity(&self) -> usize {
        self.parts().len()
    }

    /// `self.parts().cmp(&[v])` without building either slice: how a
    /// single-column key — the shape every join index has — meets a probe
    /// value still owned by a bound tuple.
    pub fn cmp_value(&self, v: &Value) -> Ordering {
        match &self.0 {
            Repr::One(k) => k.cmp(v),
            Repr::Many(parts) => parts[..].cmp(std::slice::from_ref(v)),
        }
    }
}

impl PartialEq for IndexKey {
    fn eq(&self, other: &Self) -> bool {
        match (&self.0, &other.0) {
            (Repr::One(a), Repr::One(b)) => a == b,
            _ => self.parts() == other.parts(),
        }
    }
}

impl Eq for IndexKey {}

impl PartialOrd for IndexKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for IndexKey {
    fn cmp(&self, other: &Self) -> Ordering {
        match (&self.0, &other.0) {
            (Repr::One(a), Repr::One(b)) => a.cmp(b),
            _ => self.parts().cmp(other.parts()),
        }
    }
}

impl std::hash::Hash for IndexKey {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.parts().hash(state);
    }
}

impl fmt::Debug for IndexKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "k[")?;
        for (i, v) in self.parts().iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, "]")
    }
}

/// Lets `HashMap<IndexKey, _>` be probed with a borrowed `&[Value]`
/// (e.g. values still owned by a bound tuple) — the zero-copy probe
/// path. Sound because `Hash`/`Eq`/`Ord` on `IndexKey` delegate to the
/// `[Value]` slice.
impl std::borrow::Borrow<[Value]> for IndexKey {
    fn borrow(&self) -> &[Value] {
        self.parts()
    }
}

impl From<Value> for IndexKey {
    fn from(v: Value) -> Self {
        IndexKey::single(v)
    }
}

impl From<Vec<Value>> for IndexKey {
    fn from(v: Vec<Value>) -> Self {
        IndexKey::new(v)
    }
}

impl HeapSize for IndexKey {
    fn heap_size(&self) -> usize {
        match &self.0 {
            Repr::One(v) => v.heap_size(),
            Repr::Many(parts) => std::mem::size_of::<Box<[Value]>>() + parts.heap_size(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmv_storage::tuple;

    #[test]
    fn lexicographic_order() {
        let a = IndexKey::new(vec![Value::Int(1), Value::Int(9)]);
        let b = IndexKey::new(vec![Value::Int(2), Value::Int(0)]);
        assert!(a < b);
        let c = IndexKey::new(vec![Value::Int(1)]);
        // Prefix sorts before its extension.
        assert!(c < a);
    }

    #[test]
    fn from_tuple_extracts_columns() {
        let t = tuple![10i64, "x", 30i64];
        let k = IndexKey::from_tuple(&t, &[2, 0]);
        assert_eq!(k.parts(), &[Value::Int(30), Value::Int(10)]);
        assert_eq!(k.arity(), 2);
    }

    #[test]
    fn single_column_key_is_inline() {
        // The whole point of the two shapes: a one-column key costs what
        // its value costs, and one-part keys built either way are equal.
        assert_eq!(
            std::mem::size_of::<IndexKey>(),
            std::mem::size_of::<Value>()
        );
        let k = IndexKey::new(vec![Value::Int(7)]);
        assert!(matches!(k.0, Repr::One(_)));
        assert_eq!(k, IndexKey::single(Value::Int(7)));
        assert_eq!(k.heap_size(), 0);
    }

    #[test]
    fn debug_format() {
        let k = IndexKey::new(vec![Value::Int(1), Value::str("a")]);
        assert_eq!(format!("{k:?}"), "k[1, 'a']");
    }
}
