//! The string payload of [`Value::Str`](crate::Value::Str): 16 bytes,
//! short strings inline.
//!
//! Every field of every heap row, result row and index key is a `Value`,
//! so `size_of::<Value>()` is the per-field cost of all of them. (A view
//! caches its tuples as [`PackedRow`](crate::PackedRow)s instead, where a
//! string costs its bytes plus a tag and a length.) An `Arc<str>` is a
//! fat pointer and made `Value` 24 B.
//! [`Str`] is 16 B: a string of at most [`INLINE_CAP`] = 12 bytes is held
//! inline (a 4-byte length, then the bytes — the short-string layout of
//! Umbra's "German strings", Neumann & Freitag, CIDR 2020), a longer one
//! behind a thin shared pointer (`Arc<Box<str>>`, one word), so a clone
//! never copies string data.
//!
//! The inline length is an enum of the 13 lengths it can take, so the
//! values it never takes form a niche. `Str`'s own inline/heap tag and
//! `Value`'s variant tag both live there, which keeps `Value` and
//! `Option<Value>` at 16 B without `unsafe`. The length takes four bytes
//! so that what follows it splits into aligned 4- and 8-byte moves. A
//! one-byte length (14 bytes inline) left a 7-byte run that was copied
//! through overlapping stack stores, and cloning a `Value` took more than
//! twice as long as with `Arc<str>`; a two-byte one left a 14-byte run
//! copied the same way, which made B-tree bulk loading's grouping pass
//! 1.5× slower.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use crate::size::HeapSize;

/// Longest string, in UTF-8 bytes, held inline.
pub const INLINE_CAP: usize = 12;

/// An immutable UTF-8 string: inline up to [`INLINE_CAP`] bytes, shared
/// on the heap beyond. `Eq`, `Ord` and `Hash` agree with `str`'s.
#[derive(Clone)]
pub struct Str(Repr);

#[derive(Clone)]
enum Repr {
    Inline { len: Len, bytes: [u8; INLINE_CAP] },
    Heap(Arc<Box<str>>),
}

/// An inline length, `0..=INLINE_CAP`. Four bytes wide so that the
/// inline bytes after it move as one 4- and one 8-byte word.
#[derive(Clone, Copy)]
#[repr(u32)]
enum Len {
    L0,
    L1,
    L2,
    L3,
    L4,
    L5,
    L6,
    L7,
    L8,
    L9,
    L10,
    L11,
    L12,
}

/// `LENS[n]` is the [`Len`] of `n`.
const LENS: [Len; INLINE_CAP + 1] = [
    Len::L0,
    Len::L1,
    Len::L2,
    Len::L3,
    Len::L4,
    Len::L5,
    Len::L6,
    Len::L7,
    Len::L8,
    Len::L9,
    Len::L10,
    Len::L11,
    Len::L12,
];

impl Str {
    /// Copy `s`: inline if it fits, else into one shared heap string.
    #[inline]
    pub fn new(s: &str) -> Self {
        Self::inline(s).unwrap_or_else(|| Str(Repr::Heap(Arc::new(s.into()))))
    }

    #[inline]
    fn inline(s: &str) -> Option<Self> {
        let len = *LENS.get(s.len())?;
        let mut bytes = [0u8; INLINE_CAP];
        bytes[..s.len()].copy_from_slice(s.as_bytes());
        Some(Str(Repr::Inline { len, bytes }))
    }

    /// The string's UTF-8 bytes.
    #[inline]
    pub(crate) fn as_bytes(&self) -> &[u8] {
        match &self.0 {
            Repr::Inline { len, bytes } => &bytes[..*len as usize],
            Repr::Heap(s) => s.as_bytes(),
        }
    }

    /// The string.
    #[inline]
    pub fn as_str(&self) -> &str {
        match &self.0 {
            // The bytes were copied whole from a `&str`, so this never
            // fails; re-checking at most 12 bytes is the price of no
            // `unsafe`.
            Repr::Inline { len, bytes } => {
                std::str::from_utf8(&bytes[..*len as usize]).expect("inline bytes are UTF-8")
            }
            Repr::Heap(s) => s,
        }
    }
}

impl From<String> for Str {
    /// A long string keeps its buffer (shrunk to fit) instead of copying.
    fn from(s: String) -> Self {
        Self::inline(&s).unwrap_or_else(|| Str(Repr::Heap(Arc::new(s.into_boxed_str()))))
    }
}

impl PartialEq for Str {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl Eq for Str {}

impl PartialOrd for Str {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Str {
    /// `str` orders by its bytes, so comparing them needs no UTF-8 check.
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        self.as_bytes().cmp(other.as_bytes())
    }
}

impl Hash for Str {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_str().hash(state);
    }
}

impl fmt::Debug for Str {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl fmt::Display for Str {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl HeapSize for Str {
    /// Inline strings own no heap. A heap string is shared; its payload
    /// is charged to each holder, which over-approximates but keeps the
    /// bound conservative.
    fn heap_size(&self) -> usize {
        match &self.0 {
            Repr::Inline { .. } => 0,
            Repr::Heap(s) => s.len(),
        }
    }
}
