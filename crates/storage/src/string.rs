//! The string payload of [`Value::Str`](crate::Value::Str): 16 bytes,
//! short strings inline.
//!
//! Every field of every heap row, result row and index key is a `Value`,
//! so `size_of::<Value>()` is the per-field cost of all of them. (A view
//! caches its tuples packed instead ([`packed`](crate::packed)), where a
//! string costs its bytes plus a tag and a length.) An `Arc<str>` is a
//! fat pointer and made `Value` 24 B.
//! [`Str`] is 16 B: a [`ByteStr`] whose long form keeps a `str`, so a
//! string of at most [`INLINE_CAP`] = 12 bytes is held inline and a
//! longer one behind a thin shared pointer (`Arc<Box<str>>`, one word);
//! a clone never copies string data. [`ByteStr`]'s docs give the layout
//! and why its length is four bytes wide.

use std::fmt;
use std::hash::{Hash, Hasher};

use crate::bytes::ByteStr;
pub use crate::bytes::INLINE_CAP;
use crate::size::HeapSize;

/// An immutable UTF-8 string: inline up to [`INLINE_CAP`] bytes, shared
/// on the heap beyond. `Eq`, `Ord` and `Hash` agree with `str`'s.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Str(ByteStr<str>);

impl Str {
    /// Copy `s`: inline if it fits, else into one shared heap string.
    #[inline]
    pub fn new(s: &str) -> Self {
        Str(ByteStr::new(s))
    }

    /// The string's UTF-8 bytes.
    #[inline]
    pub(crate) fn as_bytes(&self) -> &[u8] {
        self.0.as_bytes()
    }

    /// The string.
    #[inline]
    pub fn as_str(&self) -> &str {
        match self.0.heap() {
            Some(s) => s,
            // The bytes were copied whole from a `&str`, so this never
            // fails; re-checking at most 12 bytes is the price of no
            // `unsafe`.
            None => std::str::from_utf8(self.0.as_bytes()).expect("inline bytes are UTF-8"),
        }
    }
}

impl From<String> for Str {
    /// A long string keeps its buffer (shrunk to fit) instead of copying.
    fn from(s: String) -> Self {
        Str(ByteStr::new(s))
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
        self.0.heap_size()
    }
}
