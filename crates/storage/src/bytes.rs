//! A 16-byte immutable byte string, short ones inline: the layout of
//! [`Str`](crate::Str) and of a view's bcp key.
//!
//! A byte string of at most [`INLINE_CAP`] = 12 bytes is held inline (a
//! 4-byte length, then the bytes — the short-string layout of Umbra's
//! "German strings", Neumann & Freitag, CIDR 2020), a longer one behind
//! a thin shared pointer (`Arc<Box<T>>`, one word), so a clone never
//! copies the bytes and a short one allocates nothing.
//!
//! The inline length is an enum of the 13 lengths it can take, so the
//! values it never takes form a niche. [`ByteStr`]'s own inline/heap tag
//! and any enum tag around it (`Value`'s variant) both live there, which
//! keeps `Value` and `Option<Value>` at 16 B without `unsafe`. The length
//! takes four bytes so that what follows it splits into aligned 4- and
//! 8-byte moves. A one-byte length (14 bytes inline) left a 7-byte run
//! that was copied through overlapping stack stores, and cloning a
//! `Value` took more than twice as long as with `Arc<str>`; a two-byte
//! one left a 14-byte run copied the same way, which made B-tree bulk
//! loading's grouping pass 1.5× slower.
//!
//! A byte string has one form: inline exactly when it fits, and the
//! unused inline bytes are zero. Two inline strings are therefore equal
//! exactly when their 16 bytes are.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use crate::size::HeapSize;

/// Longest byte string held inline.
pub const INLINE_CAP: usize = 12;

/// An immutable byte string: inline up to [`INLINE_CAP`] bytes, shared on
/// the heap beyond. `T` is what a long one keeps: `[u8]`, or `str` for
/// [`Str`](crate::Str), which then reads a long string without checking
/// its UTF-8 again. `Eq`, `Ord` and `Hash` are the bytes'.
pub struct ByteStr<T: ?Sized = [u8]>(Repr<T>);

enum Repr<T: ?Sized> {
    Inline { len: Len, bytes: [u8; INLINE_CAP] },
    Heap(Arc<Box<T>>),
}

/// An inline length, `0..=INLINE_CAP`. Four bytes wide so that the
/// inline bytes after it move as one 4- and one 8-byte word.
#[derive(Clone, Copy, PartialEq, Eq)]
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

impl<T: ?Sized + AsRef<[u8]>> ByteStr<T> {
    /// `v`'s bytes: copied inline if they fit, else into (or, for an
    /// owned `String` or box, kept as) one shared heap payload.
    #[inline]
    pub fn new<O: AsRef<[u8]> + Into<Box<T>>>(v: O) -> Self {
        Self::inline(v.as_ref()).unwrap_or_else(|| ByteStr(Repr::Heap(Arc::new(v.into()))))
    }

    #[inline]
    fn inline(v: &[u8]) -> Option<Self> {
        let len = *LENS.get(v.len())?;
        let mut bytes = [0u8; INLINE_CAP];
        bytes[..v.len()].copy_from_slice(v);
        Some(ByteStr(Repr::Inline { len, bytes }))
    }

    /// The bytes.
    #[inline]
    pub fn as_bytes(&self) -> &[u8] {
        match &self.0 {
            Repr::Inline { len, bytes } => &bytes[..*len as usize],
            Repr::Heap(v) => (***v).as_ref(),
        }
    }

    /// The payload of a byte string held on the heap; `None` when it is
    /// inline.
    #[inline]
    pub fn heap(&self) -> Option<&T> {
        match &self.0 {
            Repr::Inline { .. } => None,
            Repr::Heap(v) => Some(&***v),
        }
    }

    /// Whether the bytes are held inline (they fit in [`INLINE_CAP`]).
    #[inline]
    pub fn is_inline(&self) -> bool {
        matches!(self.0, Repr::Inline { .. })
    }
}

impl ByteStr {
    /// The first `len` ≤ [`INLINE_CAP`] bytes of `bytes`, inline; what
    /// follows them is ignored. For a caller that wrote a short string
    /// into a buffer of its own in one pass: the bytes past `len` are
    /// cleared with two masks, where a copy of `len` bytes would call
    /// `memcpy`.
    #[inline]
    pub fn inline_prefix(bytes: [u8; INLINE_CAP], len: usize) -> Self {
        let l = LENS[len];
        // Bytes 0..8 as one word and 8..12 as another, each masked to
        // the bytes of it that lie below `len`.
        let keep = |word: u64, bytes_kept: usize| match bytes_kept {
            0 => 0,
            1..=7 => word & ((1 << (8 * bytes_kept)) - 1),
            _ => word,
        };
        let lo = keep(
            u64::from_le_bytes(bytes[..8].try_into().expect("8 bytes")),
            len,
        );
        let hi = keep(
            u64::from(u32::from_le_bytes(bytes[8..].try_into().expect("4 bytes"))),
            len.saturating_sub(8),
        );
        let mut out = [0u8; INLINE_CAP];
        out[..8].copy_from_slice(&lo.to_le_bytes());
        out[8..].copy_from_slice(&(hi as u32).to_le_bytes());
        ByteStr(Repr::Inline { len: l, bytes: out })
    }
}

impl<T: ?Sized> Clone for ByteStr<T> {
    #[inline]
    fn clone(&self) -> Self {
        ByteStr(match &self.0 {
            Repr::Inline { len, bytes } => Repr::Inline {
                len: *len,
                bytes: *bytes,
            },
            Repr::Heap(v) => Repr::Heap(Arc::clone(v)),
        })
    }
}

impl<T: ?Sized + AsRef<[u8]>> PartialEq for ByteStr<T> {
    /// Two inline strings compare as two 16-byte values, with no slice
    /// bounds; an inline and a heap string always differ (one form).
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        match (&self.0, &other.0) {
            (Repr::Inline { len: a, bytes: x }, Repr::Inline { len: b, bytes: y }) => {
                a == b && x == y
            }
            (Repr::Heap(a), Repr::Heap(b)) => (***a).as_ref() == (***b).as_ref(),
            _ => false,
        }
    }
}

impl<T: ?Sized + AsRef<[u8]>> Eq for ByteStr<T> {}

impl<T: ?Sized + AsRef<[u8]>> PartialOrd for ByteStr<T> {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T: ?Sized + AsRef<[u8]>> Ord for ByteStr<T> {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        self.as_bytes().cmp(other.as_bytes())
    }
}

impl<T: ?Sized + AsRef<[u8]>> Hash for ByteStr<T> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_bytes().hash(state);
    }
}

impl<T: ?Sized + AsRef<[u8]>> fmt::Debug for ByteStr<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_bytes(), f)
    }
}

impl<T: ?Sized + AsRef<[u8]>> HeapSize for ByteStr<T> {
    /// Inline bytes own no heap. A heap payload is shared; it is charged
    /// to each holder, which over-approximates but keeps the bound
    /// conservative.
    fn heap_size(&self) -> usize {
        match &self.0 {
            Repr::Inline { .. } => 0,
            Repr::Heap(v) => (***v).as_ref().len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sixteen_bytes_inline_to_twelve() {
        assert_eq!(std::mem::size_of::<ByteStr>(), 16);
        assert_eq!(std::mem::size_of::<ByteStr<str>>(), 16);
        assert_eq!(std::mem::size_of::<Option<ByteStr>>(), 16);
        for n in [0, 1, 12, 13, 40] {
            let v = vec![7u8; n];
            let owned = ByteStr::<[u8]>::new(v.clone());
            let copied = ByteStr::<[u8]>::new(&v[..]);
            assert_eq!(owned, copied);
            assert_eq!(owned.as_bytes(), &v[..]);
            assert_eq!(owned.is_inline(), n <= INLINE_CAP);
            assert_eq!(owned.heap_size(), if n <= INLINE_CAP { 0 } else { n });
        }
    }

    #[test]
    fn an_inline_prefix_ignores_what_follows() {
        let junk: [u8; INLINE_CAP] = std::array::from_fn(|i| 0xa0 + i as u8);
        for len in 0..=INLINE_CAP {
            let prefix = ByteStr::inline_prefix(junk, len);
            assert_eq!(prefix, ByteStr::<[u8]>::new(&junk[..len]), "{len}");
            assert_eq!(prefix.as_bytes(), &junk[..len]);
        }
    }

    #[test]
    fn order_is_the_bytes() {
        let k = |b: &[u8]| ByteStr::<[u8]>::new(b);
        assert!(k(b"") < k(b"\0"));
        assert!(k(b"ab") < k(b"b"));
        assert!(k(&[1; 12]) < k(&[1; 13]));
        assert!(k(&[2; 13]) > k(&[1; 12]));
        assert_ne!(k(b"a"), k(b"a\0"));
    }
}
