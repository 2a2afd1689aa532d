//! Packed rows: a cached view tuple as one immutable byte string.
//!
//! §3.2 bounds a partial view by `UB ≤ L·F·At`, where `At` is the
//! average cached-tuple size. A [`Tuple`] spends a 16-byte [`Value`] slot
//! on every field and a second allocation on its `Arc`, however small the
//! field. A [`PackedRow`] is one `Arc<[u8]>`, built in one allocation,
//! that holds each value behind a one-byte tag:
//!
//! | value    | bytes after the tag                          |
//! |----------|----------------------------------------------|
//! | `Null`   | none                                         |
//! | `Int`    | 8, little-endian                             |
//! | `Double` | 8, the raw bits (`-0.0` and NaN payloads survive) |
//! | `Str`    | LEB128 length, then the UTF-8 bytes          |
//!
//! A row has no offset table, so it spends no bytes on offsets; a field
//! is found by decoding the fields before it. Decoding reads strings
//! through the checked `str::from_utf8`.
//!
//! Equality and hashing follow [`Value`]'s, field by field — doubles
//! compare canonically, so `-0.0 == 0.0` — so a packed row equals
//! another exactly when the tuples they were packed from are equal.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use crate::size::HeapSize;
use crate::tuple::Tuple;
use crate::value::Value;

const NULL: u8 = 0;
const INT: u8 = 1;
const DOUBLE: u8 = 2;
const STR: u8 = 3;

/// Bytes a packed `Int` or `Double` takes: its tag and 8 payload bytes.
pub const NUMBER_BYTES: usize = 9;

/// An immutable row of values packed into one shared byte string; see
/// the [module docs](self) for the encoding. Cloning copies a pointer.
#[derive(Clone)]
pub struct PackedRow(Arc<[u8]>);

/// One decoded field of a [`PackedRow`], borrowing its string.
#[derive(Clone, Copy, Debug)]
pub enum Field<'a> {
    /// SQL NULL.
    Null,
    /// A 64-bit integer.
    Int(i64),
    /// A double, bit for bit as it was packed.
    Double(f64),
    /// A string, borrowed from the row.
    Str(&'a str),
}

impl Field<'_> {
    /// The field as an owned [`Value`] (a string longer than the inline
    /// capacity is copied to the heap).
    #[inline]
    pub fn to_value(self) -> Value {
        match self {
            Field::Null => Value::Null,
            Field::Int(v) => Value::Int(v),
            Field::Double(d) => Value::Double(d),
            Field::Str(s) => Value::str(s),
        }
    }
}

impl PartialEq<Value> for Field<'_> {
    /// [`Value`]'s equality, without building the value.
    #[inline]
    fn eq(&self, other: &Value) -> bool {
        match (self, other) {
            (Field::Null, Value::Null) => true,
            (Field::Int(a), Value::Int(b)) => a == b,
            (Field::Double(a), Value::Double(_)) => Value::Double(*a) == *other,
            // Bytes, as `Str` compares: no UTF-8 check on either side.
            (Field::Str(a), Value::Str(b)) => a.as_bytes() == b.as_bytes(),
            _ => false,
        }
    }
}

impl PartialEq for Field<'_> {
    /// [`Value`]'s equality.
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Field::Str(a), Field::Str(b)) => a == b,
            (Field::Str(_), _) | (_, Field::Str(_)) => false,
            _ => *self == other.to_value(),
        }
    }
}

impl Hash for Field<'_> {
    /// Agrees with `Value`'s hash of the same value.
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Field::Str(s) => {
                3u8.hash(state);
                s.hash(state);
            }
            other => other.to_value().hash(state),
        }
    }
}

/// Bytes `v` takes packed.
#[inline]
fn encoded_len(v: &Value) -> usize {
    match v {
        Value::Null => 1,
        Value::Int(_) | Value::Double(_) => NUMBER_BYTES,
        Value::Str(s) => {
            let n = s.as_str().len();
            1 + leb128_len(n) + n
        }
    }
}

fn leb128_len(mut n: usize) -> usize {
    let mut bytes = 1;
    while n >= 0x80 {
        n >>= 7;
        bytes += 1;
    }
    bytes
}

/// Write `v` at the start of `out`, returning the bytes written.
#[inline]
fn encode(v: &Value, out: &mut [u8]) -> usize {
    match v {
        Value::Null => {
            out[0] = NULL;
            1
        }
        Value::Int(x) => {
            out[0] = INT;
            out[1..9].copy_from_slice(&x.to_le_bytes());
            NUMBER_BYTES
        }
        Value::Double(d) => {
            out[0] = DOUBLE;
            out[1..9].copy_from_slice(&d.to_bits().to_le_bytes());
            NUMBER_BYTES
        }
        Value::Str(s) => {
            let bytes = s.as_str().as_bytes();
            out[0] = STR;
            let (mut n, mut at) = (bytes.len(), 1);
            while n >= 0x80 {
                out[at] = (n as u8 & 0x7f) | 0x80;
                n >>= 7;
                at += 1;
            }
            out[at] = n as u8;
            at += 1;
            out[at..at + bytes.len()].copy_from_slice(bytes);
            at + bytes.len()
        }
    }
}

impl PackedRow {
    /// Pack `values`, in order, into one allocation. The iterator is
    /// walked twice: once to size the row, once to write it.
    pub fn pack<'a, I>(values: I) -> Self
    where
        I: IntoIterator<Item = &'a Value>,
        I::IntoIter: Clone,
    {
        let values = values.into_iter();
        let len = values.clone().map(encoded_len).sum();
        // An exact-size iterator lets `Arc<[u8]>` allocate once, at its
        // final size; the row is then written in place.
        let mut bytes: Arc<[u8]> = std::iter::repeat_n(0u8, len).collect();
        let out = Arc::get_mut(&mut bytes).expect("a fresh row is unshared");
        let mut at = 0;
        for v in values {
            at += encode(v, &mut out[at..]);
        }
        debug_assert_eq!(at, len);
        PackedRow(bytes)
    }

    /// The fields, decoded in order.
    #[inline]
    pub fn fields(&self) -> Fields<'_> {
        Fields {
            bytes: &self.0,
            at: 0,
        }
    }

    /// Field `i`, decoding the fields before it. Panics when the row has
    /// no field `i`.
    #[inline]
    pub fn field(&self, i: usize) -> Field<'_> {
        self.fields().nth(i).expect("field index in range")
    }

    /// The packed bytes: what the row owns on the heap, besides the
    /// `Arc`'s two reference counts.
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }

    /// The row as a [`Tuple`].
    pub fn unpack(&self) -> Tuple {
        Tuple::new(self.fields().map(Field::to_value).collect::<Vec<_>>())
    }
}

/// Iterator over a [`PackedRow`]'s fields.
#[derive(Clone)]
pub struct Fields<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Iterator for Fields<'a> {
    type Item = Field<'a>;

    #[inline]
    fn next(&mut self) -> Option<Field<'a>> {
        let bytes = self.bytes;
        let at = self.at;
        let tag = *bytes.get(at)?;
        let number = || -> [u8; 8] { bytes[at + 1..at + 9].try_into().expect("8 payload bytes") };
        let field = match tag {
            NULL => {
                self.at = at + 1;
                Field::Null
            }
            INT => {
                self.at = at + NUMBER_BYTES;
                Field::Int(i64::from_le_bytes(number()))
            }
            DOUBLE => {
                self.at = at + NUMBER_BYTES;
                Field::Double(f64::from_bits(u64::from_le_bytes(number())))
            }
            STR => {
                let (mut n, mut shift, mut i) = (0usize, 0, at + 1);
                loop {
                    let b = bytes[i];
                    n |= usize::from(b & 0x7f) << shift;
                    i += 1;
                    if b & 0x80 == 0 {
                        break;
                    }
                    shift += 7;
                }
                self.at = i + n;
                // An empty string needs no validation (a filler column's
                // usual value).
                Field::Str(if n == 0 {
                    ""
                } else {
                    std::str::from_utf8(&bytes[i..i + n]).expect("packed strings are UTF-8")
                })
            }
            _ => unreachable!("unknown packed tag {tag}"),
        };
        Some(field)
    }
}

impl From<&Tuple> for PackedRow {
    fn from(t: &Tuple) -> Self {
        PackedRow::pack(t.values())
    }
}

impl PartialEq for PackedRow {
    /// [`Value`]'s equality, field by field. Equal bytes decide it at
    /// once; otherwise the rows may still differ only in a double's sign
    /// or NaN payload, which `Value` does not tell apart.
    fn eq(&self, other: &Self) -> bool {
        if self.0 == other.0 {
            return true;
        }
        let (mut a, mut b) = (self.fields(), other.fields());
        loop {
            match (a.next(), b.next()) {
                (None, None) => return true,
                (Some(x), Some(y)) if x == y => {}
                _ => return false,
            }
        }
    }
}

impl Eq for PackedRow {}

impl Hash for PackedRow {
    fn hash<H: Hasher>(&self, state: &mut H) {
        for f in self.fields() {
            f.hash(state);
        }
    }
}

impl HeapSize for PackedRow {
    fn heap_size(&self) -> usize {
        self.0.len()
    }
}

impl fmt::Debug for PackedRow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&self.unpack(), f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple;

    #[test]
    fn t1_shaped_row_is_49_bytes() {
        // Five integers and two empty strings, T1's stored fields: an
        // empty string is its tag and a zero length.
        let row = tuple![1i64, 2i64, 3i64, "", 4i64, 5i64, ""];
        let packed = PackedRow::from(&row);
        assert_eq!(packed.as_bytes().len(), 5 * NUMBER_BYTES + 2 * 2);
        assert_eq!(std::mem::size_of::<PackedRow>(), 16);
        assert_eq!(packed.unpack(), row);
    }

    #[test]
    fn lengths_past_127_take_two_leb128_bytes() {
        for (n, len) in [(0, 2), (127, 129), (128, 131), (300, 303)] {
            let row = Tuple::new(vec![Value::str("a".repeat(n))]);
            let packed = PackedRow::from(&row);
            assert_eq!(packed.as_bytes().len(), len, "{n}-byte string");
            assert_eq!(packed.unpack(), row);
        }
    }

    #[test]
    fn doubles_keep_their_bits_and_compare_as_values() {
        let neg = PackedRow::from(&tuple![-0.0f64]);
        let pos = PackedRow::from(&tuple![0.0f64]);
        assert_ne!(neg.as_bytes(), pos.as_bytes());
        assert_eq!(neg, pos);
        match neg.field(0) {
            Field::Double(d) => assert_eq!(d.to_bits(), (-0.0f64).to_bits()),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn rows_of_different_widths_differ() {
        let a = PackedRow::from(&tuple![1i64]);
        let b = PackedRow::from(&tuple![1i64, 2i64]);
        assert_ne!(a, b);
        assert_ne!(b, a);
        assert_eq!(b, PackedRow::from(&tuple![1i64, 2i64]));
    }
}
