//! Packed rows: a cached view tuple as one immutable byte string.
//!
//! §3.2 bounds a partial view by `UB ≤ L·F·At`, where `At` is the
//! average cached-tuple size. A [`Tuple`] spends a 16-byte [`Value`] slot
//! on every field and a second allocation on its `Arc`, however small the
//! field. A [`PackedRow`] is one `Arc<[u8]>`, built in one allocation,
//! that holds each value behind a one-byte tag:
//!
//! | value    | tag        | bytes after the tag                        |
//! |----------|------------|--------------------------------------------|
//! | `Null`   | 0          | none                                       |
//! | `Int`    | `w` 1..=8  | `w`, little-endian, sign-extended on decode |
//! | `Double` | 9          | 8, the canonical bits (see [`F64`])         |
//! | `Str`    | 10         | LEB128 length, then the UTF-8 bytes        |
//! | `Str`    | 11 + `n`   | the `n` ≤ [`SHORT_STR_MAX`] UTF-8 bytes    |
//!
//! An `Int` takes the fewest bytes that hold its value as a signed
//! number — T1's keys, quantities and prices take 1–3 payload bytes
//! instead of 8 — and the encoder always picks that width, so equal
//! integers pack to equal bytes. A string of up to
//! [`SHORT_STR_MAX`] bytes carries its length in the tag: an empty
//! filler is one byte.
//!
//! A row has no offset table, so it spends no bytes on offsets; a field
//! is found by decoding the fields before it. Decoding reads strings
//! through the checked `str::from_utf8`.
//!
//! Every value has exactly one encoding — an integer its fewest bytes, a
//! double its canonical bits — so equality and hashing are the bytes': a
//! packed row equals another exactly when the tuples they were packed
//! from are equal.

use std::fmt;
use std::sync::Arc;

use crate::size::HeapSize;
use crate::tuple::Tuple;
use crate::value::{Value, F64};

const NULL: u8 = 0;
/// Tags `1..=8` are an `Int` of that many bytes.
const INT_WIDEST: u8 = 8;
const DOUBLE: u8 = 9;
const LONG_STR: u8 = 10;
/// Tag of the empty short string; a short string of `n` bytes is
/// `SHORT_STR + n`.
const SHORT_STR: u8 = 11;

/// The longest string whose length fits in its tag.
pub const SHORT_STR_MAX: usize = (u8::MAX - SHORT_STR) as usize;

/// The most bytes a packed `Int` or `Double` takes: its tag and 8
/// payload bytes. A `Double` always takes them; an `Int` takes fewer
/// unless its value needs all 8.
pub const MAX_NUMBER_BYTES: usize = 9;

/// An immutable row of values packed into one shared byte string; see
/// the [module docs](self) for the encoding. Cloning copies a pointer.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct PackedRow(Arc<[u8]>);

/// One decoded field of a [`PackedRow`], borrowing its string.
#[derive(Clone, Copy, Debug)]
pub enum Field<'a> {
    /// SQL NULL.
    Null,
    /// A 64-bit integer.
    Int(i64),
    /// A double.
    Double(F64),
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
            (Field::Double(a), Value::Double(b)) => a == b,
            // Bytes, as `Str` compares: no UTF-8 check on either side.
            (Field::Str(a), Value::Str(b)) => a.as_bytes() == b.as_bytes(),
            _ => false,
        }
    }
}

/// Bytes `v` takes packed.
#[inline]
pub fn encoded_len(v: &Value) -> usize {
    match v {
        Value::Null => 1,
        Value::Int(x) => 1 + int_width(*x),
        Value::Double(_) => MAX_NUMBER_BYTES,
        Value::Str(s) => {
            let n = s.as_str().len();
            if n <= SHORT_STR_MAX {
                1 + n
            } else {
                1 + leb128_len(n) + n
            }
        }
    }
}

/// The fewest bytes, 1..=8, that hold `x` as a two's-complement number.
#[inline]
fn int_width(x: i64) -> usize {
    // Bits past the leading copies of the sign bit, plus the sign bit.
    let bits = 65 - (x ^ (x >> 63)).leading_zeros() as usize;
    bits.div_ceil(8)
}

/// The `w`-byte little-endian integer at `bytes[at..]`, sign-extended.
/// One unaligned 8-byte load wherever the row has 8 bytes around the
/// field (a T1 row always does): no copy of a variable length.
#[inline]
fn read_int(bytes: &[u8], at: usize, w: usize) -> i64 {
    let end = at + w;
    let load = |from: usize| i64::from_le_bytes(bytes[from..from + 8].try_into().expect("8 bytes"));
    let unused = 64 - 8 * w as u32;
    if end >= 8 {
        // The 8 bytes that end with the field hold it in their top `w`
        // bytes: one arithmetic shift drops what precedes it.
        load(end - 8) >> unused
    } else if at + 8 <= bytes.len() {
        // Near the row's start: the 8 bytes that begin with it, the
        // next fields' bytes shifted out.
        (load(at) << unused) >> unused
    } else {
        let mut buf = [0u8; 8];
        buf[..w].copy_from_slice(&bytes[at..end]);
        (i64::from_le_bytes(buf) << unused) >> unused
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

/// Write `v` packed at the start of `out`, which holds at least
/// [`encoded_len`] bytes, returning the bytes written.
#[inline]
pub fn encode(v: &Value, out: &mut [u8]) -> usize {
    match v {
        Value::Null => {
            out[0] = NULL;
            1
        }
        Value::Int(x) => {
            let w = int_width(*x);
            out[0] = w as u8;
            match out.get_mut(1..9) {
                // Where 8 bytes follow the tag, one 8-byte store: the
                // bytes past `w` lie in the fields written after this
                // one, which overwrite them.
                Some(word) => word.copy_from_slice(&x.to_le_bytes()),
                None => out[1..=w].copy_from_slice(&x.to_le_bytes()[..w]),
            }
            1 + w
        }
        Value::Double(d) => {
            out[0] = DOUBLE;
            out[1..9].copy_from_slice(&d.to_bits().to_le_bytes());
            MAX_NUMBER_BYTES
        }
        Value::Str(s) => {
            let bytes = s.as_str().as_bytes();
            if bytes.len() <= SHORT_STR_MAX {
                out[0] = SHORT_STR + bytes.len() as u8;
                out[1..=bytes.len()].copy_from_slice(bytes);
                return 1 + bytes.len();
            }
            out[0] = LONG_STR;
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
        Fields::new(&self.0)
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

/// Iterator over a [`PackedRow`]'s fields, or over any bytes written
/// by [`encode`].
#[derive(Clone)]
pub struct Fields<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Fields<'a> {
    /// The fields packed in `bytes`, which [`encode`] wrote value after
    /// value; decoding other bytes may panic.
    #[inline]
    pub fn new(bytes: &'a [u8]) -> Self {
        Fields { bytes, at: 0 }
    }
}

impl<'a> Iterator for Fields<'a> {
    type Item = Field<'a>;

    #[inline]
    fn next(&mut self) -> Option<Field<'a>> {
        let bytes = self.bytes;
        let at = self.at;
        let tag = *bytes.get(at)?;
        let field = match tag {
            NULL => {
                self.at = at + 1;
                Field::Null
            }
            1..=INT_WIDEST => {
                let w = usize::from(tag);
                self.at = at + 1 + w;
                Field::Int(read_int(bytes, at + 1, w))
            }
            DOUBLE => {
                self.at = at + MAX_NUMBER_BYTES;
                let bits: [u8; 8] = bytes[at + 1..at + 9].try_into().expect("8 payload bytes");
                Field::Double(F64::new(f64::from_bits(u64::from_le_bytes(bits))))
            }
            LONG_STR => {
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
                Field::Str(utf8(&bytes[i..i + n]))
            }
            short => {
                let n = usize::from(short - SHORT_STR);
                self.at = at + 1 + n;
                Field::Str(utf8(&bytes[at + 1..at + 1 + n]))
            }
        };
        Some(field)
    }
}

/// A packed string's bytes as `&str`, checked.
#[inline]
fn utf8(bytes: &[u8]) -> &str {
    // An empty string needs no validation (a filler column's usual
    // value).
    if bytes.is_empty() {
        ""
    } else {
        std::str::from_utf8(bytes).expect("packed strings are UTF-8")
    }
}

impl From<&Tuple> for PackedRow {
    fn from(t: &Tuple) -> Self {
        PackedRow::pack(t.values())
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
    fn t1_shaped_row_is_18_bytes() {
        // T1's stored fields at their widest: orderkey ≤ 30 000, custkey
        // ≤ 3 000, totalprice < 500 000, the filler, quantity ≤ 50,
        // extendedprice < 100 000, the filler. An empty string is its
        // tag alone.
        let row = tuple![30_000i64, 3_000i64, 499_999i64, "", 50i64, 99_999i64, ""];
        let packed = PackedRow::from(&row);
        assert_eq!(packed.as_bytes().len(), 3 + 3 + 4 + 1 + 2 + 4 + 1);
        assert_eq!(std::mem::size_of::<PackedRow>(), 16);
        assert_eq!(packed.unpack(), row);
    }

    #[test]
    fn strings_past_244_bytes_take_a_leb128_length() {
        assert_eq!(SHORT_STR_MAX, 244);
        for (n, len) in [
            (0, 1),
            (127, 128),
            (128, 129),
            (244, 245),
            (245, 248),
            (300, 303),
            (16_383, 16_386),
            (16_384, 16_388),
        ] {
            let row = Tuple::new(vec![Value::str("a".repeat(n))]);
            let packed = PackedRow::from(&row);
            assert_eq!(packed.as_bytes().len(), len, "{n}-byte string");
            assert_eq!(packed.unpack(), row);
        }
    }

    #[test]
    fn equal_doubles_pack_to_equal_bytes() {
        let neg = PackedRow::from(&tuple![-0.0f64]);
        let pos = PackedRow::from(&tuple![0.0f64]);
        assert_eq!(neg.as_bytes(), pos.as_bytes());
        assert_eq!(neg, pos);
        match neg.field(0) {
            Field::Double(d) => assert_eq!(d.to_bits(), 0.0f64.to_bits()),
            other => panic!("{other:?}"),
        }
        let payload = f64::from_bits(0xfff0_0000_0000_0001);
        let (a, b) = (
            PackedRow::from(&tuple![payload]),
            PackedRow::from(&tuple![f64::NAN]),
        );
        assert_eq!(a.as_bytes(), b.as_bytes());
        assert_eq!(a, b);
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
