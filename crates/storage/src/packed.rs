//! Packed rows: how a value is written down, in memory and on disk.
//!
//! §3.2 bounds a partial view by `UB ≤ L·F·At`, where `At` is the
//! average cached-tuple size. A [`Tuple`] spends a 16-byte [`Value`] slot
//! on every field and a second allocation on its `Arc`, however small the
//! field. A packed row names each value by a 4-bit tag and keeps only
//! the payload its value needs — owned, a [`PackedRow`] is one
//! `Arc<[u8]>` built in one allocation; borrowed from wherever it lies,
//! a [`RowRef`].
//!
//! **Format 4: two tags to a byte.** The fields are written in pairs:
//! one tag byte — the first field's tag in its low nibble, the second's
//! in its high nibble — then the first payload, then the second. A row
//! of an odd number of fields ends with a tag byte whose high nibble is
//! [`NO_FIELD`] (15), "no field"; a 15 anywhere else is not a row.
//!
//! | value    | tag          | payload                                     |
//! |----------|--------------|---------------------------------------------|
//! | `Null`   | 0            | none                                        |
//! | `Int`    | `w` 1..=8    | `w` bytes, little-endian, sign-extended on decode |
//! | `Double` | 9            | 8 bytes, the canonical bits (see [`F64`])    |
//! | `Str`    | 10           | LEB128 length, then the UTF-8 bytes         |
//! | `Str`    | 11 + `n`     | the `n` ≤ [`SHORT_STR_MAX`] (3) UTF-8 bytes  |
//!
//! An `Int` takes the fewest bytes that hold its value as a signed
//! number — T1's keys, quantities and prices take 1–3 payload bytes
//! instead of 8 — and the writer always picks that width, so equal
//! integers pack to equal bytes. A string of up to [`SHORT_STR_MAX`]
//! bytes carries its length in its tag: an empty filler is half a byte.
//!
//! Against a whole tag byte per value (format 3, whose tag carried a
//! string's length up to 244 bytes), a `Null`, a number or a string of
//! at most 3 or at least 245 bytes saves half a byte. A string of 4–127
//! bytes pays half a byte more — its nibble and a length byte where its
//! length used to ride in its tag — and one of 128–244 bytes a byte and
//! a half more (its length takes two bytes). T1's stored rows hold only
//! integers and empty strings: seven values, 4 tag bytes where they
//! took 7, so its widest row is 4 + 11 = 15 B instead of 18.
//!
//! A row has no offset table, so it spends no bytes on offsets; a field
//! is found by decoding the fields before it.
//!
//! **One writer.** Every row is written by a [`RowWriter`] — a
//! [`PackedRow`], a view's stored row ([`append_row`]), a bcp's key
//! ([`pack_into`]), a projection of a stored row the writer copies
//! field by field ([`RowWriter::push_field`], fed by
//! [`RowRef::encoded_fields`]), a row on disk ([`put_row`]). Every value
//! has exactly one encoding — an integer its fewest bytes, a double its
//! canonical bits, a string its shortest form — and the pairing is
//! fixed, so equality and hashing are the bytes': a packed row equals
//! another exactly when the tuples they were packed from are equal.
//!
//! **One framing for a row on disk.** A row is framed as its packed
//! byte length in LEB128, then its packed values ([`put_row`],
//! [`put_packed_frame`]): the WAL and the checkpoint write a tuple so,
//! and a view entry its bcp's key. [`take_row`] reads one back,
//! checked: bytes cut short, a length that overflows, a string that is
//! not UTF-8 or a misplaced [`NO_FIELD`] are a [`DecodeError`], never a
//! panic, and a double reads as its canonical [`F64`]. [`Fields`] runs
//! the same per-tag code over a row in memory, which holds only what a
//! [`RowWriter`] wrote, and panics there.
//!
//! **An entry's rows are front-coded.** A view entry holds its cached
//! rows back to back in one byte string, each framed as on disk plus a
//! count of leading bytes it shares with the row before it:
//!
//! ```text
//! frame := LEB128(suffix_len << 1 | s) [LEB128(shared) if s = 1] suffix
//! ```
//!
//! The row's packed bytes are the previous row's first `shared` bytes,
//! then the `suffix_len` bytes of `suffix`. An entry's first row never
//! shares, and [`put_entry_row`] shares only where the shared frame
//! costs no more than the unshared one ([`entry_frame_len`]), so a row
//! never takes more than it would alone. T1's index nested loop emits
//! one order's lineitems back to back, so most rows repeat their
//! order's half and keep only the lineitem's. The shared count is an
//! in-memory frame only: the disk framing above is unchanged, and a row
//! is hashed and compared over its full packed bytes wherever it lies.
//! A [`Cursor`] lends each row as a [`RowRef`]: one that shares nothing
//! straight from the entry's bytes, one that shares rebuilt in a buffer
//! the caller owns; [`check_entry_rows`] walks the same frames checked.

use std::borrow::Borrow;
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
/// Tag of the empty string; a short string of `n` bytes is
/// `SHORT_STR + n`.
const SHORT_STR: u8 = 11;
/// The high nibble that closes a row of an odd number of fields: no
/// field. Anywhere else it is not a row.
pub const NO_FIELD: u8 = 15;

/// The longest string whose length fits in its tag.
pub const SHORT_STR_MAX: usize = 3;

/// The most payload bytes a packed `Int` or `Double` takes after its
/// tag's nibble: 8. A `Double` always takes them; an `Int` takes fewer
/// unless its value needs all 8.
pub const MAX_NUMBER_BYTES: usize = 8;

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

/// `v`'s tag and the bytes of its payload.
#[inline]
fn tag_of(v: &Value) -> (u8, usize) {
    match v {
        Value::Null => (NULL, 0),
        Value::Int(x) => {
            let w = int_width(*x);
            (w as u8, w)
        }
        Value::Double(_) => (DOUBLE, MAX_NUMBER_BYTES),
        Value::Str(s) => match s.as_str().len() {
            n @ 0..=SHORT_STR_MAX => (SHORT_STR + n as u8, n),
            n => (LONG_STR, leb128_len(n) + n),
        },
    }
}

/// Tag bytes a row of `fields` fields takes: one per pair, the last
/// closed by [`NO_FIELD`] when `fields` is odd.
#[inline]
pub fn tag_bytes(fields: usize) -> usize {
    fields.div_ceil(2)
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

fn leb128_len(n: usize) -> usize {
    (usize::BITS - (n | 1).leading_zeros()).div_ceil(7) as usize
}

/// Write `n` in LEB128 at the start of `out`, returning the bytes
/// written.
fn write_leb128(out: &mut [u8], mut n: usize) -> usize {
    let mut at = 0;
    while n >= 0x80 {
        out[at] = (n as u8 & 0x7f) | 0x80;
        n >>= 7;
        at += 1;
    }
    out[at] = n as u8;
    at + 1
}

/// The LEB128 number at `bytes[at..]` and the offset just past it;
/// `None` when the bytes end inside it or it overflows a `usize`.
#[inline]
fn read_leb128(bytes: &[u8], at: usize) -> Option<(usize, usize)> {
    // One byte, below 128: the length of every T1 row and key.
    if let Some(&b) = bytes.get(at).filter(|&&b| b < 0x80) {
        return Some((usize::from(b), at + 1));
    }
    let mut n = 0u128;
    for (i, &b) in bytes.get(at..)?.iter().take(10).enumerate() {
        n |= u128::from(b & 0x7f) << (7 * i);
        if b & 0x80 == 0 {
            return Some((usize::try_from(n).ok()?, at + i + 1));
        }
    }
    None
}

/// What a [`RowWriter`] writes into: a `Vec` it appends to, or (inside
/// [`pack_into`]) a slice sized to the row.
pub trait RowOut {
    /// Bytes written so far.
    fn written(&self) -> usize;
    /// Append `bytes`.
    fn put(&mut self, bytes: &[u8]);
    /// Append the low `w` bytes of `word`. Where 8 bytes fit, one 8-byte
    /// store: the bytes past `w` are left for the fields after to
    /// overwrite, so no copy has a variable length.
    fn put_word(&mut self, word: [u8; 8], w: usize);
    /// Set the high nibble of the byte written at `at`, whose high
    /// nibble is 0.
    fn set_high(&mut self, at: usize, nibble: u8);
}

impl RowOut for Vec<u8> {
    #[inline]
    fn written(&self) -> usize {
        self.len()
    }

    #[inline]
    fn put(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }

    #[inline]
    fn put_word(&mut self, word: [u8; 8], w: usize) {
        let len = self.len();
        if self.capacity() - len >= 8 {
            // Within the capacity already held: no reallocation.
            self.extend_from_slice(&word);
            self.truncate(len + w);
        } else {
            self.extend_from_slice(&word[..w]);
        }
    }

    #[inline]
    fn set_high(&mut self, at: usize, nibble: u8) {
        self[at] |= nibble << 4;
    }
}

/// A slice a [`RowWriter`] fills from its start. Bytes past its end are
/// dropped and only counted, so a row that does not fit ends with `at`
/// past the slice.
struct Fill<'a> {
    buf: &'a mut [u8],
    at: usize,
}

impl RowOut for Fill<'_> {
    #[inline]
    fn written(&self) -> usize {
        self.at
    }

    #[inline]
    fn put(&mut self, bytes: &[u8]) {
        if let Some(room) = self.buf.get_mut(self.at..self.at + bytes.len()) {
            room.copy_from_slice(bytes);
        }
        self.at += bytes.len();
    }

    #[inline]
    fn put_word(&mut self, word: [u8; 8], w: usize) {
        if let Some(room) = self.buf.get_mut(self.at..self.at + 8) {
            room.copy_from_slice(&word);
        } else if let Some(room) = self.buf.get_mut(self.at..self.at + w) {
            room.copy_from_slice(&word[..w]);
        }
        self.at += w;
    }

    #[inline]
    fn set_high(&mut self, at: usize, nibble: u8) {
        if let Some(byte) = self.buf.get_mut(at) {
            *byte |= nibble << 4;
        }
    }
}

/// The one writer of a packed row: fields pushed in order, each a value
/// ([`Self::push`]) or a field already packed ([`Self::push_field`]),
/// then [`Self::finish`], which closes an odd row. A field opens a tag
/// byte or fills the one the field before it opened.
pub struct RowWriter<'o, O: RowOut + ?Sized> {
    out: &'o mut O,
    /// Where the tag byte whose high nibble is still free lies.
    open: Option<usize>,
}

impl<'o, O: RowOut + ?Sized> RowWriter<'o, O> {
    /// A row written at the end of `out`.
    #[inline]
    pub fn new(out: &'o mut O) -> Self {
        RowWriter { out, open: None }
    }

    /// Write a field's tag: into the open tag byte's high nibble, or as
    /// a new tag byte's low one.
    #[inline]
    fn tag(&mut self, tag: u8) {
        match self.open.take() {
            Some(at) => self.out.set_high(at, tag),
            None => {
                self.open = Some(self.out.written());
                self.out.put(&[tag]);
            }
        }
    }

    /// Append `v`, packed.
    #[inline]
    pub fn push(&mut self, v: &Value) {
        let (tag, len) = tag_of(v);
        self.tag(tag);
        match v {
            Value::Null => {}
            Value::Int(x) => self.out.put_word(x.to_le_bytes(), len),
            Value::Double(d) => self.out.put(&d.to_bits().to_le_bytes()),
            Value::Str(s) => {
                let bytes = s.as_str().as_bytes();
                if tag == LONG_STR {
                    let mut n = [0u8; 10];
                    let w = write_leb128(&mut n, bytes.len());
                    self.out.put(&n[..w]);
                }
                // An empty string — a filler column's usual value — is its
                // tag alone.
                if !bytes.is_empty() {
                    self.out.put(bytes);
                }
            }
        }
    }

    /// Append a field already packed: its tag and its payload, as
    /// [`RowRef::encoded_fields`] yields them.
    #[inline]
    pub fn push_field(&mut self, tag: u8, payload: &[u8]) {
        self.tag(tag);
        self.out.put(payload);
    }

    /// Close the row: an odd one's last tag byte gets [`NO_FIELD`].
    #[inline]
    pub fn finish(mut self) {
        if let Some(at) = self.open.take() {
            self.out.set_high(at, NO_FIELD);
        }
    }
}

/// Bytes `values` take packed, as one row.
#[inline]
pub fn row_len<I>(values: I) -> usize
where
    I: IntoIterator,
    I::Item: Borrow<Value>,
{
    let (mut fields, mut payload) = (0, 0);
    for v in values {
        fields += 1;
        payload += tag_of(v.borrow()).1;
    }
    tag_bytes(fields) + payload
}

/// Write `values` as one row at the start of `out`, returning the bytes
/// written; `None` when the row is longer than `out` (which then holds
/// a prefix of it). A slice of their [`row_len`] bytes always holds it.
#[inline]
pub fn pack_into<I>(out: &mut [u8], values: I) -> Option<usize>
where
    I: IntoIterator,
    I::Item: Borrow<Value>,
{
    let len = out.len();
    let mut fill = Fill { buf: out, at: 0 };
    write_row(&mut fill, values);
    (fill.at <= len).then_some(fill.at)
}

/// Append `values` to `out` as one row, growing it once. The iterator
/// is walked twice: once to size the row, once to write it.
#[inline]
pub fn append_row<I>(out: &mut Vec<u8>, values: I)
where
    I: IntoIterator,
    I::IntoIter: Clone,
    I::Item: Borrow<Value>,
{
    let values = values.into_iter();
    out.reserve(row_len(values.clone()));
    write_row(out, values);
}

/// Write `values` as one row at the end of `out`.
#[inline]
fn write_row<O, I>(out: &mut O, values: I)
where
    O: RowOut + ?Sized,
    I: IntoIterator,
    I::Item: Borrow<Value>,
{
    let mut w = RowWriter::new(out);
    for v in values {
        w.push(v.borrow());
    }
    w.finish();
}

impl PackedRow {
    /// Pack `values`, in order, into one allocation. The iterator is
    /// walked twice: once to size the row, once to write it.
    pub fn pack<I>(values: I) -> Self
    where
        I: IntoIterator,
        I::IntoIter: Clone,
        I::Item: Borrow<Value>,
    {
        let values = values.into_iter();
        let len = row_len(values.clone());
        // An exact-size iterator lets `Arc<[u8]>` allocate once, at its
        // final size; the row is then written in place.
        let mut bytes: Arc<[u8]> = std::iter::repeat_n(0u8, len).collect();
        let out = Arc::get_mut(&mut bytes).expect("a fresh row is unshared");
        let at = pack_into(out, values).expect("a row fits its row_len");
        debug_assert_eq!(at, len);
        PackedRow(bytes)
    }

    /// The row, borrowed.
    #[inline]
    pub fn row(&self) -> RowRef<'_> {
        RowRef(&self.0)
    }

    /// The fields, decoded in order.
    #[inline]
    pub fn fields(&self) -> Fields<'_> {
        self.row().fields()
    }

    /// Field `i`, decoding the fields before it. Panics when the row has
    /// no field `i`.
    #[inline]
    pub fn field(&self, i: usize) -> Field<'_> {
        self.row().field(i)
    }

    /// The packed bytes: what the row owns on the heap, besides the
    /// `Arc`'s two reference counts.
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }

    /// The row as a [`Tuple`].
    pub fn unpack(&self) -> Tuple {
        self.row().unpack()
    }
}

/// A packed row borrowed from where it lies: a [`PackedRow`], or the
/// row an entry's [`Cursor`] lent. Copying it copies a slice
/// reference; equality and hashing are the bytes'.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct RowRef<'a>(&'a [u8]);

impl<'a> RowRef<'a> {
    /// The row packed in `bytes`, which a [`RowWriter`] wrote — a row's
    /// own bytes, or a key packed the way a row is.
    #[inline]
    pub fn new(bytes: &'a [u8]) -> Self {
        RowRef(bytes)
    }

    /// The fields, decoded in order.
    #[inline]
    pub fn fields(self) -> Fields<'a> {
        Fields::new(self.0)
    }

    /// Field `i`, decoding the fields before it. Panics when the row has
    /// no field `i`.
    #[inline]
    pub fn field(self, i: usize) -> Field<'a> {
        self.fields().nth(i).expect("field index in range")
    }

    /// The packed bytes, without a frame's length.
    #[inline]
    pub fn as_bytes(self) -> &'a [u8] {
        self.0
    }

    /// Each field's tag and payload, in order: what
    /// [`RowWriter::push_field`] copies into another row, so equal
    /// values yield equal fields.
    #[inline]
    pub fn encoded_fields(self) -> impl Iterator<Item = (u8, &'a [u8])> + Clone + 'a {
        let mut tags = Tags::new(self.0);
        std::iter::from_fn(move || {
            let tag = tags.next_tag()?;
            let at = tags.at;
            tags.at = field_at(tags.bytes, at, tag)
                .expect("a packed row decodes")
                .1;
            Some((tag, &tags.bytes[at..tags.at]))
        })
    }

    /// The row as a [`Tuple`].
    pub fn unpack(self) -> Tuple {
        Tuple::new(self.fields().map(Field::to_value).collect::<Vec<_>>())
    }
}

impl fmt::Debug for RowRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&self.unpack(), f)
    }
}

/// A walk over a row's tags: where the next payload begins, and the
/// high nibble of a tag byte whose low field was read.
#[derive(Clone)]
struct Tags<'a> {
    bytes: &'a [u8],
    at: usize,
    high: Option<u8>,
}

impl<'a> Tags<'a> {
    #[inline]
    fn new(bytes: &'a [u8]) -> Self {
        Tags {
            bytes,
            at: 0,
            high: None,
        }
    }

    /// The next field's tag, `at` left on its payload; `None` past the
    /// last field. Only a high nibble may be [`NO_FIELD`] in a row a
    /// [`RowWriter`] wrote; a low one is left to [`field_at`] to refuse.
    #[inline]
    fn next_tag(&mut self) -> Option<u8> {
        if let Some(tag) = self.high.take() {
            return (tag != NO_FIELD).then_some(tag);
        }
        let pair = *self.bytes.get(self.at)?;
        self.at += 1;
        self.high = Some(pair >> 4);
        Some(pair & 0xf)
    }
}

/// Iterator over a [`PackedRow`]'s fields, or over any bytes a
/// [`RowWriter`] wrote.
#[derive(Clone)]
pub struct Fields<'a> {
    tags: Tags<'a>,
}

impl<'a> Fields<'a> {
    /// The fields packed in `bytes`, which a [`RowWriter`] wrote; a
    /// field of other bytes panics (bytes read from disk go through
    /// [`take_row`]).
    #[inline]
    pub fn new(bytes: &'a [u8]) -> Self {
        Fields {
            tags: Tags::new(bytes),
        }
    }
}

impl<'a> Iterator for Fields<'a> {
    type Item = Field<'a>;

    #[inline]
    fn next(&mut self) -> Option<Field<'a>> {
        let tag = self.tags.next_tag()?;
        let (field, next) =
            field_at(self.tags.bytes, self.tags.at, tag).expect("a packed row decodes");
        self.tags.at = next;
        Some(field)
    }
}

/// Bytes read back from disk that are not what [`put_row`] writes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DecodeError(pub String);

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "undecodable bytes: {}", self.0)
    }
}

impl std::error::Error for DecodeError {}

/// The field of tag `tag` whose payload begins at `bytes[at..]`, and
/// the offset just past it; `None` when the payload is cut short or not
/// UTF-8, or the tag is [`NO_FIELD`]. The one per-tag decoder, behind
/// [`Fields`] and [`take_row`].
#[inline]
fn field_at(bytes: &[u8], at: usize, tag: u8) -> Option<(Field<'_>, usize)> {
    match tag {
        NULL => Some((Field::Null, at)),
        1..=INT_WIDEST => {
            let (w, end) = (usize::from(tag), at + usize::from(tag));
            (end <= bytes.len()).then(|| (Field::Int(read_int(bytes, at, w)), end))
        }
        DOUBLE => {
            let bits = bytes.get(at..at + 8)?.try_into().ok()?;
            let d = F64::new(f64::from_bits(u64::from_le_bytes(bits)));
            Some((Field::Double(d), at + 8))
        }
        LONG_STR => {
            let (n, start) = read_leb128(bytes, at)?;
            str_at(bytes, start, n)
        }
        NO_FIELD => None,
        short => str_at(bytes, at, usize::from(short - SHORT_STR)),
    }
}

/// The `n`-byte string at `bytes[at..]` and the offset past it.
#[inline]
fn str_at(bytes: &[u8], at: usize, n: usize) -> Option<(Field<'_>, usize)> {
    let end = at.checked_add(n).filter(|&end| end <= bytes.len())?;
    // An empty string needs no validation (a filler column's usual
    // value).
    let s = match &bytes[at..end] {
        [] => "",
        s => std::str::from_utf8(s).ok()?,
    };
    Some((Field::Str(s), end))
}

/// Walk the row packed in `bytes`, checked, handing each field to `f`;
/// on bytes a [`RowWriter`] does not write, what is wrong and where: a
/// [`NO_FIELD`] in a low nibble, or in a high one before the row's end,
/// or a payload cut short or not UTF-8.
fn check_row<'a>(
    bytes: &'a [u8],
    mut f: impl FnMut(Field<'a>),
) -> Result<(), (&'static str, usize)> {
    let mut tags = Tags::new(bytes);
    while let Some(tag) = tags.next_tag() {
        if tag == NO_FIELD {
            return Err(("no field in a low nibble", tags.at - 1));
        }
        let (field, next) =
            field_at(bytes, tags.at, tag).ok_or(("a value cut short or not UTF-8", tags.at))?;
        f(field);
        tags.at = next;
    }
    // The walk ends at the bytes' end, or early at a high `NO_FIELD`,
    // which must close the row.
    if tags.at == bytes.len() {
        Ok(())
    } else {
        Err(("no field before the row's end", tags.at))
    }
}

/// Bytes the frame of a row of `len` packed bytes takes: the length in
/// LEB128, then the row.
#[inline]
pub fn framed_len(len: usize) -> usize {
    leb128_len(len) + len
}

/// Write `row`, already packed, as one framed row at the start of
/// `out`, which holds at least [`framed_len`] of its bytes. Returns the
/// bytes written.
#[inline]
pub fn put_packed_frame(out: &mut [u8], row: RowRef<'_>) -> usize {
    let bytes = row.as_bytes();
    let at = write_leb128(out, bytes.len());
    out[at..at + bytes.len()].copy_from_slice(bytes);
    at + bytes.len()
}

/// Whether `bytes` begin with `row`'s frame, as [`put_packed_frame`]
/// writes it: compared in place, nothing split or decoded.
#[inline]
pub fn starts_with_frame(bytes: &[u8], row: RowRef<'_>) -> bool {
    let row = row.as_bytes();
    let mut len = [0u8; 10];
    let n = write_leb128(&mut len, row.len());
    bytes.len() >= n + row.len() && bytes[..n] == len[..n] && bytes[n..n + row.len()] == *row
}

/// Append `values` to `out` as one framed row: the packed byte length
/// in LEB128, then the packed values.
pub fn put_row(out: &mut Vec<u8>, values: &[Value]) {
    let len = row_len(values);
    let start = out.len();
    out.resize(start + leb128_len(len), 0);
    write_leb128(&mut out[start..], len);
    append_row(out, values);
    debug_assert_eq!(out.len(), start + framed_len(len));
}

/// Where the row framed at `bytes[at..]` lies: its packed bytes run
/// from the first offset to the second, which ends the frame. The one
/// read of a frame's length, behind [`split_frame`] and [`take_row`].
#[inline]
fn frame_at(bytes: &[u8], at: usize) -> Result<(usize, usize), &'static str> {
    let (len, start) = read_leb128(bytes, at).ok_or("bad length")?;
    let end = start.checked_add(len).filter(|&end| end <= bytes.len());
    Ok((start, end.ok_or("length past the bytes")?))
}

/// Bytes the entry frame of a row of `len` packed bytes takes when it
/// shares nothing: the header `LEB128(len << 1)`, then the row. The most
/// a row takes in an entry; one byte more than its disk frame
/// ([`framed_len`]) when `len` is 64–127.
#[inline]
pub fn entry_frame_len(len: usize) -> usize {
    leb128_len(len << 1) + len
}

/// How `row` is framed after `prev` in an entry: the leading bytes it
/// shares with `prev` — none when `prev` is `None` (the entry's first
/// row) or when sharing would cost more than the unshared frame — and
/// the bytes its frame takes.
#[inline]
fn entry_frame(row: &[u8], prev: Option<&[u8]>) -> (usize, usize) {
    let alone = entry_frame_len(row.len());
    let shared = prev.map_or(0, |prev| {
        row.iter().zip(prev).take_while(|(a, b)| a == b).count()
    });
    if shared > 0 {
        let suffix = row.len() - shared;
        let len = leb128_len(suffix << 1 | 1) + leb128_len(shared) + suffix;
        if len <= alone {
            return (shared, len);
        }
    }
    (0, alone)
}

/// Bytes `row`'s frame takes in an entry after `prev`, the packed bytes
/// of the row before it (`None` for the entry's first row): what
/// [`put_entry_row`] writes.
#[inline]
pub fn entry_row_len(row: RowRef<'_>, prev: Option<RowRef<'_>>) -> usize {
    entry_frame(row.0, prev.map(|p| p.0)).1
}

/// Write `row` front-coded after `prev` (`None` for an entry's first
/// row) at the start of `out`, which holds at least its
/// [`entry_row_len`] bytes; see the [module docs](self). Returns the
/// bytes written.
#[inline]
pub fn put_entry_row(out: &mut [u8], row: RowRef<'_>, prev: Option<RowRef<'_>>) -> usize {
    let (shared, len) = entry_frame(row.0, prev.map(|p| p.0));
    let suffix = &row.0[shared..];
    let mut at = write_leb128(out, suffix.len() << 1 | usize::from(shared > 0));
    if shared > 0 {
        at += write_leb128(&mut out[at..], shared);
    }
    out[at..at + suffix.len()].copy_from_slice(suffix);
    debug_assert_eq!(at + suffix.len(), len);
    len
}

/// Where the entry frame at `bytes[at..]` lies: the leading bytes of
/// the previous row (of `prev` bytes) it keeps, then where its suffix
/// begins and where the frame ends. A frame at offset 0 is an entry's
/// first row. The one read of an entry frame, behind [`Cursor`] and
/// [`check_entry_rows`].
#[inline]
fn entry_frame_at(
    bytes: &[u8],
    at: usize,
    prev: usize,
) -> Result<(usize, usize, usize), &'static str> {
    let (header, mut start) = read_leb128(bytes, at).ok_or("bad length")?;
    let mut shared = 0;
    if header & 1 == 1 {
        if at == 0 {
            return Err("a shared prefix on an entry's first row");
        }
        (shared, start) = read_leb128(bytes, start).ok_or("bad shared length")?;
        if shared > prev {
            return Err("a shared prefix longer than the previous row");
        }
    }
    let end = start
        .checked_add(header >> 1)
        .filter(|&end| end <= bytes.len());
    Ok((shared, start, end.ok_or("a suffix cut short")?))
}

/// A walk over an entry's front-coded rows, each lent as a [`RowRef`]
/// until the next call: a row that shares nothing with the row before
/// it is lent straight from the entry's bytes; a row that shares a
/// prefix is rebuilt in a buffer the caller owns, from the row before —
/// copied there first when that row was lent from the entry. So a row
/// is copied only when it shares, or when the row after it does. The
/// bytes hold only what [`put_entry_row`] wrote; a frame of other bytes
/// panics ([`check_entry_rows`] walks them checked).
pub struct Cursor<'a, 'b> {
    bytes: &'a [u8],
    at: usize,
    /// Where the row before lies in `bytes` when it was lent from there;
    /// `None` when it was rebuilt in `row`.
    lent: Option<(usize, usize)>,
    row: &'b mut Vec<u8>,
}

/// The rows front-coded in `bytes`, lent one at a time; a row that
/// shares a prefix is rebuilt in `row`, whose contents the cursor
/// replaces.
#[inline]
pub fn cursor<'a, 'b>(bytes: &'a [u8], row: &'b mut Vec<u8>) -> Cursor<'a, 'b> {
    row.clear();
    Cursor {
        bytes,
        at: 0,
        lent: None,
        row,
    }
}

impl Cursor<'_, '_> {
    /// The next row, lent until the next call; `None` past the last.
    #[inline]
    pub fn next_row(&mut self) -> Option<RowRef<'_>> {
        if self.at == self.bytes.len() {
            return None;
        }
        let prev = self.lent.map_or(self.row.len(), |(start, end)| end - start);
        let (shared, start, end) =
            entry_frame_at(self.bytes, self.at, prev).expect("a front-coded row");
        self.at = end;
        if shared == 0 {
            self.lent = Some((start, end));
            return Some(RowRef(&self.bytes[start..end]));
        }
        match self.lent.take() {
            Some((prev, _)) => {
                self.row.clear();
                self.row.extend_from_slice(&self.bytes[prev..prev + shared]);
            }
            None => self.row.truncate(shared),
        }
        self.row.extend_from_slice(&self.bytes[start..end]);
        Some(RowRef(self.row.as_slice()))
    }
}

/// Walk the rows front-coded in `bytes`, checked, as bytes read from
/// disk are: returns how many there are, or what is wrong with the
/// first frame that is not what [`put_entry_row`] writes — a shared
/// prefix on the first row, a shared prefix longer than the row before
/// it, a suffix cut short — or whose rebuilt row is not a row a
/// [`RowWriter`] writes.
pub fn check_entry_rows(bytes: &[u8]) -> Result<usize, DecodeError> {
    let (mut row, mut at, mut rows) = (Vec::new(), 0, 0);
    while at < bytes.len() {
        let fail = |what: &str| DecodeError(format!("{what} at entry offset {at}"));
        let (shared, start, end) = entry_frame_at(bytes, at, row.len()).map_err(fail)?;
        row.truncate(shared);
        row.extend_from_slice(&bytes[start..end]);
        check_row(&row, |_| {}).map_err(|(what, _)| fail(what))?;
        (at, rows) = (end, rows + 1);
    }
    Ok(rows)
}

/// The row framed at the start of `bytes`, and the bytes after its
/// frame. The bytes hold what [`put_row`] or [`put_packed_frame`]
/// wrote there; a frame of other bytes panics (bytes read from disk go
/// through [`take_row`]).
#[inline]
pub fn split_frame(bytes: &[u8]) -> (RowRef<'_>, &[u8]) {
    let (start, end) = frame_at(bytes, 0).expect("a framed row");
    (RowRef(&bytes[start..end]), &bytes[end..])
}

/// The row [`put_row`] wrote at the start of `bytes`, checked, and the
/// bytes it took.
pub fn take_row(bytes: &[u8]) -> Result<(Vec<Value>, usize), DecodeError> {
    let fail = |what: &str, at| DecodeError(format!("{what} at row offset {at}"));
    let (start, end) = frame_at(bytes, 0).map_err(|what| fail(what, 0))?;
    let mut values = Vec::new();
    check_row(&bytes[start..end], |field| values.push(field.to_value()))
        .map_err(|(what, at)| fail(what, start + at))?;
    Ok((values, end))
}

impl From<&Tuple> for PackedRow {
    fn from(t: &Tuple) -> Self {
        PackedRow::pack(t.values())
    }
}

/// A row's bytes stand for it: equality and hashing agree.
impl std::borrow::Borrow<[u8]> for PackedRow {
    fn borrow(&self) -> &[u8] {
        &self.0
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
    fn t1_shaped_row_is_15_bytes() {
        // T1's stored fields at their widest: orderkey ≤ 30 000, custkey
        // ≤ 3 000, totalprice < 500 000, the filler, quantity ≤ 50,
        // extendedprice < 100 000, the filler: four tag bytes, the last
        // closing the odd row, and 2 + 2 + 3 + 1 + 3 payload bytes. An
        // empty string is its nibble alone.
        let row = tuple![30_000i64, 3_000i64, 499_999i64, "", 50i64, 99_999i64, ""];
        let packed = PackedRow::from(&row);
        assert_eq!(packed.as_bytes().len(), 4 + 2 + 2 + 3 + 1 + 3);
        assert_eq!(std::mem::size_of::<PackedRow>(), 16);
        assert_eq!(packed.unpack(), row);
    }

    /// Two tags to a byte, the first field's low: a NULL and a one-byte
    /// integer, then a two-byte string and "no field".
    #[test]
    fn tags_pair_in_nibbles() {
        let packed = PackedRow::from(&tuple![Value::Null, 5i64, "ab"]);
        assert_eq!(packed.as_bytes(), [0x10, 5, 0xfd, b'a', b'b']);
        let fields: Vec<(u8, &[u8])> = packed.row().encoded_fields().collect();
        assert_eq!(fields, [(0, &[][..]), (1, &[5][..]), (13, &b"ab"[..])]);
        let even = PackedRow::from(&tuple![Value::Null, 5i64]);
        assert_eq!(even.as_bytes(), [0x10, 5]);
    }

    #[test]
    fn strings_past_3_bytes_take_a_leb128_length() {
        assert_eq!(SHORT_STR_MAX, 3);
        for (n, len) in [
            (0, 1),
            (1, 2),
            (3, 4),
            (4, 6),
            (127, 129),
            (128, 131),
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

    /// Rows front-coded in an entry: each keeps what it does not share
    /// with the row before, a one-byte share is written (it costs what
    /// the unshared frame does), and the cursor lends every row back.
    #[test]
    fn entry_rows_keep_what_they_do_not_share() {
        let rows: Vec<PackedRow> = [
            tuple![30_000i64, 3_000i64, 499_999i64, "", 50i64, 99_999i64, ""],
            tuple![30_000i64, 3_000i64, 499_999i64, "", 7i64, 1_234i64, ""],
            tuple![30_000i64, 3_000i64, 499_999i64, "", 7i64, 1_234i64, ""],
            tuple![300i64, 600i64],
            tuple![""],
        ]
        .iter()
        .map(PackedRow::from)
        .collect();
        let lens: Vec<usize> = (0..rows.len())
            .map(|i| entry_row_len(rows[i].row(), i.checked_sub(1).map(|p| rows[p].row())))
            .collect();
        // Unshared; the order's 9 bytes shared of 14, behind a header
        // and a count (the quantity's tag byte holds the price's width,
        // which differs); all 14 shared; one tag byte shared, 2 + 4 =
        // 1 + 5; no byte shared.
        assert_eq!(lens, [16, 2 + 14 - 9, 2, 6, 2]);
        let mut bytes = vec![0u8; lens.iter().sum()];
        let mut at = 0;
        for (i, row) in rows.iter().enumerate() {
            let prev = i.checked_sub(1).map(|p| rows[p].row());
            at += put_entry_row(&mut bytes[at..], row.row(), prev);
        }
        assert_eq!(at, bytes.len());
        assert_eq!(
            bytes[lens[..3].iter().sum::<usize>()..][..2],
            [4 << 1 | 1, 1]
        );
        assert_eq!(check_entry_rows(&bytes), Ok(rows.len()));
        let mut buf = Vec::new();
        let mut cur = cursor(&bytes, &mut buf);
        for row in &rows {
            assert_eq!(cur.next_row(), Some(row.row()));
        }
        assert_eq!(cur.next_row(), None);
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
