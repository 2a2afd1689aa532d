//! The packed-row codec a view stores its tuples in (`PackedRow`, format
//! 4: a 4-bit tag per value, two to a byte, an odd row closed by the
//! "no field" nibble 15; integers in the bytes their value needs, 8-byte
//! doubles, strings of up to 3 bytes with their length in the tag and
//! longer ones LEB128-length-prefixed; one allocation), over every
//! `Value` shape: `Null` in every column type, every integer width edge
//! (±2^(8w−1) and ±2^(8w−1)−1 for w = 1..=8, `0`, `-1`,
//! `i64::MIN`/`i64::MAX`), `±0.0`, `±∞` and NaN payloads, strings of 0,
//! 1, 2, 3, 4, 12, 13, 127, 128, 244, 245 and 300 bytes and multi-byte
//! UTF-8 across the 12-byte inline edge, in rows of odd and even arity.
//!
//! * Every row round-trips bit for bit, decoded field by field, unpacked
//!   whole, and through a view's stored layout (store, then rebuild). A
//!   double is canonical once it is a `Value`, so `==` is bit for bit.
//! * A row's packed length is a tag byte per two fields plus the sum of
//!   its fields' payloads: 0 for `Null`, w for an integer of w
//!   significant bytes, 8 for a double, the bytes of a string of at most
//!   3 and length + bytes for a longer one.
//! * Every value has one encoding: two packed rows are equal exactly
//!   when their bytes are, exactly when the tuples they were packed from
//!   are, and equal rows hash equal. A decoded field and a value, and the
//!   layout's `holds`, agree with `Value`'s equality. A `-0.0` and any
//!   NaN payload are drawn as raw doubles, so a pair built from `-0.0`
//!   and `0.0`, or from two NaN payloads, is an equal pair.
//! * `estimate_tuple_bytes` (the `At` of PMV004 and the advisor) bounds
//!   what the store charges for any row of a template's types whose
//!   strings are at most `INLINE_CAP` bytes, NULLs included: the row's
//!   unshared entry frame, `LEB128(len << 1)` and then its packed fields,
//!   the most a row takes in an entry.
//! * An entry's rows, front-coded, come back from the cursor byte for
//!   byte and in order, however much of each row repeats the one before,
//!   as from a walk that copies every row out (a row that shares
//!   nothing is lent straight from the entry's bytes; only a row that
//!   shares is rebuilt); each row's frame takes no more than its
//!   unshared frame, the checked walk counts them, and reports a cut
//!   inside any frame or a flipped bit as an error or as rows that walk
//!   again, never a panic.
//! * A counting allocator shows that storing a tuple — projecting an
//!   `Ls'` row and packing it — allocates exactly once; a stored `Tuple`
//!   took two (its values and the `Arc` around them).
//! * The checked decoder, which reads the WAL's and the checkpoint's
//!   rows, reads back exactly what `put_row` wrote, the row's packed
//!   bytes behind their length; every strict prefix is an error;
//!   arbitrary bytes and a one-bit flip in each byte decode to an error
//!   or to values (which write and read again to themselves), never a
//!   panic. Re-framed at its new length, a row with a 15 in a low nibble
//!   or in a high one before its last payload, or cut inside a payload
//!   or after the first field of a pair, is an error.
//! * A row with one field more or fewer is other bytes: an odd row's
//!   closing nibble is no `Null`.
//! * A stored layout's projection of a stored row — stored, key-derived
//!   and fixed fields copied or written by the one row writer — is the
//!   bytes packing the projected values writes: the delta-key index
//!   hashes one against the other.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use pmv_core::verify::estimate_tuple_bytes;
use pmv_core::{BcpDim, BcpKey, PartialViewDef};
use pmv_query::{QueryTemplate, TemplateBuilder};
use pmv_storage::packed::{self, tag_bytes, Field};
use pmv_storage::string::INLINE_CAP;
use pmv_storage::{Column, ColumnType, PackedRow, RowRef, Schema, Tuple, Value};
use proptest::prelude::*;
use proptest::TestRng;

thread_local! {
    // Per thread, so tests running side by side do not see each other.
    // Const-initialised and without a destructor: safe to touch from
    // inside the allocator.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System` (`realloc` and
// `alloc_zeroed` through their default bodies, which call `alloc`); the
// counter is a plain thread-local cell that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations on this thread while `f` ran.
fn counted<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

const TYPES: [ColumnType; 3] = [ColumnType::Int, ColumnType::Double, ColumnType::Str];

/// The integers at the edges of each packed width: for w = 1..=8,
/// ±2^(8w−1) and ±2^(8w−1)−1 (2^63 is out of range and left out), then
/// `0`, `-1`, `i64::MIN` and `i64::MAX`.
fn int_edges() -> Vec<i64> {
    let mut edges = vec![0, -1, i64::MIN, i64::MAX];
    for w in 1..=8u32 {
        let half = 1i128 << (8 * w - 1);
        for x in [half, -half, half - 1, -half - 1] {
            edges.extend(i64::try_from(x).ok());
        }
    }
    edges
}

fn int() -> impl Strategy<Value = i64> {
    let edges = int_edges();
    prop_oneof![
        (0..edges.len()).prop_map(move |i| edges[i]),
        any::<i64>(),
        any::<i16>().prop_map(i64::from),
    ]
}

/// A NaN with the given sign and a non-zero mantissa.
fn nan(negative: bool, mantissa: u64) -> f64 {
    f64::from_bits((u64::from(negative) << 63) | 0x7ff0_0000_0000_0000 | mantissa)
}

fn double() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(0.0),
        Just(-0.0),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
        (any::<bool>(), 1u64..(1 << 52)).prop_map(|(neg, m)| nan(neg, m)),
        any::<f64>(),
    ]
}

/// `é`, `€` and `𝄞` are 2, 3 and 4 bytes.
fn string() -> impl Strategy<Value = String> {
    prop_oneof![
        Just(String::new()),
        Just("a".to_string()),
        Just("ab".to_string()),
        Just("é".to_string()),
        Just("€".to_string()),
        Just("abcd".to_string()),
        Just("a".repeat(12)),
        Just("b".repeat(13)),
        Just("d".repeat(127)),
        Just("e".repeat(128)),
        Just("f".repeat(244)),
        Just("g".repeat(245)),
        Just("c".repeat(300)),
        Just("€".repeat(4)),
        "[azé€𝄞]{0,20}",
        "[a€]{30,60}",
    ]
}

/// A value of column type `ty`, NULL one time in five.
fn value(ty: ColumnType) -> BoxedStrategy<Value> {
    let some = match ty {
        ColumnType::Int => int().prop_map(Value::Int).boxed(),
        ColumnType::Double => double().prop_map(Value::from).boxed(),
        ColumnType::Str => string().prop_map(Value::from).boxed(),
    };
    prop_oneof![1 => Just(Value::Null), 4 => some].boxed()
}

fn column_type() -> impl Strategy<Value = ColumnType> {
    prop_oneof![
        Just(ColumnType::Int),
        Just(ColumnType::Double),
        Just(ColumnType::Str)
    ]
}

/// Rows of up to `max` columns: the column types drawn first, then a
/// value of each.
struct Rows {
    max: usize,
}

impl Strategy for Rows {
    type Value = Vec<Value>;
    fn gen_value(&self, rng: &mut TestRng) -> Vec<Value> {
        let types = proptest::collection::vec(column_type(), 0..self.max).gen_value(rng);
        row_of(&types, rng)
    }
}

fn row_of(types: &[ColumnType], rng: &mut TestRng) -> Vec<Value> {
    types.iter().map(|&ty| value(ty).gen_value(rng)).collect()
}

/// A row and a second one of the same column types (`types`, or up to
/// eight drawn ones), equal to it field by field unless redrawn: equal
/// pairs are common.
struct Pairs {
    types: Option<Vec<ColumnType>>,
}

impl Strategy for Pairs {
    type Value = (Vec<Value>, Vec<Value>);
    fn gen_value(&self, rng: &mut TestRng) -> (Vec<Value>, Vec<Value>) {
        let types = match &self.types {
            Some(types) => types.clone(),
            None => proptest::collection::vec(column_type(), 0..8).gen_value(rng),
        };
        let (a, fresh) = (row_of(&types, rng), row_of(&types, rng));
        let b = a
            .iter()
            .zip(fresh)
            .map(|(x, y)| match (0u8..3).gen_value(rng) {
                0 => y,
                _ => x.clone(),
            })
            .collect();
        (a, b)
    }
}

/// The payload bytes `v` packs to after its tag's nibble, by the
/// codec's rule: for an integer, the smallest w whose signed range
/// −2^(8w−1) ..= 2^(8w−1)−1 holds it.
fn width(v: &Value) -> usize {
    match v {
        Value::Null => 0,
        Value::Int(x) => {
            let fits =
                |w: u32| (-(1i128 << (8 * w - 1))..1i128 << (8 * w - 1)).contains(&(*x as i128));
            (1..=8).find(|&w| fits(w)).expect("8 bytes hold any i64") as usize
        }
        Value::Double(_) => 8,
        Value::Str(s) => match s.as_str().len() {
            n @ 0..=3 => n,
            n @ 4..=127 => 1 + n,
            n @ 128..=16_383 => 2 + n,
            n => 3 + n,
        },
    }
}

/// The bytes a row of `values` packs to: a tag byte per two fields and
/// each field's payload.
fn row_width(values: &[Value]) -> usize {
    tag_bytes(values.len()) + values.iter().map(width).sum::<usize>()
}

fn hash_of(v: &impl Hash) -> u64 {
    let mut h = DefaultHasher::new();
    v.hash(&mut h);
    h.finish()
}

/// `r(a Int, d Double, s Str, f Int)`, selecting `a, d, s` with an
/// equality condition on `f`: `f` is derived from the bcp, the other
/// three are packed.
fn template() -> Arc<QueryTemplate> {
    TemplateBuilder::new("packed")
        .relation(Schema::new(
            "r",
            vec![
                Column::new("a", ColumnType::Int),
                Column::new("d", ColumnType::Double),
                Column::new("s", ColumnType::Str),
                Column::new("f", ColumnType::Int),
            ],
        ))
        .select("r", "a")
        .unwrap()
        .select("r", "d")
        .unwrap()
        .select("r", "s")
        .unwrap()
        .cond_eq("r", "f")
        .unwrap()
        .build()
        .unwrap()
}

proptest! {
    #[test]
    fn every_shape_round_trips_bit_for_bit(values in Rows { max: 10 }) {
        let tuple = Tuple::new(values.clone());
        let (packed, allocations) = counted(|| PackedRow::from(&tuple));
        prop_assert_eq!(allocations, 1, "one allocation per row");
        prop_assert_eq!(packed.as_bytes().len(), row_width(&values));
        let decoded: Vec<Value> = packed.fields().map(Field::to_value).collect();
        prop_assert_eq!(&decoded, &values);
        prop_assert_eq!(packed.unpack(), tuple);
        prop_assert_eq!(packed.fields().count(), values.len());
        // Cloning shares the bytes.
        let (copy, allocations) = counted(|| packed.clone());
        prop_assert_eq!(allocations, 0);
        prop_assert_eq!(copy.as_bytes().as_ptr(), packed.as_bytes().as_ptr());
    }

    #[test]
    fn equality_agrees_with_values((a, b) in Pairs { types: None }) {
        let (ta, tb) = (Tuple::new(a.clone()), Tuple::new(b.clone()));
        let (pa, pb) = (PackedRow::from(&ta), PackedRow::from(&tb));
        let equal = ta == tb;
        prop_assert_eq!(pa == pb, equal);
        prop_assert_eq!(pa.as_bytes() == pb.as_bytes(), equal);
        if equal {
            prop_assert_eq!(hash_of(&pa), hash_of(&pb));
        }
        for (i, (x, y)) in a.iter().zip(&b).enumerate() {
            prop_assert_eq!(pa.field(i) == *y, x == y, "field {}", i);
        }
    }

    #[test]
    fn a_stored_layout_packs_once_and_rebuilds_the_row((a, b) in Pairs {
        types: Some(vec![ColumnType::Int, ColumnType::Double, ColumnType::Str, ColumnType::Int]),
    }) {
        let def = PartialViewDef::all_equality("packed", template()).unwrap();
        let layout = def.layout();
        prop_assert_eq!(layout.stored_arity(), 3);
        let (row, other) = (Tuple::new(a.clone()), Tuple::new(b.clone()));
        let bcp = BcpKey::new(vec![BcpDim::Eq(a[3].clone())]);
        let (stored, allocations) = counted(|| layout.store(&row));
        prop_assert_eq!(allocations, 1, "storing a tuple allocates once");
        let rebuilt = layout.rebuild(stored.row(), &bcp);
        prop_assert_eq!(rebuilt.values(), &a[..]);
        // `holds` compares the stored positions with `Value`'s equality
        // (the rows share the bcp, so `f` is not compared).
        prop_assert!(layout.holds(stored.row(), &row));
        prop_assert_eq!(layout.holds(stored.row(), &other), a[..3] == b[..3]);
    }

    #[test]
    fn ints_take_the_bytes_their_value_needs(
        ints in proptest::collection::vec(int(), 0..10),
    ) {
        let values: Vec<Value> = ints.iter().copied().map(Value::Int).collect();
        let (a, b) = (Tuple::new(values.clone()), Tuple::new(values.clone()));
        let packed = PackedRow::from(&a);
        prop_assert_eq!(packed.as_bytes().len(), row_width(&values));
        for (i, x) in ints.iter().enumerate() {
            prop_assert!(matches!(packed.field(i), Field::Int(y) if y == *x), "field {}", i);
        }
        // One width per value: equal rows are equal bytes.
        let twin = PackedRow::from(&b);
        prop_assert_eq!(packed.as_bytes(), twin.as_bytes());
    }

    #[test]
    fn the_checked_decoder_reads_what_encode_wrote(
        values in Rows { max: 10 },
        noise in proptest::collection::vec(any::<u8>(), 0..48),
    ) {
        let row = PackedRow::pack(&values);
        let mut disk = Vec::new();
        packed::put_row(&mut disk, &values);
        let used = disk.len();
        prop_assert!(disk.ends_with(row.as_bytes()));
        disk.extend_from_slice(&noise);
        prop_assert_eq!(packed::take_row(&disk).unwrap(), (values.clone(), used));
        for cut in 0..used {
            prop_assert!(packed::take_row(&disk[..cut]).is_err(), "prefix {}", cut);
        }
        // One bit flipped in each byte in turn, the bit moving with the
        // byte's offset, and arbitrary bytes.
        let mut damaged = vec![noise.clone()];
        for at in 0..used {
            let mut flipped = disk[..used].to_vec();
            flipped[at] ^= 1 << (at % 8);
            damaged.push(flipped);
        }
        for bytes in &damaged {
            if let Ok((back, n)) = packed::take_row(bytes) {
                prop_assert!(n <= bytes.len());
                let mut again = Vec::new();
                packed::put_row(&mut again, &back);
                prop_assert_eq!(packed::take_row(&again).unwrap(), (back, again.len()));
            }
        }
    }

    #[test]
    fn the_estimate_bounds_the_charge((types, row) in InlineRows) {
        let t = template_of(&types);
        let def = PartialViewDef::all_equality("bound", Arc::clone(&t)).unwrap();
        let stored = def.layout().store(&Tuple::new(row.clone()));
        // The store charges a tuple at most its unshared entry frame: the
        // packed length, shifted past the shared flag, in LEB128, then
        // the packed fields.
        let charge = packed::entry_frame_len(stored.as_bytes().len());
        let estimate = estimate_tuple_bytes(&t);
        prop_assert!(charge <= estimate, "{:?}: {} > {}", row, charge, estimate);
        // The slack is what each field's payload leaves of its estimate —
        // at most 7 B for a non-NULL integer, none for a double; the tag
        // bytes are counted exactly — and the estimate frames the fields
        // at their estimated widths.
        let slack: Vec<usize> = types
            .iter()
            .zip(&row)
            .map(|(ty, v)| match ty {
                ColumnType::Str => 1 + INLINE_CAP - width(v),
                _ => 8 - width(v),
            })
            .collect();
        let fields = stored.as_bytes().len() + slack.iter().sum::<usize>();
        prop_assert_eq!(estimate, packed::entry_frame_len(fields));
        for ((ty, v), slack) in types.iter().zip(&row).zip(slack) {
            match (ty, v) {
                (_, Value::Null) => {}
                (ColumnType::Int, _) => prop_assert!(slack <= 7),
                (ColumnType::Double, _) => prop_assert_eq!(slack, 0),
                (ColumnType::Str, _) => {}
            }
        }
    }
}

proptest! {
    #[test]
    fn the_cursor_rebuilds_front_coded_rows(
        base in proptest::collection::vec(Rows { max: 6 }, 1..4),
        picks in proptest::collection::vec((0usize..4, 0usize..7, Rows { max: 3 }), 0..10),
    ) {
        let rows = sharing_rows(&base, &picks);
        let prev = |i: usize| i.checked_sub(1).map(|p| rows[p].row());
        let mut bytes = Vec::new();
        let mut ends = vec![0];
        for (i, row) in rows.iter().enumerate() {
            let len = packed::entry_row_len(row.row(), prev(i));
            prop_assert!(len <= packed::entry_frame_len(row.as_bytes().len()), "row {}", i);
            let at = bytes.len();
            bytes.resize(at + len, 0);
            prop_assert_eq!(packed::put_entry_row(&mut bytes[at..], row.row(), prev(i)), len);
            ends.push(bytes.len());
        }
        prop_assert_eq!(packed::check_entry_rows(&bytes), Ok(rows.len()));
        let mut buf = Vec::new();
        let mut cursor = packed::cursor(&bytes, &mut buf);
        for row in &rows {
            prop_assert_eq!(cursor.next_row(), Some(row.row()));
        }
        prop_assert_eq!(cursor.next_row(), None);
        // Cut at a frame's end, the walk counts the rows before; inside
        // one — in its header, its count or its suffix — it fails.
        for (n, w) in ends.windows(2).enumerate() {
            prop_assert_eq!(packed::check_entry_rows(&bytes[..w[0]]), Ok(n));
            for cut in [w[0] + 1, w[0] + 2, w[1] - 1].into_iter().filter(|&c| c > w[0] && c < w[1]) {
                prop_assert!(packed::check_entry_rows(&bytes[..cut]).is_err(), "cut {}", cut);
            }
        }
        // A flipped bit in a frame's first bytes or its last: an error,
        // or rows the cursor walks as checked.
        let near = ends.windows(2).flat_map(|w| [w[0], w[0] + 1, w[0] + 2, w[1] - 1]);
        for at in near.filter(|&at| at < bytes.len()) {
            let mut flipped = bytes.clone();
            flipped[at] ^= 1 << (at % 8);
            if let Ok(n) = packed::check_entry_rows(&flipped) {
                let mut cursor = packed::cursor(&flipped, &mut buf);
                let mut walked = 0;
                while let Some(row) = cursor.next_row() {
                    prop_assert!(row.fields().count() <= 2 * row.as_bytes().len());
                    walked += 1;
                }
                prop_assert_eq!(walked, n);
            }
        }
    }
}

proptest! {
    /// The cursor lends a row whose frame shares nothing straight from
    /// the entry's bytes, rebuilds in its buffer only a row that shares,
    /// and walks the same rows as a walk that copies every row out.
    #[test]
    fn the_lending_walk_matches_the_copying_walk(
        base in proptest::collection::vec(Rows { max: 6 }, 1..4),
        picks in proptest::collection::vec((0usize..4, 0usize..7, Rows { max: 3 }), 0..10),
    ) {
        let rows = sharing_rows(&base, &picks);
        let mut bytes = Vec::new();
        for (i, row) in rows.iter().enumerate() {
            let prev = i.checked_sub(1).map(|p| rows[p].row());
            let at = bytes.len();
            bytes.resize(at + packed::entry_row_len(row.row(), prev), 0);
            packed::put_entry_row(&mut bytes[at..], row.row(), prev);
        }
        let copied = copying_walk(&bytes);
        prop_assert_eq!(copied.len(), rows.len());
        let span = bytes.as_ptr_range();
        let mut buf = Vec::new();
        let mut cursor = packed::cursor(&bytes, &mut buf);
        for (i, (want, shares)) in copied.iter().enumerate() {
            let row = cursor.next_row().expect("as many rows as the copying walk");
            prop_assert_eq!(row.as_bytes(), &want[..], "row {}", i);
            prop_assert_eq!(row, rows[i].row());
            let at = row.as_bytes().as_ptr();
            let lent = span.start <= at && at <= span.end;
            prop_assert_eq!(lent, !shares, "row {} lent: {}", i, lent);
        }
        prop_assert_eq!(cursor.next_row(), None);
    }
}

/// Each row a base row cut short and given a new tail, so rows share
/// prefixes of every length, whole rows included.
fn sharing_rows(base: &[Vec<Value>], picks: &[(usize, usize, Vec<Value>)]) -> Vec<PackedRow> {
    picks
        .iter()
        .map(|(b, cut, tail)| {
            let b = &base[b % base.len()];
            let values: Vec<Value> = b[..*cut.min(&b.len())]
                .iter()
                .chain(tail)
                .cloned()
                .collect();
            PackedRow::pack(&values)
        })
        .collect()
}

/// The rows front-coded in `bytes`, each rebuilt by copying — its shared
/// prefix from the row before, then its suffix — into a buffer, as the
/// cursor once rebuilt every row; each with whether its frame shares.
fn copying_walk(bytes: &[u8]) -> Vec<(Vec<u8>, bool)> {
    fn leb128(bytes: &[u8], at: &mut usize) -> usize {
        let (mut n, mut shift) = (0, 0);
        loop {
            let b = bytes[*at];
            *at += 1;
            n |= usize::from(b & 0x7f) << shift;
            if b < 0x80 {
                return n;
            }
            shift += 7;
        }
    }
    let (mut at, mut row, mut out) = (0, Vec::new(), Vec::new());
    while at < bytes.len() {
        let header = leb128(bytes, &mut at);
        let shared = if header & 1 == 1 {
            leb128(bytes, &mut at)
        } else {
            0
        };
        row.truncate(shared);
        row.extend_from_slice(&bytes[at..at + (header >> 1)]);
        at += header >> 1;
        out.push((row.clone(), shared > 0));
    }
    out
}

/// Strings of at most `INLINE_CAP` bytes: `é`, `€` and `𝄞` are 2, 3 and
/// 4 bytes.
fn inline_string() -> impl Strategy<Value = String> {
    prop_oneof![Just("a".repeat(INLINE_CAP)), "[azé€𝄞]{0,3}"]
}

/// Column types (one to six) and a row of them, NULL one time in five,
/// strings at most `INLINE_CAP` bytes long, then the equality column.
struct InlineRows;

impl Strategy for InlineRows {
    type Value = (Vec<ColumnType>, Vec<Value>);
    fn gen_value(&self, rng: &mut TestRng) -> (Vec<ColumnType>, Vec<Value>) {
        let types = proptest::collection::vec(column_type(), 1..7).gen_value(rng);
        let row = types
            .iter()
            .map(|&ty| match ty {
                ColumnType::Str => prop_oneof![
                    1 => Just(Value::Null),
                    4 => inline_string().prop_map(Value::from),
                ]
                .gen_value(rng),
                other => value(other).gen_value(rng),
            })
            .chain([Value::Int(1)])
            .collect();
        (types, row)
    }
}

/// `r(c0 .. cn, f Int)` selecting every `ci`, equality on `f`: each
/// `ci` is stored.
fn template_of(types: &[ColumnType]) -> Arc<QueryTemplate> {
    let columns = types
        .iter()
        .enumerate()
        .map(|(i, &ty)| Column::new(format!("c{i}"), ty))
        .chain([Column::new("f", ColumnType::Int)])
        .collect();
    let mut b = TemplateBuilder::new("bound").relation(Schema::new("r", columns));
    for i in 0..types.len() {
        b = b.select("r", &format!("c{i}")).unwrap();
    }
    b.cond_eq("r", "f").unwrap().build().unwrap()
}

/// NULL in every column type packs to one tag byte — its nibble and the
/// "no field" that closes the odd row — and decodes as NULL.
#[test]
fn null_in_every_column_type() {
    for ty in TYPES {
        assert!(ty.admits(&Value::Null));
        let packed = PackedRow::from(&Tuple::new(vec![Value::Null]));
        assert_eq!(packed.as_bytes().len(), 1, "{ty:?}");
        assert!(matches!(packed.field(0), Field::Null));
        assert!(packed.field(0) == Value::Null);
    }
}

/// The edges named above, once each, with their exact widths as a row
/// of one field: its tag byte and its payload.
#[test]
fn edge_values_have_their_widths() {
    let mut cases: Vec<(Value, usize)> = vec![
        (Value::Int(0), 2),
        (Value::Int(-1), 2),
        (Value::Int(i64::MIN), 9),
        (Value::Int(i64::MAX), 9),
        (Value::from(-0.0), 9),
        (Value::from(1.0), 9),
        (Value::from(f64::NEG_INFINITY), 9),
        (Value::from(nan(true, 1)), 9),
        (Value::str(""), 1),
        (Value::str("a"), 2),
        (Value::str("abc"), 4),
        (Value::str("€"), 4),
        (Value::str("abcd"), 6),
        (Value::str("a".repeat(12)), 14),
        (Value::str("a".repeat(13)), 15),
        (Value::str("a".repeat(127)), 129),
        (Value::str("a".repeat(128)), 131),
        (Value::str("a".repeat(244)), 247),
        (Value::str("a".repeat(245)), 248),
        (Value::str("c".repeat(300)), 303),
        (Value::str("c".repeat(16_383)), 16_386),
        (Value::str("c".repeat(16_384)), 16_388),
        (Value::str("𝄞é"), 8),
    ];
    // An integer takes 1 + w bytes from -2^(8w-1) to 2^(8w-1) - 1.
    for w in 1..=8u32 {
        let half = 1i128 << (8 * w - 1);
        for x in [-half, half - 1] {
            cases.push((Value::Int(x as i64), 1 + w as usize));
        }
        if w < 8 {
            cases.push((Value::Int(half as i64), 2 + w as usize));
            cases.push((Value::Int((-half - 1) as i64), 2 + w as usize));
        }
    }
    for (v, w) in cases {
        let packed = PackedRow::from(&Tuple::new(vec![v.clone()]));
        assert_eq!(packed.as_bytes().len(), w, "{v:?}");
        assert_eq!(packed.field(0).to_value(), v);
    }
}

/// `row` framed as on disk: its length in LEB128, then its bytes.
fn framed(row: &[u8]) -> Vec<u8> {
    let mut out = vec![0u8; packed::framed_len(row.len())];
    packed::put_packed_frame(&mut out, RowRef::new(row));
    out
}

/// Where each tag byte of `row` lies, and each field's payload.
fn layout_of(row: &PackedRow) -> (Vec<usize>, Vec<std::ops::Range<usize>>) {
    let (mut tags, mut payloads, mut at) = (Vec::new(), Vec::new(), 0);
    for (i, (_, payload)) in row.row().encoded_fields().enumerate() {
        if i % 2 == 0 {
            tags.push(at);
            at += 1;
        }
        payloads.push(at..at + payload.len());
        at += payload.len();
    }
    assert_eq!(at, row.as_bytes().len());
    (tags, payloads)
}

proptest! {
    /// A row of each parity round-trips, and a row with one field more
    /// — a NULL too — is other bytes: the closing nibble of an odd row
    /// names no field.
    #[test]
    fn odd_and_even_rows_round_trip_and_differ(
        values in Rows { max: 9 },
        extra in value(ColumnType::Str),
    ) {
        let longer: Vec<Value> = values.iter().cloned().chain([extra]).collect();
        for (row, other) in [(&values, &longer), (&longer, &values)] {
            let (packed_row, packed_other) = (PackedRow::pack(row), PackedRow::pack(other));
            prop_assert_eq!(packed_row.as_bytes().len(), row_width(row));
            prop_assert_eq!(&packed_row.unpack().values().to_vec(), row);
            let mut disk = Vec::new();
            packed::put_row(&mut disk, row);
            prop_assert_eq!(packed::take_row(&disk).unwrap(), (row.clone(), disk.len()));
            prop_assert_ne!(packed_row.as_bytes(), packed_other.as_bytes());
            let (tags, _) = layout_of(&packed_row);
            if let (1, Some(&last)) = (row.len() % 2, tags.last()) {
                prop_assert_eq!(packed_row.as_bytes()[last] >> 4, packed::NO_FIELD);
            }
        }
    }

    /// The checked decoder refuses, never panics on, a row — re-framed
    /// at its new length — with a 15 in a tag byte's low nibble, a 15 in
    /// a high nibble with payload bytes after it, a cut inside a payload,
    /// or a cut after a pair's first field whose second has a payload.
    #[test]
    fn misplaced_no_field_and_cut_rows_are_errors(values in Rows { max: 9 }) {
        let row = PackedRow::pack(&values);
        let bytes = row.as_bytes();
        let (tags, payloads) = layout_of(&row);
        let refused = |b: &[u8]| packed::take_row(&framed(b)).is_err();
        for &t in &tags {
            let mut low = bytes.to_vec();
            low[t] |= packed::NO_FIELD;
            prop_assert!(refused(&low), "15 in the low nibble at {}", t);
            // The pair's first payload ends where the high nibble's field
            // would begin: a 15 there is an error unless the row ends.
            let first = payloads[tags.iter().position(|&x| x == t).unwrap() * 2].end;
            if first < bytes.len() {
                let mut high = bytes.to_vec();
                high[t] |= packed::NO_FIELD << 4;
                prop_assert!(refused(&high), "15 in the high nibble at {}", t);
            }
        }
        for (i, p) in payloads.iter().enumerate() {
            for cut in p.start + 1..p.end {
                prop_assert!(refused(&bytes[..cut]), "field {} cut at {}", i, cut);
            }
            // Cut after a pair's first field: the second has bytes to lose.
            if i % 2 == 0 && payloads.get(i + 1).is_some_and(|q| !q.is_empty()) {
                prop_assert!(refused(&bytes[..p.end]), "pair cut after field {}", i);
            }
        }
        prop_assert_eq!(packed::take_row(&framed(bytes)).unwrap().0, values);
    }
}

/// `r(a Int, d Double, s Str, g Str, f Int)` selecting `a, d, s, g` with
/// `g` fixed to a 5-byte string and an equality condition on `f`: `a`,
/// `d` and `s` are stored, `g` is the template's, `f` the bcp's.
fn template_with_fixed() -> Arc<QueryTemplate> {
    TemplateBuilder::new("projected")
        .relation(Schema::new(
            "r",
            vec![
                Column::new("a", ColumnType::Int),
                Column::new("d", ColumnType::Double),
                Column::new("s", ColumnType::Str),
                Column::new("g", ColumnType::Str),
                Column::new("f", ColumnType::Int),
            ],
        ))
        .select("r", "a")
        .unwrap()
        .select("r", "d")
        .unwrap()
        .select("r", "s")
        .unwrap()
        .select("r", "g")
        .unwrap()
        .fixed("r", "g", "fixed")
        .unwrap()
        .cond_eq("r", "f")
        .unwrap()
        .build()
        .unwrap()
}

proptest! {
    /// `StoredLayout::project` of a stored row — any positions, in any
    /// order, repeated — is the bytes packing the projected values of
    /// the row it stands for writes: what the delta-key index's hash of
    /// a cached tuple's projection and of a base tuple's rely on.
    #[test]
    fn project_equals_packing_the_projected_values(
        (a, _) in Pairs {
            types: Some(vec![ColumnType::Int, ColumnType::Double, ColumnType::Str, ColumnType::Int]),
        },
        picks in proptest::collection::vec(0usize..16, 0..7),
    ) {
        let def = PartialViewDef::all_equality("projected", template_with_fixed()).unwrap();
        let layout = def.layout();
        let arity = layout.arity();
        let row: Vec<Value> = def
            .template()
            .expanded_list()
            .iter()
            .map(|attr| match attr.column {
                0 => a[0].clone(),
                1 => a[1].clone(),
                2 => a[2].clone(),
                3 => Value::str("fixed"),
                _ => a[3].clone(),
            })
            .collect();
        let bcp = BcpKey::new(vec![BcpDim::Eq(a[3].clone())]);
        let stored = layout.store(&Tuple::new(row.clone()));
        let positions: Vec<usize> = picks.iter().map(|p| p % arity).collect();
        let mut out = vec![0xaa];
        layout.project(stored.row(), &bcp, &positions, &mut out);
        let want = PackedRow::pack(positions.iter().map(|&p| &row[p]));
        prop_assert_eq!(&out[1..], want.as_bytes(), "positions {:?}", positions);
        prop_assert_eq!(out[0], 0xaa);
    }
}
