//! The bcp key (`BcpKey`: one packed field per condition — an equality
//! dimension's value in `PackedRow`'s encoding, an interval dimension's
//! id as an `Int` — in a 16-byte byte string, inline up to 12 bytes),
//! over every `Value` shape in an equality dimension: `Null`, the integer
//! width edges and `i64::MIN`/`i64::MAX`, `±0.0`, `±∞` and NaN payloads,
//! strings of 0, 12, 13 and 300 bytes and multi-byte UTF-8, and interval
//! ids up to `u32::MAX`. Each case draws a shape (which dimensions are
//! intervals, as a template fixes it) and keys of that shape.
//!
//! * `BcpKey::new(dims)` reads back, with the shape, as the same dims; its
//!   values are each dimension's value, an interval's id as an `Int`.
//! * Keys are equal exactly when their dims are, exactly when their bytes
//!   are, and equal keys hash equal. A `-0.0` and any NaN payload are
//!   drawn as raw doubles, so `-0.0` and `0.0`, or two NaN payloads, make
//!   equal keys.
//! * A key is as long as its fields packed, inline exactly when that is
//!   at most `INLINE_CAP` bytes; inline it owns no heap and building or
//!   cloning it allocates nothing. A longer key is charged its bytes.
//! * `Ord` is the bytes' order: total, antisymmetric, transitive, and
//!   `Equal` exactly when the keys are equal.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::cmp::Ordering;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use pmv_core::{BcpDim, BcpKey};
use pmv_storage::string::INLINE_CAP;
use pmv_storage::{HeapSize, PackedRow, Value};
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

fn hash_of(v: &impl Hash) -> u64 {
    let mut h = DefaultHasher::new();
    v.hash(&mut h);
    h.finish()
}

/// A NaN with the given sign and a non-zero mantissa.
fn nan(negative: bool, mantissa: u64) -> f64 {
    f64::from_bits((u64::from(negative) << 63) | 0x7ff0_0000_0000_0000 | mantissa)
}

/// Every `Value` shape, its edges drawn often.
fn value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        prop_oneof![
            Just(0i64),
            Just(-1),
            Just(127),
            Just(128),
            Just(-129),
            Just(i64::MIN),
            Just(i64::MAX),
            any::<i64>(),
            any::<i16>().prop_map(i64::from),
        ]
        .prop_map(Value::Int),
        prop_oneof![
            Just(0.0),
            Just(-0.0),
            Just(f64::INFINITY),
            Just(f64::NEG_INFINITY),
            (any::<bool>(), 1u64..(1 << 52)).prop_map(|(neg, m)| nan(neg, m)),
            any::<f64>(),
        ]
        .prop_map(Value::from),
        prop_oneof![
            Just(String::new()),
            Just("a".repeat(12)),
            Just("b".repeat(13)),
            Just("c".repeat(300)),
            "[azé€𝄞]{0,8}",
        ]
        .prop_map(Value::str),
    ]
}

fn interval_id() -> impl Strategy<Value = u32> {
    prop_oneof![
        Just(0u32),
        Just(127),
        Just(128),
        Just(65_535),
        Just(u32::MAX),
        0u32..64,
        any::<u32>(),
    ]
}

/// A dimension of the given form.
fn dim(interval: bool, rng: &mut TestRng) -> BcpDim {
    if interval {
        BcpDim::Iv(interval_id().gen_value(rng))
    } else {
        BcpDim::Eq(value().gen_value(rng))
    }
}

/// A shape of 0–4 dimensions (which are intervals) and three keys' dims
/// of it. The second is, a third of the time each, the first, the first
/// with one dimension drawn again, or drawn afresh: equal and nearly
/// equal pairs are common.
struct Keys;

impl Strategy for Keys {
    type Value = (Vec<bool>, [Vec<BcpDim>; 3]);
    fn gen_value(&self, rng: &mut TestRng) -> Self::Value {
        let shape = proptest::collection::vec(any::<bool>(), 0..5).gen_value(rng);
        let mut dims = || -> Vec<BcpDim> { shape.iter().map(|&iv| dim(iv, rng)).collect() };
        let (a, fresh, c) = (dims(), dims(), dims());
        let b = match (0u8..3).gen_value(rng) {
            0 => a.clone(),
            1 if !shape.is_empty() => {
                let mut b = a.clone();
                let at = (0..shape.len()).gen_value(rng);
                b[at] = fresh[at].clone();
                b
            }
            _ => fresh,
        };
        (shape, [a, b, c])
    }
}

/// What one dimension packs to: its value, or its id as an `Int`.
fn field(d: &BcpDim) -> Value {
    match d {
        BcpDim::Eq(v) => v.clone(),
        BcpDim::Iv(id) => Value::Int(i64::from(*id)),
    }
}

/// The invariants of one key built from `dims` of `shape`.
fn check_one(shape: &[bool], dims: &[BcpDim]) -> Result<BcpKey, TestCaseError> {
    let (key, built) = counted(|| BcpKey::new(dims));
    prop_assert_eq!(&key.dims(|i| shape[i]), dims, "{:?}", key);
    prop_assert_eq!(key.arity(), dims.len());
    let fields: Vec<Value> = dims.iter().map(field).collect();
    prop_assert_eq!(key.values().collect::<Vec<_>>(), fields.clone());
    let len = PackedRow::pack(&fields).as_bytes().len();
    prop_assert_eq!(key.as_bytes().len(), len);
    prop_assert_eq!(key.is_inline(), len <= INLINE_CAP);
    let (copy, cloned) = counted(|| key.clone());
    prop_assert_eq!(&copy, &key);
    if key.is_inline() {
        prop_assert_eq!(key.heap_size(), 0);
        prop_assert_eq!((built, cloned), (0, 0), "an inline key allocates nothing");
    } else {
        prop_assert_eq!(key.heap_size(), len);
        prop_assert_eq!(cloned, 0, "a clone shares the bytes");
    }
    Ok(key)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn keys_round_trip_compare_and_order_as_their_bytes((shape, [a, b, c]) in Keys) {
        let keys = [
            check_one(&shape, &a)?,
            check_one(&shape, &b)?,
            check_one(&shape, &c)?,
        ];
        let dims = [&a, &b, &c];
        for (i, x) in keys.iter().enumerate() {
            for (j, y) in keys.iter().enumerate() {
                let same = dims[i] == dims[j];
                prop_assert_eq!(x == y, same, "{:?} vs {:?}", x, y);
                prop_assert_eq!(x.as_bytes() == y.as_bytes(), same);
                if same {
                    prop_assert_eq!(hash_of(x), hash_of(y));
                }
                let order = x.cmp(y);
                prop_assert_eq!(order, x.as_bytes().cmp(y.as_bytes()));
                prop_assert_eq!(order == Ordering::Equal, same);
                prop_assert_eq!(order, y.cmp(x).reverse());
                prop_assert_eq!(x.partial_cmp(y), Some(order));
            }
        }
        for x in &keys {
            for y in &keys {
                for z in &keys {
                    if x <= y && y <= z {
                        prop_assert!(x <= z, "{:?} <= {:?} <= {:?}", x, y, z);
                    }
                }
            }
        }
    }
}

/// Each edge alone in an equality dimension, and beside an interval id:
/// the same invariants, and the width the key takes.
#[test]
fn edge_values_make_keys_of_their_width() {
    for (v, width) in [
        (Value::Null, 1),
        (Value::Int(0), 2),
        (Value::Int(i64::MIN), 9),
        (Value::Int(i64::MAX), 9),
        (Value::from(0.0), 9),
        (Value::from(-0.0), 9),
        (Value::from(f64::NAN), 9),
        (Value::from(nan(true, 1)), 9),
        (Value::str(""), 1),
        (Value::str("a".repeat(12)), 14),
        (Value::str("b".repeat(13)), 15),
        (Value::str("c".repeat(300)), 303),
    ] {
        for shape in [vec![false], vec![false, true]] {
            let mut dims = vec![BcpDim::Eq(v.clone())];
            if shape.len() == 2 {
                dims.push(BcpDim::Iv(u32::MAX));
            }
            let key = check_one(&shape, &dims).unwrap();
            // `u32::MAX` takes 5 bytes as a signed number, its tag the
            // high nibble of the first field's tag byte.
            let want = width + if shape.len() == 2 { 5 } else { 0 };
            assert_eq!(key.as_bytes().len(), want, "{v:?} in {shape:?}");
        }
    }
    let zero = |x: f64| BcpKey::new(vec![BcpDim::Eq(Value::from(x))]);
    assert_eq!(zero(-0.0), zero(0.0));
    assert_eq!(zero(nan(true, 1)), zero(f64::NAN));
    assert_eq!(hash_of(&zero(-0.0)), hash_of(&zero(0.0)));
}
