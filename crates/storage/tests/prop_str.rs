//! Property tests for [`Str`], the 16-byte string inside [`Value::Str`]:
//! a string of up to 12 bytes is held inline, a longer one on the heap,
//! and nothing a caller can see may depend on which.
//!
//! Strings run 0–40 bytes over a mix of 1-, 2-, 3- and 4-byte characters,
//! so multibyte characters land on, before and across the 12-byte edge.
//! Each must round-trip through `Value::str`, `Value::from(String)` and
//! `as_str`, and `Eq`/`Ord`/`Hash` must agree with `&str`'s across the
//! inline/heap boundary. The WAL codec round trip of the same strings is
//! `pmv-wal`'s `codec_roundtrips_arbitrary_batches` (`prop_wal.rs`, whose
//! value strategy draws them): the codec depends on this crate, so this
//! file cannot call it.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use pmv_storage::string::INLINE_CAP;
use pmv_storage::{HeapSize, Str, Value};
use proptest::prelude::*;

/// Strings of at most 40 bytes; `é`, `€` and `𝄞` are 2, 3 and 4 bytes.
fn string_strategy() -> impl Strategy<Value = String> {
    // Short and long runs, so lengths cluster around the edge as well
    // as past it.
    prop_oneof!["[azé€𝄞]{0,8}", "[azé€𝄞]{0,20}"].prop_map(|s: String| {
        let mut end = s.len().min(40);
        while !s.is_char_boundary(end) {
            end -= 1;
        }
        s[..end].to_string()
    })
}

fn hash_of(v: &(impl Hash + ?Sized)) -> u64 {
    let mut h = DefaultHasher::new();
    v.hash(&mut h);
    h.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn str_roundtrips_and_lays_out_by_length(s in string_strategy()) {
        let borrowed = Value::str(&s);
        let owned = Value::from(s.clone());
        prop_assert_eq!(borrowed.as_str(), Some(s.as_str()));
        prop_assert_eq!(owned.as_str(), Some(s.as_str()));
        prop_assert_eq!(&borrowed, &owned);
        prop_assert_eq!(borrowed.to_string(), format!("'{s}'"));

        // The layout shows through `HeapSize`: an inline string owns no
        // heap, and every heap string is longer than the inline capacity.
        let heap = if s.len() <= INLINE_CAP { 0 } else { s.len() };
        for v in [Str::new(&s), Str::from(s.clone())] {
            prop_assert_eq!(v.heap_size(), heap);
            prop_assert_eq!(v.as_str(), s.as_str());
        }
        prop_assert_eq!(borrowed.heap_size(), heap);
    }

    #[test]
    fn eq_ord_hash_agree_with_str(a in string_strategy(), b in string_strategy()) {
        let (sa, sb) = (Str::new(&a), Str::new(&b));
        prop_assert_eq!(sa == sb, a == b);
        prop_assert_eq!(sa.cmp(&sb), a.cmp(&b));
        prop_assert_eq!(hash_of(&sa), hash_of(a.as_str()));
        prop_assert_eq!(hash_of(&sb), hash_of(b.as_str()));

        let (va, vb) = (Value::str(&a), Value::str(&b));
        prop_assert_eq!(va == vb, a == b);
        prop_assert_eq!(va.cmp(&vb), a.cmp(&b));
        if a == b {
            prop_assert_eq!(hash_of(&va), hash_of(&vb));
        }
    }

    #[test]
    fn growing_across_the_edge_keeps_the_order(
        s in string_strategy(),
        c in "[aé€𝄞]",
    ) {
        // `s` and `s + c` often sit on either side of the edge: the
        // shorter must still sort first and never compare equal.
        let longer = format!("{s}{c}");
        let (short, long) = (Value::str(&s), Value::str(&longer));
        prop_assert!(short < long);
        prop_assert_ne!(&short, &long);
    }
}

#[test]
fn every_character_width_at_the_edge() {
    for c in ['a', 'é', '€', '𝄞'] {
        for prefix in INLINE_CAP.saturating_sub(5)..=INLINE_CAP + 1 {
            let s = format!("{}{c}", "a".repeat(prefix));
            let v = Str::new(&s);
            assert_eq!(v.as_str(), s);
            let heap = if s.len() <= INLINE_CAP { 0 } else { s.len() };
            assert_eq!(v.heap_size(), heap, "{s:?}");
            assert_eq!(v, Str::from(s.clone()));
            assert_eq!(hash_of(&v), hash_of(s.as_str()));
        }
    }
}
