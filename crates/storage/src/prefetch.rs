//! Software prefetch: the one place the workspace tells the CPU about a
//! load before it needs the data.
//!
//! The executor's misses are independent across the rows of one batch
//! (64 heap slots, 64 B-tree leaves, a few hundred tuple bodies), so they
//! can be in flight together instead of queuing one behind the other —
//! group prefetching (Chen, Ailamaki, Gibbons, Mowry, ICDE 2004). A safe
//! "touch load" in place of the hint stalls on each miss in turn and was
//! measured at about half the gain.

/// Cache-line size assumed when a span is prefetched line by line.
const LINE: usize = 64;

/// Hint that the `bytes` bytes at `p` are about to be read. Never reads
/// or writes memory the program can observe; `p` need not be valid.
/// A no-op off x86_64.
#[inline(always)]
pub fn prefetch_read<T>(p: *const T, bytes: usize) {
    let p = p.cast::<i8>();
    // First byte of every line the span touches; `wrapping_*` because the
    // pointer may be dangling (an empty slice) and is never dereferenced.
    let first = p.wrapping_sub(p as usize % LINE);
    let lines = (p as usize % LINE + bytes.max(1)).div_ceil(LINE);
    for i in 0..lines {
        let line = first.wrapping_add(i * LINE);
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `prefetcht0` is a hint. It performs no architectural
        // memory access, cannot fault on any address (mapped or not,
        // aligned or not) and changes no program-visible state, so there
        // is no requirement on `line` to uphold; SSE, which provides it,
        // is part of the x86_64 baseline.
        unsafe {
            use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
            _mm_prefetch::<_MM_HINT_T0>(line);
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = line;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn any_pointer_and_length_is_accepted() {
        let v = vec![0u64; 100];
        prefetch_read(v.as_ptr(), 800);
        prefetch_read(v.as_ptr(), 0);
        prefetch_read(Vec::<u64>::new().as_ptr(), 0);
        prefetch_read(std::ptr::null::<u8>(), 4096);
        prefetch_read(usize::MAX as *const u8, 128);
        assert_eq!(v.iter().sum::<u64>(), 0);
    }
}
