//! Heap footprint accounting.
//!
//! The paper bounds each PMV by a storage budget `UB` ("the person who
//! defines V_PM specifies an upper bound UB for the size of V_PM",
//! Section 3.2). To enforce that bound we need every cached structure to
//! report how many bytes it occupies. [`HeapSize`] reports bytes owned
//! *outside* the value itself.

/// Bytes owned on the heap by a value (excluding `size_of::<Self>()`).
pub trait HeapSize {
    /// Heap bytes reachable from (and owned by) `self`.
    fn heap_size(&self) -> usize;
}

impl<T: HeapSize> HeapSize for [T] {
    fn heap_size(&self) -> usize {
        self.iter().map(HeapSize::heap_size).sum()
    }
}

impl<T: HeapSize> HeapSize for Vec<T> {
    fn heap_size(&self) -> usize {
        self.capacity() * std::mem::size_of::<T>() + self.as_slice().heap_size()
    }
}

impl<T: HeapSize> HeapSize for Box<[T]> {
    fn heap_size(&self) -> usize {
        self.len() * std::mem::size_of::<T>() + (**self).heap_size()
    }
}

impl<T: HeapSize> HeapSize for Option<T> {
    fn heap_size(&self) -> usize {
        self.as_ref().map_or(0, HeapSize::heap_size)
    }
}

impl HeapSize for String {
    fn heap_size(&self) -> usize {
        self.capacity()
    }
}

macro_rules! impl_heapsize_zero {
    ($($t:ty),* $(,)?) => {
        $(impl HeapSize for $t {
            fn heap_size(&self) -> usize { 0 }
        })*
    };
}

impl_heapsize_zero!(
    u8,
    u16,
    u32,
    u64,
    usize,
    i8,
    i16,
    i32,
    i64,
    isize,
    f32,
    f64,
    bool,
    char,
    ()
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_have_zero_heap() {
        assert_eq!(42u64.heap_size(), 0);
    }

    #[test]
    fn vec_charges_capacity() {
        let v: Vec<u64> = Vec::with_capacity(10);
        assert_eq!(v.heap_size(), 80);
    }

    #[test]
    fn boxed_slice_charges_len() {
        let b: Box<[u32]> = vec![1, 2, 3].into_boxed_slice();
        assert_eq!(b.heap_size(), 12);
    }

    #[test]
    fn nested_vec_recurses() {
        let v: Vec<Vec<u8>> = vec![Vec::with_capacity(4), Vec::with_capacity(8)];
        // outer capacity (2 * 24 on 64-bit) + inner capacities (4 + 8)
        assert_eq!(v.heap_size(), 2 * std::mem::size_of::<Vec<u8>>() + 12);
    }

    #[test]
    fn option_none_is_free() {
        let n: Option<String> = None;
        assert_eq!(n.heap_size(), 0);
        let s: Option<String> = Some(String::with_capacity(16));
        assert_eq!(s.heap_size(), 16);
    }
}
