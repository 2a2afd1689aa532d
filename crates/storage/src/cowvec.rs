//! A paged, structurally shared vector: the slot array of a
//! [`HeapRelation`](crate::HeapRelation).
//!
//! Elements live in fixed pages of [`PAGE`] behind `Arc`; pages are
//! reached through a spine of chunks of [`FANOUT`] pages, each chunk
//! behind `Arc` too. `Clone` therefore copies one pointer per
//! `PAGE * FANOUT` elements and shares everything else with the
//! original; the first write to an element after a clone copies the one
//! chunk and the one page on the path to it (`Arc::make_mut`), and
//! dropping a clone frees only the chunks and pages no other version
//! still points to. Reads pay two more dependent loads than a flat `Vec`.
//!
//! The sizes are constants, not options: a page is the unit a one-row
//! write copies (64 slots ≈ 1 KiB of slot headers plus its tuples), and
//! two levels of 64 put a 120 k-row relation behind a 30-pointer spine.

use std::sync::Arc;

use crate::size::HeapSize;

/// Elements per page.
const PAGE: usize = 64;
/// Pages per spine chunk.
const FANOUT: usize = 64;

type Page<T> = Arc<[T; PAGE]>;
/// Pages fill a chunk from the front; `None` only past the last page.
type Chunk<T> = Arc<[Option<Page<T>>; FANOUT]>;

/// Growable vector with O(len / (PAGE * FANOUT)) clone and
/// copy-on-write element access. Slots of the last page past `len`
/// hold `T::default()`.
#[derive(Clone, Debug)]
pub(crate) struct CowVec<T> {
    spine: Vec<Chunk<T>>,
    len: usize,
}

impl<T: Clone + Default> CowVec<T> {
    pub(crate) fn new() -> Self {
        CowVec {
            spine: Vec::new(),
            len: 0,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    pub(crate) fn get(&self, idx: usize) -> Option<&T> {
        if idx >= self.len {
            return None;
        }
        let page = self.spine[idx / (PAGE * FANOUT)][idx / PAGE % FANOUT].as_ref()?;
        Some(&page[idx % PAGE])
    }

    /// Mutable access to element `idx`, un-sharing the chunk and the
    /// page that hold it first if another version still points to them.
    pub(crate) fn get_mut(&mut self, idx: usize) -> Option<&mut T> {
        if idx >= self.len {
            return None;
        }
        let chunk = Arc::make_mut(&mut self.spine[idx / (PAGE * FANOUT)]);
        let page = Arc::make_mut(chunk[idx / PAGE % FANOUT].as_mut()?);
        Some(&mut page[idx % PAGE])
    }

    /// Grow to `new_len` elements, the new ones `T::default()`. Never
    /// shrinks.
    pub(crate) fn grow(&mut self, new_len: usize) {
        let have = self.len.div_ceil(PAGE);
        for p in have..new_len.div_ceil(PAGE) {
            if p % FANOUT == 0 {
                self.spine.push(Arc::new(std::array::from_fn(|_| None)));
            }
            let chunk = Arc::make_mut(&mut self.spine[p / FANOUT]);
            chunk[p % FANOUT] = Some(Arc::new(std::array::from_fn(|_| T::default())));
        }
        self.len = self.len.max(new_len);
    }

    pub(crate) fn push(&mut self, value: T) {
        let idx = self.len;
        self.grow(idx + 1);
        *self.get_mut(idx).expect("slot just grown") = value;
    }

    /// Elements in index order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &T> {
        self.pages().flat_map(|p| p.iter()).take(self.len)
    }

    fn pages(&self) -> impl Iterator<Item = &[T; PAGE]> {
        self.spine
            .iter()
            .flat_map(|chunk| chunk.iter().map_while(|p| p.as_deref()))
    }
}

impl<T: Clone + Default + HeapSize> HeapSize for CowVec<T> {
    /// Spine, chunks and pages (with their `Arc` headers) plus what the
    /// elements own, counted as if nothing were shared.
    fn heap_size(&self) -> usize {
        use std::mem::size_of;
        let arc_header = 2 * size_of::<usize>();
        self.spine.capacity() * size_of::<Chunk<T>>()
            + self.spine.len() * (arc_header + size_of::<[Option<Page<T>>; FANOUT]>())
            + self
                .pages()
                .map(|p| arc_header + size_of::<[T; PAGE]>() + p.heap_size())
                .sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_get_iter_across_page_and_chunk_boundaries() {
        let mut v = CowVec::new();
        let n = PAGE * FANOUT + PAGE + 3;
        for i in 0..n {
            v.push(i as u64);
        }
        assert_eq!(v.len(), n);
        assert_eq!(v.get(n), None);
        for i in [0, PAGE - 1, PAGE, PAGE * FANOUT - 1, PAGE * FANOUT, n - 1] {
            assert_eq!(v.get(i), Some(&(i as u64)));
        }
        assert!(v.iter().copied().eq(0..n as u64));
    }

    #[test]
    fn grow_fills_with_default_and_never_shrinks() {
        let mut v: CowVec<u64> = CowVec::new();
        v.grow(PAGE * FANOUT * 2 + 1);
        assert_eq!(v.len(), PAGE * FANOUT * 2 + 1);
        assert!(v.iter().all(|&x| x == 0));
        v.grow(5);
        assert_eq!(v.len(), PAGE * FANOUT * 2 + 1);
    }

    #[test]
    fn a_write_unshares_one_chunk_and_one_page() {
        let mut v = CowVec::new();
        for i in 0..(PAGE * FANOUT * 3) as u64 {
            v.push(i);
        }
        let snap = v.clone();
        let idx = PAGE * FANOUT + PAGE * 2 + 5;
        *v.get_mut(idx).unwrap() = 0;
        assert_eq!(snap.get(idx), Some(&(idx as u64)));
        assert_eq!(v.get(idx), Some(&0));
        for c in 0..3 {
            assert_eq!(Arc::ptr_eq(&v.spine[c], &snap.spine[c]), c != 1);
        }
        for p in 0..FANOUT {
            let (a, b) = (&v.spine[1][p], &snap.spine[1][p]);
            let shared = Arc::ptr_eq(a.as_ref().unwrap(), b.as_ref().unwrap());
            assert_eq!(shared, p != 2);
        }
        // A second write to the same page copies nothing more.
        let page = Arc::as_ptr(v.spine[1][2].as_ref().unwrap());
        *v.get_mut(idx + 1).unwrap() = 0;
        assert_eq!(Arc::as_ptr(v.spine[1][2].as_ref().unwrap()), page);
    }

    #[test]
    fn heap_size_counts_pages_and_spine() {
        let mut v: CowVec<u64> = CowVec::new();
        assert_eq!(v.heap_size(), 0);
        v.push(1);
        let one_page = v.heap_size();
        assert!(one_page >= PAGE * 8 + FANOUT * 8);
        v.grow(PAGE + 1);
        assert_eq!(v.heap_size(), one_page + 16 + PAGE * 8);
    }
}
