//! The shared heap: typed, page-aligned regions of the global shared
//! address space.
//!
//! TreadMarks programs allocate shared memory with `Tmk_malloc` and share
//! the returned pointer. Here [`Cluster::alloc`](crate::Cluster::alloc)
//! plays that role: it hands out a [`SharedSlice<T>`] — a *descriptor*
//! (base byte offset + length), not a pointer. Every access goes through
//! the accessors on [`TmkProc`](crate::TmkProc), which implement the
//! software MMU. A `SharedSlice` is `Copy` and can be captured by the
//! SPMD closure for all processors, exactly like a shared pointer.

use std::marker::PhantomData;
use std::ops::Range;

use simnet::Pod;

/// A typed region of shared memory: `len` elements of `T` starting at
/// byte `base` of the global shared address space.
#[derive(Debug)]
pub struct SharedSlice<T> {
    base: usize,
    len: usize,
    _t: PhantomData<fn() -> T>,
}

impl<T> Clone for SharedSlice<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SharedSlice<T> {}

impl<T: Pod> SharedSlice<T> {
    pub(crate) fn new(base: usize, len: usize) -> Self {
        SharedSlice {
            base,
            len,
            _t: PhantomData,
        }
    }

    /// Number of elements in the region.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Does the region hold zero elements?
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Global byte offset of element `i`. Panics, in every build, if
    /// `i` is past the end: the byte would belong to the next region.
    #[inline]
    pub fn byte_at(&self, i: usize) -> usize {
        assert!(
            i < self.len,
            "shared-memory index {i} out of bounds for a region of {} elements",
            self.len
        );
        self.base + i * T::SIZE
    }

    /// Global byte offset where the region starts (page-aligned).
    #[inline]
    pub fn base_byte(&self) -> usize {
        self.base
    }

    /// All pages this region occupies.
    pub fn pages(&self, page_size: usize) -> std::ops::Range<u32> {
        rsd::pages_of_bytes(self.base, self.len * T::SIZE, page_size)
    }

    /// The *page runs* of elements `r`: its maximal sub-ranges that lie
    /// on one page each, in order. Panics, in every build, if `r` reaches
    /// past the end of the region.
    pub fn page_runs(&self, r: Range<usize>, page_size: usize) -> PageRuns {
        assert!(
            r.start <= r.end && r.end <= self.len,
            "shared-memory range {}..{} out of bounds for a region of {} elements",
            r.start,
            r.end,
            self.len
        );
        debug_assert!(page_size.is_power_of_two());
        PageRuns {
            next: r.start,
            end: r.end,
            base: self.base,
            size: T::SIZE,
            mask: page_size - 1,
        }
    }

    /// A sub-slice of `n` elements starting at `off`.
    pub fn slice(&self, off: usize, n: usize) -> SharedSlice<T> {
        assert!(off + n <= self.len, "sub-slice out of bounds");
        SharedSlice::new(self.base + off * T::SIZE, n)
    }
}

/// The page runs of a range of a [`SharedSlice`]
/// ([`SharedSlice::page_runs`]).
#[derive(Debug, Clone)]
pub struct PageRuns {
    next: usize,
    end: usize,
    base: usize,
    size: usize,
    /// `page_size - 1`.
    mask: usize,
}

impl Iterator for PageRuns {
    type Item = Range<usize>;

    #[inline]
    fn next(&mut self) -> Option<Range<usize>> {
        if self.next >= self.end {
            return None;
        }
        let lo = self.next;
        let byte = self.base + lo * self.size;
        let to_next_page = (byte | self.mask) + 1 - byte;
        self.next = (lo + to_next_page.div_ceil(self.size)).min(self.end);
        Some(lo..self.next)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_and_page_math() {
        let s: SharedSlice<f64> = SharedSlice::new(8192, 1024); // pages 2..4
        assert_eq!(s.byte_at(0), 8192);
        assert_eq!(s.byte_at(512), 8192 + 4096);
        assert_eq!(s.pages(4096), 2..4);
        assert_eq!(s.slice(0, 512).pages(4096), 2..3);
        assert_eq!(s.slice(0, 513).pages(4096), 2..4);
        assert_eq!(s.slice(0, 0).pages(4096), 0..0);
    }

    #[test]
    fn page_runs_split_at_page_boundaries() {
        let s: SharedSlice<f64> = SharedSlice::new(8192, 1024); // pages 2..4
        let runs = |lo, hi| s.page_runs(lo..hi, 4096).collect::<Vec<_>>();
        assert_eq!(runs(0, 1024), [0..512, 512..1024]);
        assert_eq!(runs(500, 600), [500..512, 512..600]);
        assert_eq!(runs(511, 513), [511..512, 512..513]);
        assert!(runs(7, 7).is_empty());
        let sub = s.slice(10, 1000);
        assert_eq!(
            sub.page_runs(0..1000, 4096).collect::<Vec<_>>(),
            [0..502, 502..1000]
        );
    }

    #[test]
    #[should_panic(
        expected = "shared-memory range 3..11 out of bounds for a region of 10 elements"
    )]
    fn page_runs_are_bounds_checked() {
        let s: SharedSlice<i32> = SharedSlice::new(0, 10);
        let _ = s.page_runs(3..11, 64);
    }

    #[test]
    fn subslice() {
        let s: SharedSlice<f64> = SharedSlice::new(0, 100);
        let sub = s.slice(10, 20);
        assert_eq!(sub.len(), 20);
        assert_eq!(sub.byte_at(0), 80);
    }

    /// A region that fills its pages exactly ends where the next one
    /// starts, so an index one past the end would read (and a write
    /// corrupt, then publish) the next region's first element. Checked
    /// in release builds too.
    #[test]
    #[should_panic(expected = "shared-memory index 512 out of bounds for a region of 512 elements")]
    fn an_index_past_the_end_panics_instead_of_reaching_the_next_region() {
        let cl = crate::Cluster::new(crate::DsmConfig::with_nprocs(1));
        let x = cl.alloc::<f64>(512); // exactly one 4 KiB page
        let next = cl.alloc::<f64>(1);
        assert_eq!(x.base_byte() + 512 * 8, next.base_byte());
        cl.run(|p| {
            p.write(&next, 0, 7.0);
            p.read(&x, x.len())
        });
    }

    #[test]
    #[should_panic(expected = "sub-slice out of bounds")]
    fn subslice_bounds_checked() {
        let s: SharedSlice<f64> = SharedSlice::new(0, 10);
        let _ = s.slice(5, 6);
    }
}
