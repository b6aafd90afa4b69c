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

/// Plain-old-data element types storable in shared memory.
///
/// Elements are fixed-size and encoded little-endian, so pages are just
/// byte arrays and diffs are representation-level — the same property the
/// real system gets from raw memory.
pub trait Pod: Copy + Send + Sync + 'static {
    /// Encoded size in bytes.
    const SIZE: usize;
    /// Encode `self` little-endian into the first `SIZE` bytes of `dst`.
    fn store(self, dst: &mut [u8]);
    /// Decode a value from the first `SIZE` bytes of `src`.
    fn load(src: &[u8]) -> Self;
}

macro_rules! impl_pod {
    ($($t:ty),*) => {$(
        impl Pod for $t {
            const SIZE: usize = std::mem::size_of::<$t>();
            #[inline(always)]
            fn store(self, dst: &mut [u8]) {
                dst[..Self::SIZE].copy_from_slice(&self.to_le_bytes());
            }
            #[inline(always)]
            fn load(src: &[u8]) -> Self {
                <$t>::from_le_bytes(src[..Self::SIZE].try_into().unwrap())
            }
        }
    )*};
}

impl_pod!(f64, f32, i64, u64, i32, u32);

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

    /// Page holding element `i`.
    #[inline]
    pub fn page_of(&self, i: usize, page_size: usize) -> u32 {
        (self.byte_at(i) / page_size) as u32
    }

    /// All pages this region occupies.
    pub fn pages(&self, page_size: usize) -> std::ops::Range<u32> {
        rsd::pages_of_bytes(self.base, self.len * T::SIZE, page_size)
    }

    /// Pages occupied by elements `lo..hi` (half-open).
    pub fn pages_of_range(&self, lo: usize, hi: usize, page_size: usize) -> std::ops::Range<u32> {
        debug_assert!(lo <= hi && hi <= self.len);
        rsd::pages_of_bytes(self.base + lo * T::SIZE, (hi - lo) * T::SIZE, page_size)
    }

    /// A sub-slice of `n` elements starting at `off`.
    pub fn slice(&self, off: usize, n: usize) -> SharedSlice<T> {
        assert!(off + n <= self.len, "sub-slice out of bounds");
        SharedSlice::new(self.base + off * T::SIZE, n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pod_roundtrip() {
        let mut buf = [0u8; 8];
        3.25f64.store(&mut buf);
        assert_eq!(f64::load(&buf), 3.25);
        let mut b4 = [0u8; 4];
        (-7i32).store(&mut b4);
        assert_eq!(i32::load(&b4), -7);
    }

    #[test]
    fn byte_and_page_math() {
        let s: SharedSlice<f64> = SharedSlice::new(8192, 1024); // pages 2..4
        assert_eq!(s.byte_at(0), 8192);
        assert_eq!(s.byte_at(512), 8192 + 4096);
        assert_eq!(s.pages(4096), 2..4);
        assert_eq!(s.page_of(0, 4096), 2);
        assert_eq!(s.page_of(512, 4096), 3);
        assert_eq!(s.pages_of_range(0, 512, 4096), 2..3);
        assert_eq!(s.pages_of_range(0, 513, 4096), 2..4);
        assert_eq!(s.pages_of_range(0, 0, 4096), 0..0);
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
