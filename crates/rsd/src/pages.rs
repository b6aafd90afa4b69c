//! Page arithmetic: mapping element sections onto the page-granular
//! consistency units of the DSM.
//!
//! `Validate` works in pages. A `DIRECT` descriptor's section expands to
//! the pages its bytes occupy ([`pages_of_section`], returned as a
//! [`PageSet`]). An `INDIRECT` descriptor's page set is not built here:
//! `Read_indices` marks each indirection target in its own bitmap over
//! the data region's pages and drains it in ascending order.

/// An ordered, duplicate-free set of page numbers: a sorted `Vec`.
///
/// Inserts may arrive in any order; [`PageSet::finish`] sorts and
/// deduplicates. The section-to-pages path inserts ascending, so its
/// `finish` finds the buffer already sorted.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PageSet {
    pages: Vec<u32>,
}

impl PageSet {
    pub fn new() -> Self {
        PageSet::default()
    }

    pub fn with_capacity(n: usize) -> Self {
        PageSet {
            pages: Vec::with_capacity(n),
        }
    }

    /// Insert a page; a repeat of the last page is skipped, other
    /// duplicates and disorder wait for [`PageSet::finish`].
    #[inline]
    pub fn insert(&mut self, page: u32) {
        if self.pages.last() != Some(&page) {
            self.pages.push(page);
        }
    }

    /// Canonicalize (sort + dedup). Must be called after the last
    /// `insert`.
    pub fn finish(&mut self) {
        self.pages.sort_unstable();
        self.pages.dedup();
    }

    pub fn len(&self) -> usize {
        self.pages.len()
    }

    pub fn is_empty(&self) -> bool {
        self.pages.is_empty()
    }

    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.pages.iter().copied()
    }

    pub fn as_slice(&self) -> &[u32] {
        &self.pages
    }
}

/// Pages covered by the byte range `[base, base+len)`.
pub fn pages_of_bytes(base: usize, len: usize, page_size: usize) -> std::ops::Range<u32> {
    if len == 0 {
        return 0..0;
    }
    let first = (base / page_size) as u32;
    let last = ((base + len - 1) / page_size) as u32;
    first..last + 1
}

/// Pages touched by a 1-D element section over an array starting at byte
/// offset `base`, with `elem` bytes per element. `lo..=hi : stride` are
/// *zero-based element indices* (callers translate Fortran 1-based bounds).
pub fn pages_of_section(
    base: usize,
    elem: usize,
    lo: i64,
    hi: i64,
    stride: i64,
    page_size: usize,
) -> PageSet {
    let mut set = PageSet::new();
    if hi < lo {
        return set;
    }
    // Last element actually reached (hi need not lie on the stride grid).
    let last = lo + ((hi - lo) / stride) * stride;
    if stride == 1 || (stride as usize * elem) < page_size {
        // Dense enough that every page in the byte span is touched:
        // consecutive elements start < page_size apart, so every page
        // between the first and last element holds at least one.
        let start = base + lo as usize * elem;
        let end = base + last as usize * elem + elem;
        for p in pages_of_bytes(start, end - start, page_size) {
            set.insert(p);
        }
    } else {
        let mut i = lo;
        while i <= hi {
            let b = base + i as usize * elem;
            for p in pages_of_bytes(b, elem, page_size) {
                set.insert(p);
            }
            i += stride;
        }
    }
    set.finish();
    set
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytes_to_pages() {
        assert_eq!(pages_of_bytes(0, 4096, 4096), 0..1);
        assert_eq!(pages_of_bytes(0, 4097, 4096), 0..2);
        assert_eq!(pages_of_bytes(4095, 2, 4096), 0..2);
        assert_eq!(pages_of_bytes(8192, 0, 4096), 0..0);
    }

    #[test]
    fn dense_section_pages() {
        // 1000 f64s starting at byte 100: bytes 100..8100 → pages 0..2
        let s = pages_of_section(100, 8, 0, 999, 1, 4096);
        assert_eq!(s.as_slice(), &[0, 1]);
    }

    #[test]
    fn strided_section_skips_pages() {
        // every 1024th f64 (8 KB apart) touches every other page
        let s = pages_of_section(0, 8, 0, 4096, 1024, 4096);
        assert_eq!(s.as_slice(), &[0, 2, 4, 6, 8]);
    }

    #[test]
    fn element_spanning_two_pages() {
        // a 16-byte element straddling a boundary contributes both pages
        let s = pages_of_section(4088, 16, 0, 0, 1, 4096);
        assert_eq!(s.as_slice(), &[0, 1]);
    }

    #[test]
    fn pageset_dedup_and_order() {
        let mut s = PageSet::new();
        for p in [5u32, 5, 3, 9, 3, 1] {
            s.insert(p);
        }
        s.finish();
        assert_eq!(s.as_slice(), &[1, 3, 5, 9]);
    }

    #[test]
    fn finish_is_idempotent() {
        let mut s = PageSet::new();
        for p in [9u32, 2, 9, 5, 2] {
            s.insert(p);
        }
        s.finish();
        s.finish();
        assert_eq!(s.as_slice(), &[2, 5, 9]);
    }

    #[test]
    fn empty_section() {
        let s = pages_of_section(0, 8, 5, 4, 1, 4096);
        assert!(s.is_empty());
    }
}
