//! Page arithmetic: mapping element sections and index sets onto the
//! page-granular consistency units of the DSM.
//!
//! `Validate` ultimately works in pages: a `DIRECT` descriptor's section
//! expands to the pages its bytes occupy; an `INDIRECT` descriptor's page
//! set is built by `Read_indices` folding each indirection target into a
//! [`PageSet`].

/// An ordered, duplicate-free set of page numbers.
///
/// Page sets in this system are small (hundreds of pages) and are built
/// once per schedule, then iterated many times — a sorted `Vec` beats a
/// hash set for both footprint and iteration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PageSet {
    pages: Vec<u32>,
    sorted: bool,
    /// Last inserted page as an `i64` (−1 = empty): keeps the insert
    /// fast path free of the `Option`/ordering branches a
    /// `pages.last()` check would need.
    last: i64,
}

impl Default for PageSet {
    fn default() -> Self {
        PageSet::new()
    }
}

impl PageSet {
    pub fn new() -> Self {
        PageSet {
            pages: Vec::new(),
            sorted: true,
            last: -1,
        }
    }

    pub fn with_capacity(n: usize) -> Self {
        PageSet {
            pages: Vec::with_capacity(n),
            sorted: true,
            last: -1,
        }
    }

    /// Insert a page; duplicates and disorder are tolerated until
    /// [`PageSet::finish`] (amortizes the common build-then-iterate flow).
    ///
    /// The hot path — tens of thousands of calls per indirection scan —
    /// carries a single, highly predictable conditional (the
    /// consecutive-duplicate skip). The −1 sentinel makes the empty
    /// case fall through it without an `Option` branch, and ordering is
    /// not tracked here at all: `finish()` recovers it with one
    /// early-exit `is_sorted` pass over the final buffer, so the
    /// per-insert comparison chain and the `sorted`-flag store (a
    /// measurable read-modify-write dependency) both disappear from the
    /// loop. The flag store survives only in debug builds, where it
    /// backs the query-before-`finish` assertions.
    #[inline]
    pub fn insert(&mut self, page: u32) {
        let p = page as i64;
        if p != self.last {
            self.pages.push(page);
            self.last = p;
            #[cfg(debug_assertions)]
            {
                self.sorted = false;
            }
        }
    }

    /// Canonicalize (sort + dedup). Must be called after the last
    /// `insert`.
    ///
    /// For the common case — many inserts over a compact page range
    /// (every indirection scan: data arrays span hundreds of pages,
    /// referenced tens of thousands of times) — this is a dense-bitmap
    /// radix pass: O(n + range/64) instead of O(n log n) comparison
    /// sorting, and dedup falls out of the bitmap for free. Sparse sets
    /// (range ≫ inserts, e.g. huge-stride sections) keep the sort path.
    /// Criterion `rsd/pageset_build_10k` (10k inserts over 700 pages):
    /// 105.8 µs sort-based → 31.8 µs bitmap (~10.6 → ~3.2 ns/insert,
    /// the remainder being the `insert` calls themselves).
    ///
    /// The bitmap/sort decision keys on the *distinct* count, not the
    /// insert count: a heavily-duplicated wide-range set (say two pages
    /// a megapage apart, referenced 100k times) used to satisfy
    /// `range <= 64 * inserts` and drain a multi-megabit bitmap for a
    /// handful of survivors. `PageSet::estimate_distinct` bounds the
    /// survivor count with a coarse occupancy probe first, and all
    /// threshold arithmetic saturates so a full-`u32` range cannot wrap
    /// on 32-bit hosts.
    pub fn finish(&mut self) {
        if !self.pages.is_sorted() {
            let (mut min, mut max) = (u32::MAX, 0u32);
            for &p in &self.pages {
                min = min.min(p);
                max = max.max(p);
            }
            let range = ((max - min) as usize).saturating_add(1);
            if bitmap_worthwhile(range, self.estimate_distinct(min, range)) {
                self.bitmap_canonicalize(min, range);
            } else {
                self.pages.sort_unstable();
                self.pages.dedup();
            }
        } else {
            self.pages.dedup();
        }
        self.sorted = true;
        self.last = self.pages.last().map_or(-1, |&p| p as i64);
    }

    /// Upper-bound the distinct count for the bitmap/sort decision.
    ///
    /// Compact ranges (bitmap ≤ 2 KiB) skip the probe — the insert
    /// count is bound enough there, and the probe would cost more than
    /// the worst-case drain it guards against. Wider ranges take one
    /// extra O(n) pass over a *coarse* bitmap (buckets of `1 << shift`
    /// pages, at most 2 KiB again): `occupied << shift` bounds the
    /// distinct count because a bucket holds at most `1 << shift`
    /// values, so a duplicate-heavy stream over a huge range is caught
    /// before `finish` commits to a huge fine-grained bitmap.
    fn estimate_distinct(&self, min: u32, range: usize) -> usize {
        const COARSE_BITS: usize = 16 * 1024;
        if range <= COARSE_BITS {
            return self.pages.len();
        }
        let mut shift = 1u32;
        while (range >> shift) >= COARSE_BITS {
            shift += 1;
        }
        let mut coarse = vec![0u64; ((range - 1) >> shift).div_ceil(64) + 1];
        for &p in &self.pages {
            let i = ((p - min) as usize) >> shift;
            coarse[i >> 6] |= 1 << (i & 63);
        }
        let occupied: usize = coarse.iter().map(|w| w.count_ones() as usize).sum();
        self.pages.len().min(occupied.saturating_mul(1 << shift))
    }

    /// The dense-bitmap radix pass of [`PageSet::finish`]: set one bit
    /// per insert, then drain set bits in ascending order.
    fn bitmap_canonicalize(&mut self, min: u32, range: usize) {
        let mut bits = vec![0u64; range.div_ceil(64)];
        for &p in &self.pages {
            let i = (p - min) as usize;
            bits[i >> 6] |= 1 << (i & 63);
        }
        self.pages.clear();
        for (w, &word) in bits.iter().enumerate() {
            let mut word = word;
            while word != 0 {
                self.pages
                    .push(min + (w as u32) * 64 + word.trailing_zeros());
                word &= word - 1;
            }
        }
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

    pub fn contains(&self, page: u32) -> bool {
        debug_assert!(self.sorted, "finish() before querying");
        self.pages.binary_search(&page).is_ok()
    }

    pub fn as_slice(&self) -> &[u32] {
        &self.pages
    }

    pub fn union(&self, other: &PageSet) -> PageSet {
        debug_assert!(self.sorted && other.sorted);
        let mut out = Vec::with_capacity(self.pages.len() + other.pages.len());
        let (mut i, mut j) = (0, 0);
        while i < self.pages.len() && j < other.pages.len() {
            use std::cmp::Ordering::*;
            match self.pages[i].cmp(&other.pages[j]) {
                Less => {
                    out.push(self.pages[i]);
                    i += 1;
                }
                Greater => {
                    out.push(other.pages[j]);
                    j += 1;
                }
                Equal => {
                    out.push(self.pages[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        out.extend_from_slice(&self.pages[i..]);
        out.extend_from_slice(&other.pages[j..]);
        PageSet {
            last: out.last().map_or(-1, |&p| p as i64),
            pages: out,
            sorted: true,
        }
    }
}

/// Bitmap pays off when the value range is at most 64 bits of bitmap
/// per *distinct* page — i.e. the drain touches no more words than a
/// comparison sort would touch elements. Saturating: `est_distinct` can
/// legitimately be huge and the product must not wrap on 32-bit hosts.
fn bitmap_worthwhile(range: usize, est_distinct: usize) -> bool {
    range <= 64usize.saturating_mul(est_distinct)
}

impl FromIterator<u32> for PageSet {
    fn from_iter<T: IntoIterator<Item = u32>>(iter: T) -> Self {
        let mut s = PageSet::new();
        for p in iter {
            s.insert(p);
        }
        s.finish();
        s
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
        assert!(s.contains(3));
        assert!(!s.contains(4));
    }

    #[test]
    fn bitmap_and_sort_paths_agree() {
        // Compact range → bitmap path; huge stride → sort path. Both
        // must produce the identical canonical form.
        let mut compact = PageSet::new();
        let mut reference: Vec<u32> = Vec::new();
        for k in 0..10_000u32 {
            let p = 100 + (k * 37) % 700;
            compact.insert(p);
            reference.push(p);
        }
        compact.finish();
        reference.sort_unstable();
        reference.dedup();
        assert_eq!(compact.as_slice(), &reference[..]);

        let mut sparse = PageSet::new();
        let mut reference: Vec<u32> = Vec::new();
        for k in (0..8u32).rev() {
            let p = k * 1_000_000;
            sparse.insert(p);
            reference.push(p);
        }
        sparse.finish();
        reference.sort_unstable();
        assert_eq!(sparse.as_slice(), &reference[..]);
        assert!(sparse.contains(3_000_000));
    }

    #[test]
    fn duplicated_wide_range_takes_sort_path() {
        // Regression: 100k inserts alternating between two pages a
        // megapage apart. The old threshold compared the range against
        // 64 × the *insert* count (6.4M ≥ 1M → bitmap), draining a
        // ~15.6k-word bitmap for two survivors. The distinct-aware
        // planner must reject the bitmap here and still canonicalize.
        let mut s = PageSet::new();
        for _ in 0..50_000 {
            s.insert(0);
            s.insert(1_000_000);
        }
        let range = 1_000_001usize;
        assert!(
            !bitmap_worthwhile(range, s.estimate_distinct(0, range)),
            "two coarse buckets over a megapage range must not plan a bitmap"
        );
        s.finish();
        assert_eq!(s.as_slice(), &[0, 1_000_000]);
    }

    #[test]
    fn threshold_saturates_at_full_u32_range() {
        // u32::MAX range with a big estimate: 64 × est would overflow a
        // 32-bit usize; saturating math must answer, not wrap. Also the
        // end-to-end set: extremes plus a dense low cluster.
        assert!(bitmap_worthwhile(u32::MAX as usize, usize::MAX / 32));
        assert!(!bitmap_worthwhile(usize::MAX, 1));
        let mut s = PageSet::new();
        s.insert(u32::MAX);
        for p in (0..1000u32).rev() {
            s.insert(p);
        }
        s.insert(u32::MAX);
        s.finish();
        assert_eq!(s.len(), 1001);
        assert_eq!(s.as_slice()[1000], u32::MAX);
        assert!(s.contains(999));
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
    fn pageset_union() {
        let a: PageSet = [1u32, 3, 5].into_iter().collect();
        let b: PageSet = [2u32, 3, 8].into_iter().collect();
        assert_eq!(a.union(&b).as_slice(), &[1, 2, 3, 5, 8]);
    }

    #[test]
    fn empty_section() {
        let s = pages_of_section(0, 8, 5, 4, 1, 4096);
        assert!(s.is_empty());
    }
}
