//! Diffs: run-length encodings of page modifications.
//!
//! A diff is produced by comparing a page word-by-word against its twin
//! (the pristine copy saved at the first write of the interval) and
//! collecting the modified runs. Applying a diff copies the runs into a
//! destination page. Two concurrent writers that touch disjoint words
//! produce diffs that can be applied in either order — the heart of the
//! multiple-writer protocol.

/// Comparison granularity in bytes. TreadMarks diffed 4-byte words, and
/// so do we: concurrent writers to *adjacent 4-byte elements* (e.g. two
/// processors writing neighbouring `i32` entries of a shared index
/// array) must produce disjoint diffs, or one writer's stale half-word
/// would clobber the other's update when the diffs merge.
pub const DIFF_WORD: usize = 4;

/// Wire-format overhead per diff run (offset + length), and per payload
/// (page id + interval id), counted toward the "Data" column.
const RUN_HEADER: usize = 4;
const PAYLOAD_HEADER: usize = 8;

/// One page's modifications relative to its twin: two buffers however
/// many runs, not a box per run. The byte buffer is exactly sized — a
/// diff stays in the record store until the GC folds it.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Diff {
    /// `(byte offset within page, byte length)`, offsets ascending,
    /// runs non-adjacent (maximally coalesced).
    runs: Vec<(u32, u32)>,
    /// The runs' modified bytes, back to back in run order.
    bytes: Box<[u8]>,
}

impl Diff {
    /// Compare `current` against `twin` and encode the modified runs.
    /// Both slices must be the same length, a multiple of [`DIFF_WORD`].
    pub fn create(twin: &[u8], current: &[u8]) -> Diff {
        assert_eq!(twin.len(), current.len());
        assert_eq!(current.len() % DIFF_WORD, 0);
        // One pass, two words per compare; `open` starts the current run.
        let (mut runs, mut open, mut len) = (Vec::new(), None, 0);
        let mut word = |at: usize, differs: bool| match (differs, open) {
            (true, None) => open = Some(at),
            (false, Some(start)) => {
                runs.push((start as u32, (at - start) as u32));
                len += at - start;
                open = None;
            }
            _ => {}
        };
        let pairs = twin.len() / 8 * 8;
        let le = |b: &[u8]| u64::from_le_bytes(b.try_into().expect("an 8-byte chunk"));
        let blocks = twin[..pairs]
            .chunks_exact(8)
            .zip(current[..pairs].chunks_exact(8));
        for (b, (t, c)) in blocks.enumerate() {
            let x = le(t) ^ le(c);
            word(8 * b, x as u32 != 0);
            word(8 * b + 4, x >> 32 != 0);
        }
        if pairs < twin.len() {
            word(pairs, twin[pairs..] != current[pairs..]);
        }
        word(twin.len(), false);
        let mut bytes = Vec::with_capacity(len);
        for &(off, n) in &runs {
            bytes.extend_from_slice(&current[off as usize..][..n as usize]);
        }
        Diff {
            runs,
            bytes: bytes.into_boxed_slice(),
        }
    }

    /// Copy the modified runs into `dst` (a page-sized buffer).
    pub fn apply(&self, dst: &mut [u8]) {
        let mut src = &self.bytes[..];
        for &(off, len) in self.runs.iter() {
            let (run, rest) = src.split_at(len as usize);
            dst[off as usize..][..run.len()].copy_from_slice(run);
            src = rest;
        }
    }

    /// No word differed between page and twin.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// Bytes this diff occupies on the wire (runs + per-run headers).
    pub fn wire_bytes(&self) -> usize {
        self.bytes.len() + RUN_HEADER * self.runs.len()
    }
}

/// What an interval publishes for one dirtied page.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Payload {
    /// Ordinary multiple-writer result: the diff against the twin.
    Diff(Diff),
    /// The page was written in its entirety (`WRITE_ALL` /
    /// `READ&WRITE_ALL` descriptors — paper §3.2): no twin was kept and
    /// the whole page is shipped. Because a full snapshot subsumes every
    /// earlier modification, a fetch that ends in a `Full` needs nothing
    /// older — the mechanism behind the paper's moldyn data reduction.
    Full(Box<[u8]>),
}

impl Payload {
    /// Bytes this payload occupies on the wire (header included).
    pub fn wire_bytes(&self) -> usize {
        PAYLOAD_HEADER
            + match self {
                Payload::Diff(d) => d.wire_bytes(),
                Payload::Full(p) => p.len(),
            }
    }

    /// Apply the modification to `dst` (a page-sized buffer).
    pub fn apply(&self, dst: &mut [u8]) {
        match self {
            Payload::Diff(d) => d.apply(dst),
            Payload::Full(p) => dst.copy_from_slice(p),
        }
    }

    /// A full snapshot makes everything before it redundant.
    pub fn is_full(&self) -> bool {
        matches!(self, Payload::Full(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn page(n: usize) -> Vec<u8> {
        vec![0u8; n]
    }

    #[test]
    fn empty_diff_for_identical_pages() {
        let a = page(128);
        let d = Diff::create(&a, &a);
        assert!(d.is_empty());
        assert_eq!(d.wire_bytes(), 0);
        assert!(d.bytes.is_empty());
    }

    #[test]
    fn roundtrip_single_word() {
        let twin = page(128);
        let mut cur = page(128);
        cur[40..48].copy_from_slice(&7.5f64.to_le_bytes());
        let d = Diff::create(&twin, &cur);
        assert_eq!(d.runs.len(), 1);
        let mut dst = twin.clone();
        d.apply(&mut dst);
        assert_eq!(dst, cur);
    }

    #[test]
    fn coalesces_adjacent_words() {
        let twin = page(256);
        let mut cur = page(256);
        for b in &mut cur[32..72] {
            *b = 0xAB; // ten adjacent modified words, one run
        }
        cur[160] = 0xCD; // one separate word
        let d = Diff::create(&twin, &cur);
        assert_eq!(d.runs.len(), 2);
        assert_eq!(d.wire_bytes(), (40 + 4) + (4 + 4));
        // Exactly the runs' bytes, no slack: a diff stays resident in the
        // store until folded, so slack would be `peak_rss_mb`.
        assert_eq!(d.bytes.len(), 40 + 4);
        // A trailing half block (12 bytes) is compared as one word.
        let mut tail = page(12);
        (tail[7], tail[10]) = (1, 2);
        assert_eq!(Diff::create(&page(12), &tail).runs, [(4, 8)]);
    }

    #[test]
    fn disjoint_diffs_commute() {
        let twin = page(128);
        let mut a = twin.clone();
        let mut b = twin.clone();
        a[0..8].copy_from_slice(&1.0f64.to_le_bytes());
        b[64..72].copy_from_slice(&2.0f64.to_le_bytes());
        let da = Diff::create(&twin, &a);
        let db = Diff::create(&twin, &b);

        let mut ab = twin.clone();
        da.apply(&mut ab);
        db.apply(&mut ab);
        let mut ba = twin.clone();
        db.apply(&mut ba);
        da.apply(&mut ba);
        assert_eq!(ab, ba);
        assert_eq!(&ab[0..8], &1.0f64.to_le_bytes());
        assert_eq!(&ab[64..72], &2.0f64.to_le_bytes());
    }

    #[test]
    fn full_payload_subsumes() {
        let mut p = page(64);
        p[8] = 3;
        let pay = Payload::Full(p.clone().into_boxed_slice());
        assert!(pay.is_full());
        assert_eq!(pay.wire_bytes(), 64 + 8);
        let mut dst = page(64);
        pay.apply(&mut dst);
        assert_eq!(dst, p);
    }

    #[test]
    fn whole_page_modified_is_one_run() {
        let twin = page(4096);
        let cur = vec![0xFFu8; 4096];
        let d = Diff::create(&twin, &cur);
        assert_eq!(d.runs.len(), 1);
        // A whole-page diff costs slightly less than a Full payload only in
        // headers; the paper's WRITE_ALL optimisation is about *how many*
        // of these get shipped, not their individual size.
        assert_eq!(d.wire_bytes(), 4096 + 4);
    }
}
