//! Property-based tests of the diff machinery — the invariants the
//! multiple-writer protocol rests on.

use proptest::prelude::*;

use dsm::{Diff, Payload};

/// A page mutation: (word-aligned offset, new bytes).
fn mutations(page: usize) -> impl Strategy<Value = Vec<(usize, u8)>> {
    proptest::collection::vec((0..page / 4, any::<u8>()), 0..40)
        .prop_map(|v| v.into_iter().map(|(w, b)| (w * 4, b)).collect())
}

proptest! {
    #[test]
    fn diff_roundtrip(muts in mutations(512)) {
        let twin = vec![7u8; 512];
        let mut cur = twin.clone();
        for &(off, b) in &muts {
            cur[off] = b;
        }
        let d = Diff::create(&twin, &cur);
        let mut dst = twin.clone();
        d.apply(&mut dst);
        prop_assert_eq!(dst, cur);
    }

    #[test]
    fn diff_empty_iff_equal(muts in mutations(256)) {
        let twin = vec![0u8; 256];
        let mut cur = twin.clone();
        for &(off, b) in &muts {
            cur[off] = b;
        }
        let d = Diff::create(&twin, &cur);
        prop_assert_eq!(d.is_empty(), twin == cur);
    }

    #[test]
    fn diff_never_touches_unmodified_words(muts in mutations(256)) {
        let twin: Vec<u8> = (0..256).map(|i| i as u8).collect();
        let mut cur = twin.clone();
        for &(off, b) in &muts {
            cur[off] = b;
        }
        let d = Diff::create(&twin, &cur);
        // Apply onto a DIFFERENT base: untouched words of that base must
        // survive (this is what makes concurrent disjoint diffs mergeable).
        let base = vec![0xEEu8; 256];
        let mut dst = base.clone();
        d.apply(&mut dst);
        for w in 0..64 {
            let range = w * 4..w * 4 + 4;
            let modified = cur[range.clone()] != twin[range.clone()];
            if !modified {
                prop_assert_eq!(&dst[range.clone()], &base[range.clone()],
                    "word {} clobbered", w);
            }
        }
    }

    #[test]
    fn disjoint_concurrent_diffs_commute(
        a_muts in mutations(256),
        b_muts in mutations(256),
    ) {
        // Force disjointness: a gets even words, b gets odd words.
        let twin = vec![0u8; 256];
        let (mut a, mut b) = (twin.clone(), twin.clone());
        for &(off, v) in &a_muts {
            let w = off / 4;
            if w % 2 == 0 { a[off] = v; }
        }
        for &(off, v) in &b_muts {
            let w = off / 4;
            if w % 2 == 1 { b[off] = v; }
        }
        let da = Diff::create(&twin, &a);
        let db = Diff::create(&twin, &b);
        let mut ab = twin.clone();
        da.apply(&mut ab);
        db.apply(&mut ab);
        let mut ba = twin.clone();
        db.apply(&mut ba);
        da.apply(&mut ba);
        prop_assert_eq!(ab, ba);
    }

    #[test]
    fn full_payload_wire_accounting(content in proptest::collection::vec(any::<u8>(), 64)) {
        let p = Payload::Full(content.clone().into_boxed_slice());
        prop_assert_eq!(p.wire_bytes(), 64 + 8);
        let mut dst = vec![0u8; 64];
        p.apply(&mut dst);
        prop_assert_eq!(dst, content);
    }

    #[test]
    fn diff_wire_bytes_bounded(muts in mutations(512)) {
        let twin = vec![0u8; 512];
        let mut cur = twin.clone();
        for &(off, b) in &muts {
            cur[off] = b;
        }
        let d = Diff::create(&twin, &cur);
        // Exactly the modified words plus one 4-byte header per maximal
        // run of them: never bigger than a whole-page run, never smaller
        // than the payload.
        let modified: Vec<bool> = (0..128)
            .map(|w| cur[w * 4..w * 4 + 4] != twin[w * 4..w * 4 + 4])
            .collect();
        let payload = 4 * modified.iter().filter(|&&m| m).count();
        let runs = (0..128)
            .filter(|&w| modified[w] && (w == 0 || !modified[w - 1]))
            .count();
        prop_assert_eq!(d.wire_bytes(), payload + 4 * runs);
    }
}
