//! Property-based tests of the diff machinery and the interval algebra —
//! the invariants the multiple-writer protocol rests on.

use proptest::prelude::*;

use dsm::{vc_key, Diff, IntervalRec, Payload, DENSE_VC_MAX};

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
        // Never bigger than a whole-page run, never smaller than payload.
        prop_assert!(d.wire_bytes() <= 512 + 4 * d.run_count());
        let payload: usize = (0..128)
            .filter(|w| cur[w * 4..w * 4 + 4] != twin[w * 4..w * 4 + 4])
            .count()
            * 4;
        prop_assert!(d.wire_bytes() >= payload);
    }

    /// The wire representation of an interval clock round-trips at
    /// every cluster size. Barriers are the only acquire, so a closing
    /// interval's clock is the previous barrier's target with the
    /// closer's own component advanced. Small clocks travel dense
    /// (`4 * nprocs` bytes); large clocks travel as that one
    /// `(rank, seq)` pair behind a 4-byte count, and applying the pair
    /// to the receiver-known base recovers the exact clock.
    #[test]
    fn compact_vc_roundtrips_at_all_sizes(
        nprocs in prop::sample::select(vec![3usize, 8, 9, 16, 64]),
        seed in any::<u64>(),
        pages in 0usize..5,
    ) {
        let mut s = seed;
        let mut next = move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (s >> 33) as u32
        };
        let base: Vec<u32> = (0..nprocs).map(|_| next() % 100).collect();
        let me = next() as usize % nprocs;
        let mut vc = base.clone();
        vc[me] += 1;

        let rec = IntervalRec {
            vc: vc.clone().into(),
            pages: (0..pages as u32).collect::<Vec<_>>().into(),
        };
        let (q, seq) = (me, rec.vc[me]);
        let mut decoded = base.clone();
        decoded[q] = seq;
        prop_assert_eq!(&decoded, &vc);
        let clock = if nprocs <= DENSE_VC_MAX { 4 * nprocs } else { 4 + 8 };
        prop_assert_eq!(rec.wire_bytes(), clock + 4 * pages);
        // Never more than the dense clock.
        prop_assert!(rec.wire_bytes() <= 4 * nprocs + 4 * pages);
    }

    /// vc_key is a linear extension of happens-before: if a's vc is
    /// dominated by b's (and b includes its own later increment), a's key
    /// sorts first.
    #[test]
    fn vc_key_respects_dominance(
        base in proptest::collection::vec(0u32..20, 4),
        bumps in proptest::collection::vec(0u32..5, 4),
        p in 0usize..4,
        q in 0usize..4,
    ) {
        let vc_a = base.clone();
        let seq_a = vc_a[p];
        // b saw a and then closed its own interval.
        let mut vc_b: Vec<u32> = base.iter().zip(&bumps).map(|(&v, &d)| v + d).collect();
        vc_b[q] += 1;
        let seq_b = vc_b[q];
        let ka = vc_key(&vc_a, p, seq_a);
        let kb = vc_key(&vc_b, q, seq_b);
        prop_assert!(ka < kb, "{ka:?} !< {kb:?}");
    }
}
