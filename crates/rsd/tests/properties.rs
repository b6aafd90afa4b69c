//! Property-based tests for regular sections and their page arithmetic —
//! what the compiler's symbolic sections evaluate to and what `Validate`'s
//! page computation rests on.

use proptest::prelude::*;
use rsd::{pages_of_bytes, pages_of_section, Affine, Dim, Env, PageSet, SymDim, SymRsd};

fn dim_strategy() -> impl Strategy<Value = Dim> {
    (-100i64..100, 0i64..200, 1i64..12).prop_map(|(lo, len, stride)| Dim::new(lo, lo + len, stride))
}

proptest! {
    #[test]
    fn dim_len_matches_iteration(d in dim_strategy()) {
        // A naive walk of the progression lo, lo + stride, ... <= hi.
        let walk: Vec<i64> = std::iter::successors(Some(d.lo), |&v| Some(v + d.stride))
            .take_while(|&v| v <= d.hi)
            .collect();
        prop_assert_eq!(d.len(), walk.len());
        prop_assert_eq!(d.is_empty(), walk.is_empty());
        prop_assert_eq!(d.last(), walk.last().copied());
    }

    #[test]
    fn pages_of_section_covers_every_element(
        base_pages in 0usize..4,
        lo in 0i64..500,
        len in 0i64..300,
        stride in 1i64..20,
        elem in prop::sample::select(vec![4usize, 8, 16, 24]),
    ) {
        let page = 256usize;
        let base = base_pages * page;
        let hi = lo + len;
        let set = pages_of_section(base, elem, lo, hi, stride, page);
        prop_assert!(set.as_slice().windows(2).all(|w| w[0] < w[1]), "not ascending");
        // Every element's bytes are inside pages of the set.
        let mut i = lo;
        while i <= hi {
            let b = base + i as usize * elem;
            for pg in pages_of_bytes(b, elem, page) {
                prop_assert!(
                    set.as_slice().binary_search(&pg).is_ok(),
                    "elem {i} page {pg} missing"
                );
            }
            i += stride;
        }
        // No page in the set is untouched by any element.
        for pg in set.iter() {
            let ps = pg as usize * page;
            let pe = ps + page;
            let mut touched = false;
            let mut i = lo;
            while i <= hi {
                let b = base + i as usize * elem;
                if b < pe && b + elem > ps {
                    touched = true;
                    break;
                }
                i += stride;
            }
            prop_assert!(touched, "page {pg} in set but untouched");
        }
    }

    #[test]
    fn pageset_equals_btreeset(pages in proptest::collection::vec(0u32..500, 0..200)) {
        let mut ps = PageSet::new();
        for &p in &pages {
            ps.insert(p);
        }
        ps.finish();
        let reference: std::collections::BTreeSet<u32> = pages.iter().copied().collect();
        prop_assert_eq!(ps.iter().collect::<Vec<_>>(),
                        reference.into_iter().collect::<Vec<_>>());
    }

    #[test]
    fn affine_eval_is_linear(c0 in -50i64..50, c1 in -50i64..50, x in -100i64..100, y in -100i64..100) {
        // (c0·a + c1·b)(x, y) == c0·x + c1·y
        let e = Affine::sym("a").scale(c0).add(&Affine::sym("b").scale(c1));
        let env = Env::new().bind("a", x).bind("b", y);
        prop_assert_eq!(e.eval(&env), Some(c0 * x + c1 * y));
    }

    #[test]
    fn sym_rsd_eval_matches_concrete(lo in 0i64..50, len in 0i64..50, stride in 1i64..5, bind in 0i64..100) {
        let sym = SymRsd::new(vec![SymDim {
            lo: Affine::constant(lo),
            hi: Affine::sym("n").offset(len),
            stride,
        }]);
        let env = Env::new().bind("n", bind);
        let conc = sym.eval(&env).unwrap();
        prop_assert_eq!(conc.dims[0], Dim::new(lo, bind + len, stride));
    }
}

proptest! {
    /// `PageSet` canonicalization (sort + dedup) equals the `BTreeSet`
    /// oracle of its insert stream: compact and (`wide`) sparse page
    /// ranges, and (at 800 repetitions) a long duplicate-heavy fill.
    #[test]
    fn pageset_build_matches_the_btreeset_oracle(
        base in proptest::collection::vec(0u32..5_000, 1..200),
        reps in prop::sample::select(vec![1usize, 1, 2, 800]),
        wide in prop::sample::select(vec![false, true]),
    ) {
        let stream: Vec<u32> = std::iter::repeat_n(&base, reps)
            .flatten()
            .map(|&p| if wide { p.wrapping_mul(50_000) } else { p })
            .collect();
        let mut s = PageSet::new();
        for &p in &stream {
            s.insert(p);
        }
        s.finish();
        let oracle: Vec<u32> = stream
            .iter()
            .copied()
            .collect::<std::collections::BTreeSet<u32>>()
            .into_iter()
            .collect();
        prop_assert_eq!(s.as_slice(), &oracle[..]);
    }
}
