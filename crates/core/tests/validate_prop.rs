//! Properties of `Read_indices`: the single-walk scan computes exactly
//! the schedule a naive div/mod enumeration into a `BTreeSet` computes —
//! over random shapes, sections, targets, page and element sizes, and
//! rounds of random rewrites of the indirection array that switch the
//! section and the data region under one schedule number — and
//! [`FlatIndices`] is the definitional column-major enumeration.

use std::collections::BTreeSet;

use proptest::prelude::*;
use proptest::TestRng;
use sdsm_core::{
    validate, AccessType, Cluster, Desc, Dim, DsmConfig, FlatIndices, RegionRef, Rsd, ScheduleInfo,
    Validator,
};

/// The definitional enumeration: point `k` of the section, first
/// dimension fastest, decoded by division and remainder.
fn naive_flat(section: &Rsd, shape: &[usize]) -> Vec<usize> {
    let lens: Vec<usize> = section.dims.iter().map(Dim::len).collect();
    let total: usize = lens.iter().product();
    (0..total)
        .map(|mut k| {
            let (mut flat, mut extent) = (0, 1);
            for ((d, &len), &n) in section.dims.iter().zip(&lens).zip(shape) {
                flat += (d.lo as usize - 1 + (k % len) * d.stride as usize) * extent;
                k /= len;
                extent *= n;
            }
            flat
        })
        .collect()
}

/// A random dimension inside `1..=n`: stride 1–4, possibly empty, `hi`
/// possibly off the stride grid.
fn random_dim(rng: &mut TestRng, n: usize) -> Dim {
    let lo = 1 + rng.below(n as u64) as i64;
    let stride = 1 + rng.below(4) as i64;
    let room = (n as i64 - lo) / stride + 1;
    let count = rng.below(room as u64 + 1) as i64; // 0 = empty
    let last = lo + (count - 1) * stride;
    let hi = if count == 0 {
        lo - 1
    } else {
        (last + rng.below(stride as u64) as i64).min(n as i64)
    };
    Dim::new(lo, hi, stride)
}

/// The schedule as the paper's `Read_indices` defines it, kept in an
/// ordered set: the data pages the section's entries target.
#[derive(Default)]
struct Reference {
    pages: BTreeSet<u32>,
    recomputes: u64,
}

impl Reference {
    /// One `Validate` call: if the watch fired, the page set is
    /// recomputed from the current section (`flats`) and region
    /// (`targets` maps a flat index to its target's data pages);
    /// otherwise it stands.
    fn validate(&mut self, fired: bool, flats: &[usize], targets: impl Fn(usize) -> [u32; 2]) {
        if fired {
            self.pages = flats.iter().flat_map(|&fi| targets(fi)).collect();
            self.recomputes += 1;
        }
    }

    fn info(&self) -> ScheduleInfo {
        let pages: Vec<u32> = self.pages.iter().copied().collect();
        ScheduleInfo {
            partial_pages: pages.clone(),
            pages,
            full_pages: Vec::new(),
            recomputes: self.recomputes,
        }
    }
}

/// One random case: two sections of a 1-D or 2-D indirection array,
/// two data regions of `elem`-byte elements at random byte offsets (so
/// elements straddle pages; the second up to 200 pages on), and rounds
/// of rewrites — round 0 fills the whole array — each validated with
/// one of the sections against one of the regions.
fn check(page_shift: u32, elem: usize, two_d: bool, seed: u64) {
    let mut rng = TestRng::from_state(seed);
    let page = 1usize << page_shift;
    let shape: Vec<usize> = if two_d {
        vec![1 + rng.below(4) as usize, 1 + rng.below(120) as usize]
    } else {
        vec![1 + rng.below(400) as usize]
    };
    let sections =
        [0, 1].map(|_| Rsd::new(shape.iter().map(|&n| random_dim(&mut rng, n)).collect()));
    let ind_len = shape.iter().product::<usize>() + rng.below(8) as usize;
    let len = 1 + rng.below(300) as usize;

    let cl = Cluster::new(DsmConfig {
        nprocs: 2,
        page_size: page,
        ..Default::default()
    });
    let ind = cl.alloc::<i32>(ind_len);
    let gap = len * elem + page * (1 + rng.below(200) as usize);
    let raw = cl.alloc::<f64>((gap + len * elem + page).div_ceil(8));
    let regions = [0, gap].map(|at| RegionRef {
        base: raw.base_byte() + at + rng.below(page as u64) as usize,
        len,
        elem,
    });
    let target = |rng: &mut TestRng| 1 + rng.below(len as u64) as i32;
    let fill = (0..ind_len).map(|i| (i, target(&mut rng))).collect();
    let mut rounds = vec![(rng.below(2) as usize, 0, fill)];
    for _ in 0..1 + rng.below(5) {
        let (region, sec, n) = (rng.below(2) as usize, rng.below(2) as usize, rng.below(12));
        let writes = (0..n).map(|_| (rng.below(ind_len as u64) as usize, target(&mut rng)));
        rounds.push((region, sec, writes.collect::<Vec<_>>()));
    }

    let flats = sections.each_ref().map(|sec| naive_flat(sec, &shape));
    let ind_page = |fi: usize| (ind.byte_at(fi) / page) as u32;
    cl.run(|p| {
        let mut vals = vec![0i32; ind_len];
        let mut validator = Validator::new();
        let mut reference = Reference::default();
        // The pages the watch was ever armed on (a page keeps its
        // watchers), and those still write-protected on rank 0.
        let (mut ever, mut armed) = (BTreeSet::new(), BTreeSet::new());
        for (round, (region, sec, writes)) in rounds.iter().enumerate() {
            if p.rank() == 0 {
                for &(i, t) in writes {
                    p.write(&ind, i, t);
                }
            }
            p.barrier();
            let old = vals.clone();
            for &(i, t) in writes {
                vals[i] = t;
            }
            // Born fired; afterwards the watch fires on the protected
            // pages rank 0 writes (its local faults) and on watched pages
            // whose contents changed (write notices on rank 1: an
            // unchanged page publishes no diff).
            let fired = round == 0
                || writes
                    .iter()
                    .filter(|&&(i, _)| p.rank() == 0 || vals[i] != old[i])
                    .any(|&(i, _)| [&armed, &ever][p.rank()].contains(&ind_page(i)));
            if p.rank() == 0 {
                armed.retain(|pg| writes.iter().all(|&(i, _)| ind_page(i) != *pg));
            }
            if fired {
                ever.extend(flats[*sec].iter().map(|&fi| ind_page(fi)));
                armed.extend(flats[*sec].iter().map(|&fi| ind_page(fi)));
            }

            let data = regions[*region];
            let targets = |fi: usize| {
                let b = data.base + (vals[fi] - 1) as usize * elem;
                [(b / page) as u32, ((b + elem - 1) / page) as u32]
            };
            let desc = Desc::Indirect {
                data,
                ind,
                ind_dims: shape.clone(),
                section: sections[*sec].clone(),
                access: AccessType::Read,
                sched: 1,
            };
            validate(p, &mut validator, std::slice::from_ref(&desc));
            reference.validate(fired, &flats[*sec], targets);
            assert_eq!(
                validator.schedule(1).unwrap(),
                reference.info(),
                "rank {} round {round}: {} over {shape:?}, page {page}, elem {elem}",
                p.rank(),
                sections[*sec],
            );
            p.barrier();
        }
    });
}

proptest! {
    #[test]
    fn read_indices_matches_a_naive_reference(
        page_shift in 6u32..13,
        elem in prop::sample::select(vec![4usize, 8, 12, 24]),
        two_d in any::<bool>(),
        seed in any::<u64>(),
    ) {
        check(page_shift, elem, two_d, seed);
    }

    #[test]
    fn flat_indices_is_the_div_mod_enumeration(rank in 1usize..5, seed in any::<u64>()) {
        let mut rng = TestRng::from_state(seed);
        let shape: Vec<usize> = (0..rank).map(|_| 1 + rng.below(12) as usize).collect();
        let section = Rsd::new(shape.iter().map(|&n| random_dim(&mut rng, n)).collect());
        let walk: Vec<usize> = FlatIndices::new(&section, &shape).unwrap().collect();
        prop_assert_eq!(walk, naive_flat(&section, &shape), "{} over {:?}", section, shape);
    }
}
