//! Data partitioners (paper §4).
//!
//! CHAOS "supports a number of parallel partitioners that partition data
//! arrays using heuristics based on spatial position, computational load,
//! etc." The paper's programs use two: BLOCK (nbf) and the Recursive
//! Coordinate Bisection (RCB) partitioner that both the CHAOS *and*
//! TreadMarks moldyn programs rely on for locality. RCB renumbers the
//! elements so each processor's are contiguous; after that, every
//! runtime indexes by a block layout, which is all a [`Partition`] is.

use std::ops::Range;

use simnet::ProcId;

/// A block layout: processor `p` owns elements `starts[p]..starts[p + 1]`,
/// so ownership is ascending-contiguous by construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    /// Start of each processor's block (length `nprocs + 1`, from 0,
    /// never decreasing).
    starts: Vec<usize>,
}

impl Partition {
    /// The layout whose processor `p` owns `starts[p]..starts[p + 1]`.
    /// Panics unless `starts` names at least one processor, begins at 0
    /// and never decreases.
    pub fn from_starts(starts: Vec<usize>) -> Self {
        assert!(
            starts.len() >= 2 && starts[0] == 0,
            "a layout starts at 0 and names a processor: {starts:?}"
        );
        assert!(
            starts.windows(2).all(|w| w[0] <= w[1]),
            "block starts never decrease: {starts:?}"
        );
        Partition { starts }
    }

    pub fn nprocs(&self) -> usize {
        self.starts.len() - 1
    }

    pub fn len(&self) -> usize {
        self.starts[self.nprocs()]
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The element range owned by `p`.
    pub fn range_of(&self, p: ProcId) -> Range<usize> {
        self.starts[p]..self.starts[p + 1]
    }

    /// The processor whose block holds element `e`: the last block
    /// starting at or before `e`, which skips empty blocks. Panics
    /// unless `e < len()`.
    pub(crate) fn owner_of(&self, e: usize) -> ProcId {
        assert!(e < self.len(), "element {e} past the layout's end");
        self.starts.partition_point(|&s| s <= e) - 1
    }
}

/// BLOCK partition: contiguous slabs, sizes differing by at most one
/// (the nbf experiments use this — "a simple BLOCK partition suffices to
/// balance the load").
pub fn block_partition(n: usize, nprocs: usize) -> Partition {
    let (base, extra) = (n / nprocs, n % nprocs);
    Partition::from_starts((0..=nprocs).map(|p| p * base + p.min(extra)).collect())
}

/// Recursive Coordinate Bisection over 3-D positions: split the element
/// set at the median of its widest coordinate, recursing until one group
/// per processor. "Particles close to each other in the physical space
/// are more likely to interact", so RCB minimizes cross-processor
/// interactions (paper §4).
///
/// Returns the block layout over the renumbered elements and `old_of`,
/// each position's original element id: processor `p`'s elements are
/// `old_of[range_of(p)]`, in ascending original id.
///
/// `nprocs` may be any positive count (uneven splits weight the halves).
pub fn rcb_partition(pos: &[[f64; 3]], nprocs: usize) -> (Partition, Vec<u32>) {
    let mut old_of: Vec<u32> = (0..pos.len() as u32).collect();
    let mut starts = vec![0usize; nprocs + 1];
    rcb_rec(pos, &mut old_of, 0, 0, nprocs, &mut starts);
    (Partition::from_starts(starts), old_of)
}

/// Bisect `idx` (positions `offset..` of the renumbering) among
/// processors `first_proc..first_proc + nprocs`, recording each
/// processor's block end in `starts`.
fn rcb_rec(
    pos: &[[f64; 3]],
    idx: &mut [u32],
    offset: usize,
    first_proc: usize,
    nprocs: usize,
    starts: &mut [usize],
) {
    if nprocs == 1 {
        idx.sort_unstable();
        starts[first_proc + 1] = offset + idx.len();
        return;
    }
    // Widest dimension of the bounding box.
    let mut lo = [f64::INFINITY; 3];
    let mut hi = [f64::NEG_INFINITY; 3];
    for &e in idx.iter() {
        for d in 0..3 {
            let v = pos[e as usize][d];
            lo[d] = lo[d].min(v);
            hi[d] = hi[d].max(v);
        }
    }
    let dim = (0..3)
        .max_by(|&a, &b| (hi[a] - lo[a]).partial_cmp(&(hi[b] - lo[b])).unwrap())
        .unwrap();

    // Split processor count (and elements proportionally).
    let left_procs = nprocs / 2;
    let right_procs = nprocs - left_procs;
    let split = idx.len() * left_procs / nprocs;

    // Deterministic weighted-median split: sort keys once. Ties broken by
    // element id so equal coordinates cannot make the partition ambiguous.
    idx.sort_unstable_by(|&a, &b| {
        pos[a as usize][dim]
            .partial_cmp(&pos[b as usize][dim])
            .unwrap()
            .then(a.cmp(&b))
    });
    let (l, r) = idx.split_at_mut(split);
    rcb_rec(pos, l, offset, first_proc, left_procs, starts);
    rcb_rec(
        pos,
        r,
        offset + split,
        first_proc + left_procs,
        right_procs,
        starts,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_sizes_balanced() {
        let p = block_partition(10, 3);
        assert_eq!(p, Partition::from_starts(vec![0, 4, 7, 10]));
        assert_eq!((p.nprocs(), p.len()), (3, 10));
        assert_eq!(p.range_of(0), 0..4);
    }

    #[test]
    fn rcb_balances_and_localizes() {
        // 8×8×8 grid of points, 8 processors: RCB must produce octants.
        let mut pos = Vec::new();
        for x in 0..8 {
            for y in 0..8 {
                for z in 0..8 {
                    pos.push([x as f64, y as f64, z as f64]);
                }
            }
        }
        let (p, old_of) = rcb_partition(&pos, 8);
        assert_eq!(p, block_partition(512, 8));
        // Locality: elements of one processor span at most half the box
        // in every dimension.
        for proc in 0..8 {
            let mut lo = [f64::INFINITY; 3];
            let mut hi = [f64::NEG_INFINITY; 3];
            for &e in &old_of[p.range_of(proc)] {
                for d in 0..3 {
                    lo[d] = lo[d].min(pos[e as usize][d]);
                    hi[d] = hi[d].max(pos[e as usize][d]);
                }
            }
            for d in 0..3 {
                assert!(hi[d] - lo[d] <= 3.5, "proc {proc} spans dim {d}");
            }
        }
    }

    #[test]
    fn rcb_deterministic() {
        let pos: Vec<[f64; 3]> = (0..500)
            .map(|i| {
                let f = i as f64;
                [
                    f.sin() * 10.0,
                    (f * 0.7).cos() * 10.0,
                    (f * 1.3).sin() * 10.0,
                ]
            })
            .collect();
        assert_eq!(rcb_partition(&pos, 8), rcb_partition(&pos, 8));
    }

    #[test]
    fn rcb_uneven_proc_count() {
        let pos: Vec<[f64; 3]> = (0..90).map(|i| [i as f64, 0.0, 0.0]).collect();
        let (p, old_of) = rcb_partition(&pos, 3);
        assert_eq!(p, block_partition(90, 3));
        // Line split into thirds, in order.
        assert!(old_of.iter().copied().eq(0..90));
    }
}
