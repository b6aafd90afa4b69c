//! Data and iteration partitioners (paper §4).
//!
//! CHAOS "supports a number of parallel partitioners that partition data
//! arrays using heuristics based on spatial position, computational load,
//! etc." We implement the three the paper uses or names: BLOCK, CYCLIC,
//! and the Recursive Coordinate Bisection (RCB) partitioner that both the
//! CHAOS *and* TreadMarks moldyn programs rely on for locality.

use simnet::ProcId;

/// A data partition: every element's home processor, plus the derived
/// remap (elements of one processor contiguous, processors ascending).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    /// `owner[e]` = home processor of (original) element `e`.
    pub owner: Vec<ProcId>,
    /// Elements per processor.
    pub counts: Vec<usize>,
    /// Remap permutation: `new_of[e]` = position of original element `e`
    /// in the remapped (owner-contiguous) ordering.
    pub new_of: Vec<u32>,
    /// Inverse: `old_of[k]` = original element at remapped position `k`.
    pub old_of: Vec<u32>,
    /// Start of each processor's block in the remapped ordering
    /// (length `nprocs + 1`).
    pub starts: Vec<usize>,
}

impl Partition {
    /// Build the remap tables from an ownership vector.
    pub fn from_owners(owner: Vec<ProcId>, nprocs: usize) -> Self {
        let n = owner.len();
        let mut counts = vec![0usize; nprocs];
        for &o in &owner {
            assert!(o < nprocs, "owner {o} out of range");
            counts[o] += 1;
        }
        let mut starts = vec![0usize; nprocs + 1];
        for p in 0..nprocs {
            starts[p + 1] = starts[p] + counts[p];
        }
        let mut cursor = starts.clone();
        let mut new_of = vec![0u32; n];
        let mut old_of = vec![0u32; n];
        for (e, &o) in owner.iter().enumerate() {
            let k = cursor[o];
            cursor[o] += 1;
            new_of[e] = k as u32;
            old_of[k] = e as u32;
        }
        Partition {
            owner,
            counts,
            new_of,
            old_of,
            starts,
        }
    }

    pub fn nprocs(&self) -> usize {
        self.counts.len()
    }

    pub fn len(&self) -> usize {
        self.owner.len()
    }

    pub fn is_empty(&self) -> bool {
        self.owner.is_empty()
    }

    /// Home processor of a *remapped* element index.
    pub fn owner_of_new(&self, k: usize) -> ProcId {
        match self.starts.binary_search(&k) {
            Ok(p) if p < self.nprocs() => p,
            Ok(p) => p - 1,
            Err(p) => p - 1,
        }
    }

    /// Local offset (within the owner's block) of a remapped index.
    pub fn local_off_of_new(&self, k: usize) -> u32 {
        (k - self.starts[self.owner_of_new(k)]) as u32
    }

    /// The remapped index range owned by `p`.
    pub fn range_of(&self, p: ProcId) -> std::ops::Range<usize> {
        self.starts[p]..self.starts[p + 1]
    }
}

/// BLOCK partition: contiguous slabs, sizes differing by at most one
/// (the nbf experiments use this — "a simple BLOCK partition suffices to
/// balance the load").
pub fn block_partition(n: usize, nprocs: usize) -> Partition {
    let mut owner = vec![0; n];
    let base = n / nprocs;
    let extra = n % nprocs;
    let mut e = 0;
    for p in 0..nprocs {
        let sz = base + usize::from(p < extra);
        for _ in 0..sz {
            owner[e] = p;
            e += 1;
        }
    }
    Partition::from_owners(owner, nprocs)
}

/// CYCLIC partition: element `e` to processor `e mod nprocs`.
pub fn cyclic_partition(n: usize, nprocs: usize) -> Partition {
    Partition::from_owners((0..n).map(|e| e % nprocs).collect(), nprocs)
}

/// Recursive Coordinate Bisection over 3-D positions: split the element
/// set at the median of its widest coordinate, recursing until one group
/// per processor. "Particles close to each other in the physical space
/// are more likely to interact", so RCB minimizes cross-processor
/// interactions (paper §4).
///
/// `nprocs` may be any positive count (uneven splits weight the halves).
pub fn rcb_partition(pos: &[[f64; 3]], nprocs: usize) -> Partition {
    let mut owner = vec![0usize; pos.len()];
    let mut idx: Vec<u32> = (0..pos.len() as u32).collect();
    rcb_rec(pos, &mut idx, 0, nprocs, &mut owner);
    Partition::from_owners(owner, nprocs)
}

fn rcb_rec(
    pos: &[[f64; 3]],
    idx: &mut [u32],
    first_proc: usize,
    nprocs: usize,
    owner: &mut [usize],
) {
    if nprocs == 1 {
        for &e in idx.iter() {
            owner[e as usize] = first_proc;
        }
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
    rcb_rec(pos, l, first_proc, left_procs, owner);
    rcb_rec(pos, r, first_proc + left_procs, right_procs, owner);
}

/// Iteration partitioning by the *almost-owner-computes* rule: each
/// iteration goes to the processor owning the majority of the elements it
/// accesses (ties to the first element's owner).
pub fn assign_iterations_almost_owner(
    partition: &Partition,
    accesses_per_iter: impl Iterator<Item = Vec<u32>>,
) -> Vec<ProcId> {
    let nprocs = partition.nprocs();
    accesses_per_iter
        .map(|elems| {
            debug_assert!(!elems.is_empty());
            let mut votes = vec![0u32; nprocs];
            for &e in &elems {
                votes[partition.owner[e as usize]] += 1;
            }
            let best = *votes.iter().max().unwrap();
            if votes[partition.owner[elems[0] as usize]] == best {
                partition.owner[elems[0] as usize]
            } else {
                votes.iter().position(|&v| v == best).unwrap()
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_sizes_balanced() {
        let p = block_partition(10, 3);
        assert_eq!(p.counts, vec![4, 3, 3]);
        assert_eq!(p.owner[0..4], [0, 0, 0, 0]);
        assert_eq!(p.starts, vec![0, 4, 7, 10]);
    }

    #[test]
    fn cyclic_roundrobin() {
        let p = cyclic_partition(7, 3);
        assert_eq!(p.owner, vec![0, 1, 2, 0, 1, 2, 0]);
        assert_eq!(p.counts, vec![3, 2, 2]);
    }

    #[test]
    fn remap_is_a_permutation() {
        let p = cyclic_partition(100, 7);
        let mut seen = [false; 100];
        for e in 0..100 {
            let k = p.new_of[e] as usize;
            assert!(!seen[k]);
            seen[k] = true;
            assert_eq!(p.old_of[k] as usize, e);
            assert_eq!(p.owner_of_new(k), p.owner[e]);
        }
    }

    #[test]
    fn local_offsets_dense() {
        let p = block_partition(12, 4);
        for proc in 0..4 {
            let r = p.range_of(proc);
            for (off, k) in r.enumerate() {
                assert_eq!(p.local_off_of_new(k) as usize, off);
            }
        }
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
        let p = rcb_partition(&pos, 8);
        assert!(p.counts.iter().all(|&c| c == 64), "{:?}", p.counts);
        // Locality: elements of one processor span at most half the box
        // in every dimension.
        for proc in 0..8 {
            let mut lo = [f64::INFINITY; 3];
            let mut hi = [f64::NEG_INFINITY; 3];
            for (e, &o) in p.owner.iter().enumerate() {
                if o == proc {
                    for d in 0..3 {
                        lo[d] = lo[d].min(pos[e][d]);
                        hi[d] = hi[d].max(pos[e][d]);
                    }
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
        let p = rcb_partition(&pos, 3);
        assert_eq!(p.counts, vec![30, 30, 30]);
        // Line split into thirds, in order.
        assert!(p.owner[0..30].iter().all(|&o| o == 0));
        assert!(p.owner[60..90].iter().all(|&o| o == 2));
    }

    #[test]
    fn almost_owner_computes() {
        let p = block_partition(8, 2); // 0-3 → p0, 4-7 → p1
        let iters = vec![vec![0u32, 1], vec![0, 5], vec![5, 0], vec![6, 7]];
        let a = assign_iterations_almost_owner(&p, iters.into_iter());
        // Tie (one element each) goes to the first element's owner.
        assert_eq!(a, vec![0, 0, 1, 1]);
    }
}
