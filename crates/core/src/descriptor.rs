//! Access descriptors — the arguments of the `Validate` call (Figure 3).

use dsm::{Pod, SharedSlice};
use rsd::Rsd;

/// Access type of a descriptor (paper §3.2).
///
/// The two `*All` types are the direct-access refinements: the compiler
/// proved every element of the section is written, so the run-time can
/// skip twinning — and ship whole pages instead of (stacked, overlapping)
/// diffs, the mechanism behind the paper's moldyn data reduction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessType {
    Read,
    Write,
    ReadWrite,
    WriteAll,
    ReadWriteAll,
}

impl AccessType {
    pub fn reads(self) -> bool {
        matches!(
            self,
            AccessType::Read | AccessType::ReadWrite | AccessType::ReadWriteAll
        )
    }

    pub fn writes(self) -> bool {
        !matches!(self, AccessType::Read)
    }

    pub fn whole_pages(self) -> bool {
        matches!(self, AccessType::WriteAll | AccessType::ReadWriteAll)
    }

    /// The spelling used in the paper's figures (for `fcc` codegen).
    pub fn fortran_name(self) -> &'static str {
        match self {
            AccessType::Read => "READ",
            AccessType::Write => "WRITE",
            AccessType::ReadWrite => "READ&WRITE",
            AccessType::WriteAll => "WRITE_ALL",
            AccessType::ReadWriteAll => "READ&WRITE_ALL",
        }
    }
}

/// Type-erased view of a shared region: what `Validate` needs to map
/// element indices to pages (the `base` argument of Figure 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegionRef {
    pub base: usize,
    pub len: usize,
    pub elem: usize,
}

impl RegionRef {
    pub fn of<T: Pod>(s: &SharedSlice<T>) -> Self {
        RegionRef {
            base: s.base_byte(),
            len: s.len(),
            elem: T::SIZE,
        }
    }

    /// Pages occupied by elements `lo..=hi : stride` (zero-based).
    pub fn pages_of(&self, lo: i64, hi: i64, stride: i64, page_size: usize) -> rsd::PageSet {
        rsd::pages_of_section(self.base, self.elem, lo, hi, stride, page_size)
    }
}

/// One access descriptor.
///
/// Sections use *one-based, inclusive* Fortran bounds, matching the
/// paper's figures and the `fcc` front end that generates them.
#[derive(Debug, Clone)]
pub enum Desc {
    /// Regular access: `section` is a 1-D section of `data` itself.
    Direct {
        data: RegionRef,
        section: Rsd,
        access: AccessType,
        sched: u32,
    },
    /// Irregular access: `data[ind[j]]` for `j` in `section` (a section
    /// *of the indirection array*; may be multi-dimensional, interpreted
    /// column-major over `ind_dims` as in Fortran).
    Indirect {
        data: RegionRef,
        ind: SharedSlice<i32>,
        /// Fortran shape of the indirection array, e.g. `[2, n]` for
        /// `interaction_list(2, n)`.
        ind_dims: Vec<usize>,
        section: Rsd,
        access: AccessType,
        sched: u32,
    },
}

impl Desc {
    pub fn access(&self) -> AccessType {
        match self {
            Desc::Direct { access, .. } | Desc::Indirect { access, .. } => *access,
        }
    }

    pub fn sched(&self) -> u32 {
        match self {
            Desc::Direct { sched, .. } | Desc::Indirect { sched, .. } => *sched,
        }
    }
}

/// Fortran's rank limit: [`FlatIndices`] keeps its odometer inline.
const MAX_RANK: usize = 7;

/// The flat (zero-based, column-major) element indices of a one-based
/// multi-dimensional section over an array of shape `shape`, ascending.
///
/// An odometer with the first dimension fastest: each step adds that
/// dimension's flat stride, and a wrap rewinds it and carries into the
/// next, so no index costs a division. `interaction_list[1:2, 5:6]` over
/// shape `[2, n]` yields `8, 9, 10, 11`.
#[derive(Debug, Clone)]
pub struct FlatIndices {
    /// Per dimension: odometer digit, element count, and flat distance
    /// between consecutive elements (all zero past the rank).
    dims: [(usize, usize, usize); MAX_RANK],
    next: usize,
    left: usize,
}

impl FlatIndices {
    /// Checks the section against the shape once, O(rank): the ranks
    /// must agree and, unless the section is empty, every dimension must
    /// lie inside `1..=shape[k]`. The error names the offending dimension.
    pub fn new(section: &Rsd, shape: &[usize]) -> Result<Self, String> {
        let rank = section.rank();
        if rank != shape.len() || rank > MAX_RANK {
            return Err(format!(
                "has rank {rank}, the array {} (at most {MAX_RANK})",
                shape.len()
            ));
        }
        let (mut dims, mut next, left) = ([(0, 0, 0); MAX_RANK], 0, section.len());
        let mut extent = 1; // column-major stride of dimension k
        for (k, (d, &n)) in section.dims.iter().zip(shape).enumerate() {
            if left > 0 && (d.lo < 1 || d.last().is_some_and(|l| l > n as i64)) {
                return Err(format!("dimension {} ({d}) lies outside 1:{n}", k + 1));
            }
            dims[k] = (0, d.len(), d.stride as usize * extent);
            next += (d.lo.max(1) as usize - 1) * extent;
            extent *= n;
        }
        Ok(FlatIndices { dims, next, left })
    }
}

impl Iterator for FlatIndices {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        if self.left == 0 {
            return None;
        }
        self.left -= 1;
        let out = self.next;
        for (digit, len, step) in &mut self.dims {
            if *digit + 1 < *len {
                *digit += 1;
                self.next += *step;
                break;
            }
            self.next -= *digit * *step;
            *digit = 0;
        }
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsd::Dim;

    #[test]
    fn access_type_predicates() {
        assert!(AccessType::Read.reads() && !AccessType::Read.writes());
        assert!(AccessType::WriteAll.writes() && AccessType::WriteAll.whole_pages());
        assert!(AccessType::ReadWriteAll.reads());
        assert!(!AccessType::ReadWrite.whole_pages());
        assert_eq!(AccessType::ReadWrite.fortran_name(), "READ&WRITE");
    }

    fn flat(sec: &Rsd, dims: &[usize]) -> Vec<usize> {
        FlatIndices::new(sec, dims).unwrap().collect()
    }

    #[test]
    fn flat_indices_2d_column_major() {
        // interaction_list(2, 10): section [1:2, 5:6]
        let sec = Rsd::new(vec![Dim::dense(1, 2), Dim::dense(5, 6)]);
        assert_eq!(flat(&sec, &[2, 10]), vec![8, 9, 10, 11]);
    }

    #[test]
    fn flat_indices_1d() {
        let sec = Rsd::new(vec![Dim::dense(3, 6)]);
        assert_eq!(flat(&sec, &[100]), vec![2, 3, 4, 5]);
    }

    #[test]
    fn flat_indices_strided() {
        let sec = Rsd::new(vec![Dim::new(1, 9, 4)]); // 1,5,9 one-based
        assert_eq!(flat(&sec, &[10]), vec![0, 4, 8]);
    }

    #[test]
    fn flat_indices_reject_out_of_shape_sections() {
        let err = |dims, shape: &[usize]| FlatIndices::new(&Rsd::new(dims), shape).unwrap_err();
        let past_end = vec![Dim::dense(1, 2), Dim::dense(9, 11)];
        assert_eq!(
            err(past_end, &[2, 10]),
            "dimension 2 (9:11) lies outside 1:10"
        );
        let zero_based = vec![Dim::dense(0, 3)];
        assert_eq!(
            err(zero_based, &[10]),
            "dimension 1 (0:3) lies outside 1:10"
        );
        assert_eq!(
            err(vec![Dim::dense(1, 3)], &[2, 10]),
            "has rank 1, the array 2 (at most 7)"
        );
        // An empty section reads nothing, so its bounds go unchecked.
        let empty = Rsd::new(vec![Dim::dense(1, 2), Dim::dense(12, 11)]);
        assert_eq!(flat(&empty, &[2, 10]), Vec::<usize>::new());
    }
}
