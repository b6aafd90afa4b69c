//! Concrete (fully evaluated) regular sections.
//!
//! A [`Dim`] is the arithmetic progression `lo, lo+stride, ..., <= hi`
//! (Fortran triplet notation `lo:hi:stride`); an [`Rsd`] is the cartesian
//! product of its dimensions. Bounds are inclusive, matching the paper's
//! Fortran heritage (e.g. `interaction_list[1:2, 1:num_interactions]`).

use std::fmt;

/// One dimension of a regular section: `lo : hi : stride`, inclusive.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Dim {
    pub lo: i64,
    pub hi: i64,
    pub stride: i64,
}

impl Dim {
    pub fn new(lo: i64, hi: i64, stride: i64) -> Self {
        assert!(stride > 0, "stride must be positive");
        Dim { lo, hi, stride }
    }

    /// Dense section `lo..=hi`.
    pub fn dense(lo: i64, hi: i64) -> Self {
        Dim::new(lo, hi, 1)
    }

    /// Number of elements in the progression (0 if empty).
    pub fn len(&self) -> usize {
        if self.hi < self.lo {
            0
        } else {
            ((self.hi - self.lo) / self.stride + 1) as usize
        }
    }

    pub fn is_empty(&self) -> bool {
        self.hi < self.lo
    }

    /// Last element actually reached (≤ hi), or `None` if empty.
    pub fn last(&self) -> Option<i64> {
        if self.is_empty() {
            None
        } else {
            Some(self.lo + ((self.hi - self.lo) / self.stride) * self.stride)
        }
    }
}

impl fmt::Display for Dim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.stride == 1 {
            write!(f, "{}:{}", self.lo, self.hi)
        } else {
            write!(f, "{}:{}:{}", self.lo, self.hi, self.stride)
        }
    }
}

/// A multi-dimensional regular section descriptor.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Rsd {
    pub dims: Vec<Dim>,
}

impl Rsd {
    pub fn new(dims: Vec<Dim>) -> Self {
        Rsd { dims }
    }

    pub fn dense1(lo: i64, hi: i64) -> Self {
        Rsd {
            dims: vec![Dim::dense(lo, hi)],
        }
    }

    pub fn rank(&self) -> usize {
        self.dims.len()
    }

    pub fn len(&self) -> usize {
        self.dims.iter().map(Dim::len).product()
    }

    pub fn is_empty(&self) -> bool {
        self.dims.iter().any(Dim::is_empty)
    }
}

impl fmt::Display for Rsd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, d) in self.dims.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}", d)?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dim_len_and_contains() {
        let d = Dim::new(1, 10, 3); // 1,4,7,10
        assert_eq!(d.len(), 4);
        assert_eq!(d.last(), Some(10));
        let d = Dim::new(1, 12, 3); // hi off the grid: still 1,4,7,10
        assert_eq!(d.len(), 4);
        assert_eq!(d.last(), Some(10));
        assert_eq!(d.to_string(), "1:12:3");
    }

    #[test]
    fn empty_dim() {
        let d = Dim::new(5, 4, 1);
        assert!(d.is_empty());
        assert_eq!(d.len(), 0);
        assert_eq!(d.last(), None);
    }

    #[test]
    fn rsd_2d() {
        // interaction_list[1:2, 1:5]
        let r = Rsd::new(vec![Dim::dense(1, 2), Dim::dense(1, 5)]);
        assert_eq!(r.rank(), 2);
        assert_eq!(r.len(), 10);
        assert!(!r.is_empty());
        assert_eq!(r.to_string(), "[1:2, 1:5]");
        let r = Rsd::new(vec![Dim::dense(1, 2), Dim::dense(5, 4)]);
        assert!(r.is_empty());
        assert_eq!(r.len(), 0);
    }
}
