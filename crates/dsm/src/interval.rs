//! Intervals, vector clocks, and the write-notice board.
//!
//! A processor's execution is divided into *intervals*, closed at each
//! release (barrier arrival or lock release). Closing interval `seq`
//! publishes an [`IntervalRec`]: the processor's vector clock at that
//! point plus write notices (the pages dirtied). Acquires merge another
//! processor's knowledge: every interval newly covered by the merged
//! vector clock has its write notices applied, invalidating local copies
//! of those pages — the *lazy invalidate* protocol of §2.

use std::cell::RefCell;
use std::rc::Rc;

use simnet::ProcId;

/// A vector clock: `vc[q]` = number of processor `q`'s intervals whose
/// notices this processor has seen (interval sequence numbers are
/// 1-based; `vc[q] == 0` means "none").
pub type Vc = Vec<u32>;

/// Does `vc` cover interval `seq` of processor `q`?
#[inline]
pub fn covers(vc: &[u32], q: ProcId, seq: u32) -> bool {
    vc[q] >= seq
}

/// A deterministic linear extension of happens-before.
///
/// If interval `a` happens-before `b` then `a.vc ≤ b.vc` pointwise and
/// strictly in `b`'s own component, so `Σ vc` strictly increases; sorting
/// records by `(Σ vc, proc, seq)` therefore orders causally-related
/// records correctly, and concurrent records (which under the
/// multiple-writer protocol touch disjoint words) deterministically.
#[inline]
pub fn vc_key(vc: &[u32], proc: ProcId, seq: u32) -> (u64, usize, u32) {
    (vc.iter().map(|&v| v as u64).sum(), proc, seq)
}

/// Clusters at or below this size ship the full dense vector clock on
/// the wire (`4 * nprocs` bytes); larger clusters switch to the sparse
/// delta encoding of [`CompactVc`]. Eight matches the paper's cluster
/// size, so the reviewed tables are unaffected by the sparse format.
pub const DENSE_VC_MAX: usize = 8;

/// Wire encoding of a vector clock relative to a shared `base` clock.
///
/// Both sides of a notice exchange already agree on the previous
/// barrier's target clock (every processor adopts it at departure), so
/// an interval only needs to ship the components that advanced past it:
/// the closing processor's own (always), plus any learned through lock
/// acquires since. At 256 processors an interval that advanced two
/// ranks costs 20 bytes instead of 1024.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompactVc {
    /// Small cluster: the full clock, `4 * nprocs` wire bytes.
    Dense(Vec<u32>),
    /// Large cluster: `(rank, seq)` pairs for ranks with
    /// `vc[rank] > base[rank]`; 4-byte count header + 8 bytes per pair.
    Sparse(Vec<(u32, u32)>),
}

impl CompactVc {
    /// Encode `vc` as a delta against `base` (`base[q] ≤ vc[q]` pointwise).
    pub fn encode(vc: &[u32], base: &[u32]) -> CompactVc {
        debug_assert_eq!(vc.len(), base.len());
        if vc.len() <= DENSE_VC_MAX {
            return CompactVc::Dense(vc.to_vec());
        }
        let pairs = vc
            .iter()
            .zip(base)
            .enumerate()
            .filter(|(_, (&v, &b))| v > b)
            .map(|(q, (&v, _))| (q as u32, v))
            .collect();
        CompactVc::Sparse(pairs)
    }

    /// Reconstruct the full clock given the same `base` used to encode.
    pub fn decode(&self, base: &[u32]) -> Vc {
        match self {
            CompactVc::Dense(vc) => vc.clone(),
            CompactVc::Sparse(pairs) => {
                let mut vc = base.to_vec();
                for &(q, seq) in pairs {
                    vc[q as usize] = seq;
                }
                vc
            }
        }
    }

    /// Wire size of this encoding.
    pub fn wire_bytes(&self) -> usize {
        match self {
            CompactVc::Dense(vc) => vc.len() * 4,
            CompactVc::Sparse(pairs) => 4 + pairs.len() * 8,
        }
    }
}

/// What one closed interval publishes.
#[derive(Debug, Clone)]
pub struct IntervalRec {
    /// The closing processor's vector clock, including this interval
    /// (`vc[self] == seq`).
    pub vc: Rc<[u32]>,
    /// Write notices: pages dirtied during the interval.
    pub pages: Rc<[u32]>,
    /// Precomputed wire size of the clock under the [`CompactVc`]
    /// encoding against the closing processor's last barrier snapshot.
    vc_wire: u32,
}

impl IntervalRec {
    /// Build a record, computing the clock's wire size as the compact
    /// delta against `base` (the closing processor's view of the last
    /// barrier target; ranks advanced since — own component, lock
    /// acquires — form the sparse set).
    pub fn new(vc: Rc<[u32]>, pages: Rc<[u32]>, base: &[u32]) -> IntervalRec {
        let vc_wire = CompactVc::encode(&vc, base).wire_bytes() as u32;
        IntervalRec { vc, pages, vc_wire }
    }

    /// Approximate wire size of this record inside a notice exchange:
    /// the (compactly encoded) vector clock plus one page id per notice.
    pub fn wire_bytes(&self) -> usize {
        self.vc_wire as usize + self.pages.len() * 4
    }
}

/// The global registry of published intervals, indexed `[proc][seq-1]`.
///
/// In real TreadMarks this information is piggybacked on barrier and lock
/// messages; here it is a board the cluster's processors share on their
/// one thread, with the equivalent messages/bytes charged by the barrier
/// and lock managers.
#[derive(Debug)]
pub struct NoticeBoard {
    boards: Vec<RefCell<Vec<IntervalRec>>>,
}

impl NoticeBoard {
    /// An empty board for `nprocs` processors.
    pub fn new(nprocs: usize) -> Self {
        NoticeBoard {
            boards: (0..nprocs).map(|_| RefCell::new(Vec::new())).collect(),
        }
    }

    /// Publish `rec` as the next interval of `q`; returns its sequence
    /// number (1-based).
    pub fn publish(&self, q: ProcId, rec: IntervalRec) -> u32 {
        let mut b = self.boards[q].borrow_mut();
        debug_assert_eq!(rec.vc[q] as usize, b.len() + 1, "seq/vc mismatch");
        b.push(rec);
        b.len() as u32
    }

    /// Number of intervals `q` has closed so far.
    pub fn len(&self, q: ProcId) -> u32 {
        self.boards[q].borrow().len() as u32
    }

    /// Has `q` closed no intervals yet?
    pub fn is_empty(&self, q: ProcId) -> bool {
        self.len(q) == 0
    }

    /// Visit `q`'s intervals with `from < seq ≤ to` in order.
    pub fn for_range(&self, q: ProcId, from: u32, to: u32, mut f: impl FnMut(u32, &IntervalRec)) {
        if to <= from {
            return;
        }
        let b = self.boards[q].borrow();
        for seq in (from + 1)..=to {
            f(seq, &b[(seq - 1) as usize]);
        }
    }

    /// Drop every published interval, keeping the boards' capacity
    /// (part of [`crate::Cluster::recycle`]).
    pub fn reset(&self) {
        for b in &self.boards {
            b.borrow_mut().clear();
        }
    }

    /// Total wire bytes of `q`'s intervals in `(from, to]` — used to
    /// account barrier/lock message sizes.
    pub fn range_bytes(&self, q: ProcId, from: u32, to: u32) -> usize {
        let mut n = 0;
        self.for_range(q, from, to, |_, rec| n += rec.wire_bytes());
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(vc: Vec<u32>, pages: Vec<u32>) -> IntervalRec {
        let base = vec![0u32; vc.len()];
        IntervalRec::new(vc.into(), pages.into(), &base)
    }

    #[test]
    fn publish_and_read_back() {
        let nb = NoticeBoard::new(2);
        assert_eq!(nb.len(0), 0);
        let s1 = nb.publish(0, rec(vec![1, 0], vec![3, 4]));
        let s2 = nb.publish(0, rec(vec![2, 0], vec![5]));
        assert_eq!((s1, s2), (1, 2));
        assert_eq!(nb.len(0), 2);

        let mut seen = Vec::new();
        nb.for_range(0, 0, 2, |seq, r| seen.push((seq, r.pages.to_vec())));
        assert_eq!(seen, vec![(1, vec![3, 4]), (2, vec![5])]);

        let mut seen2 = Vec::new();
        nb.for_range(0, 1, 2, |seq, _| seen2.push(seq));
        assert_eq!(seen2, vec![2]);
    }

    #[test]
    fn covers_basic() {
        let vc = vec![3, 0, 7];
        assert!(covers(&vc, 0, 3));
        assert!(!covers(&vc, 0, 4));
        assert!(!covers(&vc, 1, 1));
        assert!(covers(&vc, 2, 7));
    }

    #[test]
    fn vc_key_orders_happens_before() {
        // p0 closes interval 1; p1 sees it and closes its interval 1.
        let a = vc_key(&[1, 0], 0, 1);
        let b = vc_key(&[1, 1], 1, 1);
        assert!(a < b);
        // Concurrent intervals order deterministically by proc.
        let c = vc_key(&[1, 0], 0, 1);
        let d = vc_key(&[0, 1], 1, 1);
        assert!(c < d);
    }

    #[test]
    fn wire_bytes_counts_vc_and_pages() {
        let r = rec(vec![1, 0, 0], vec![10, 11]);
        assert_eq!(r.wire_bytes(), 3 * 4 + 2 * 4);
        let nb = NoticeBoard::new(3);
        nb.publish(0, r);
        assert_eq!(nb.range_bytes(0, 0, 1), 20);
        assert_eq!(nb.range_bytes(0, 1, 1), 0);
    }

    #[test]
    fn compact_vc_dense_at_small_nprocs() {
        // At ≤ DENSE_VC_MAX ranks the encoding is the full clock and the
        // wire size matches the historical `4 * nprocs` formula exactly.
        let vc = vec![3, 1, 0, 2];
        let base = vec![2, 1, 0, 2];
        let c = CompactVc::encode(&vc, &base);
        assert_eq!(c.wire_bytes(), 16);
        assert_eq!(c.decode(&base), vc);
    }

    #[test]
    fn compact_vc_sparse_above_dense_max() {
        let mut base = vec![0u32; 16];
        base[3] = 5;
        let mut vc = base.clone();
        vc[0] = 2; // own component advanced
        vc[7] = 9; // learned via a lock acquire
        let c = CompactVc::encode(&vc, &base);
        // 4-byte count header + two (rank, seq) pairs.
        assert_eq!(c.wire_bytes(), 4 + 2 * 8);
        assert_eq!(c.decode(&base), vc);
        // Unchanged clock encodes to the bare header.
        let none = CompactVc::encode(&base, &base);
        assert_eq!(none.wire_bytes(), 4);
        assert_eq!(none.decode(&base), base);
    }

    #[test]
    fn interval_rec_wire_uses_sparse_encoding_at_scale() {
        let nprocs = 64;
        let mut base = vec![0u32; nprocs];
        base[10] = 4;
        let mut vc = base.clone();
        vc[0] = 1;
        let r = IntervalRec::new(vc.into(), vec![42u32, 43].into(), &base);
        // One advanced rank: 4 + 8 clock bytes + 2 page ids.
        assert_eq!(r.wire_bytes(), 12 + 8);
    }
}
