//! Intervals, vector clocks, and the write-notice board.
//!
//! A processor's execution is divided into *intervals*, closed at each
//! release — a barrier arrival, since barriers are the only
//! synchronization. Closing interval `seq` publishes an [`IntervalRec`]:
//! the processor's vector clock at that point plus write notices (the
//! pages dirtied). A barrier departure is the acquire: every interval
//! newly covered by the barrier's clock has its write notices applied,
//! invalidating local copies of those pages — the *lazy invalidate*
//! protocol of §2.

use std::cell::RefCell;
use std::rc::Rc;

use simnet::ProcId;

/// A vector clock: `vc[q]` = number of processor `q`'s intervals whose
/// notices this processor has seen (interval sequence numbers are
/// 1-based; `vc[q] == 0` means "none").
pub type Vc = Vec<u32>;

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
/// the wire (`4 * nprocs` bytes). Larger clusters ship one `(rank, seq)`
/// pair behind a 4-byte count, 12 bytes: every processor adopts the
/// previous barrier's target clock at departure, and no other acquire
/// exists, so a closing interval's clock differs from that shared base
/// in its own component only. Eight matches the paper's cluster size,
/// so the reviewed tables are unaffected by the sparse format.
pub const DENSE_VC_MAX: usize = 8;

/// What one closed interval publishes.
#[derive(Debug, Clone)]
pub struct IntervalRec {
    /// The closing processor's vector clock, including this interval
    /// (`vc[self] == seq`).
    pub vc: Rc<[u32]>,
    /// Write notices: pages dirtied during the interval.
    pub pages: Rc<[u32]>,
}

impl IntervalRec {
    /// Approximate wire size of this record inside a notice exchange:
    /// the vector clock (see [`DENSE_VC_MAX`]) plus one page id per
    /// notice.
    pub fn wire_bytes(&self) -> usize {
        let clock = if self.vc.len() <= DENSE_VC_MAX {
            4 * self.vc.len()
        } else {
            12
        };
        clock + self.pages.len() * 4
    }
}

/// The global registry of published intervals, indexed `[proc][seq-1]`.
///
/// In real TreadMarks this information is piggybacked on barrier
/// messages; here it is a board the cluster's processors share on their
/// one thread, with the equivalent messages/bytes charged by the barrier
/// manager.
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
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(vc: Vec<u32>, pages: Vec<u32>) -> IntervalRec {
        IntervalRec {
            vc: vc.into(),
            pages: pages.into(),
        }
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
    }

    #[test]
    fn compact_vc_dense_at_small_nprocs() {
        // At ≤ DENSE_VC_MAX ranks the clock travels whole, and the wire
        // size is the historical `4 * nprocs` whatever its entries hold.
        for vc in [vec![0, 0, 0, 0], vec![3, 1, 0, 2]] {
            assert_eq!(rec(vc, vec![]).wire_bytes(), 16);
        }
        let full = rec(vec![1; DENSE_VC_MAX], vec![]);
        assert_eq!(full.wire_bytes(), 4 * DENSE_VC_MAX);
    }

    #[test]
    fn compact_vc_sparse_above_dense_max() {
        // The previous barrier's target, shared by every processor.
        let mut base = vec![0u32; 16];
        base[3] = 5;
        // Rank 0 closes its next interval: only its own component moves.
        let mut vc = base.clone();
        vc[0] = 1;
        // 4-byte count header + the one (rank, seq) pair.
        assert_eq!(rec(vc.clone(), vec![]).wire_bytes(), 4 + 8);
        // That pair applied to the base recovers the whole clock.
        let mut decoded = base.clone();
        decoded[0] = vc[0];
        assert_eq!(decoded, vc);
        // The billed clock does not grow with the cluster.
        let mut wide = vec![0u32; 256];
        wide[255] = 1;
        assert_eq!(rec(wide, vec![7]).wire_bytes(), 4 + 8 + 4);
    }

    #[test]
    fn interval_rec_wire_uses_sparse_encoding_at_scale() {
        let mut vc = vec![0u32; 64];
        (vc[0], vc[10]) = (1, 4);
        let r = rec(vc, vec![42, 43]);
        // One (rank, seq) pair behind the count: 4 + 8 clock bytes,
        // whatever the other components hold, plus 2 page ids.
        assert_eq!(r.wire_bytes(), 12 + 8);
    }

    /// The clock's wire size is a closed form of the cluster size: dense
    /// up to `DENSE_VC_MAX` processors, one pair behind a count above.
    #[test]
    fn wire_bytes_is_the_closed_form_at_every_cluster_size() {
        for n in [1, 4, 8, 9, 64] {
            let clock = if n <= DENSE_VC_MAX { 4 * n } else { 4 + 8 };
            for pages in [0, 3] {
                let mut vc = vec![0u32; n];
                vc[n - 1] = 1;
                let r = rec(vc, (0..pages as u32).collect());
                assert_eq!(
                    r.wire_bytes(),
                    clock + 4 * pages,
                    "{n} procs, {pages} pages"
                );
            }
        }
    }
}
