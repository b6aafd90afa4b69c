//! Intervals, epochs, and the write-notice list.
//!
//! A processor's execution is divided into *intervals*, closed at each
//! release — a barrier arrival, since barriers are the only
//! synchronization. Closing an interval publishes write notices (the
//! pages dirtied) and their records. A barrier departure is the acquire:
//! every notice of the epoch the barrier ends invalidates the local copy
//! of its page — the *lazy invalidate* protocol of §2.
//!
//! TreadMarks orders intervals with vector timestamps, because a lock
//! acquire can see some processors' intervals and not others'. Here a
//! barrier is the only acquire, so every processor leaves barrier `e`
//! knowing exactly the intervals closed before it: an interval is named
//! by its writer and the *epoch* it closed in (the number of barriers
//! completed before it), each processor closes at most one per epoch,
//! and `(epoch, writer)` is a linear extension of happens-before. The
//! bytes billed for a notice are still TreadMarks's: [`wire_bytes`]
//! counts the vector timestamp the paper's system sends.

use simnet::ProcId;

/// Clusters at or below this size ship the full dense vector clock on
/// the wire (`4 * nprocs` bytes). Larger clusters ship one `(rank, seq)`
/// pair behind a 4-byte count, 12 bytes: every processor adopts the
/// previous barrier's target clock at departure, and no other acquire
/// exists, so a closing interval's clock differs from that shared base
/// in its own component only. Eight matches the paper's cluster size,
/// so the reviewed tables are unaffected by the sparse format.
pub const DENSE_VC_MAX: usize = 8;

/// Wire size of one closed interval inside a barrier's notice exchange
/// on `nprocs` processors: its vector timestamp (see [`DENSE_VC_MAX`])
/// plus one page id per write notice.
pub(crate) fn wire_bytes(nprocs: usize, pages: usize) -> usize {
    let clock = if nprocs <= DENSE_VC_MAX {
        4 * nprocs
    } else {
        12
    };
    clock + pages * 4
}

/// One write notice: `(epoch, writer, page)`.
pub(crate) type Notice = (u32, u32, u32);

/// The write notices of every interval whose records are not folded
/// into the master copies yet, in epoch order. The barrier that ends an
/// epoch sorts that epoch's notices by writer and page ([`Notices::seal`])
/// and lends them to every processor as its digest; the fold drains the
/// oldest epochs ([`Notices::drain_below`]). Sealed, the list is in
/// `(epoch, writer, page)` order: each page's records in causal order.
#[derive(Debug, Default)]
pub(crate) struct Notices {
    list: Vec<Notice>,
}

impl Notices {
    /// `writer` dirtied `page` in its interval of `epoch`.
    pub(crate) fn publish(&mut self, epoch: u32, writer: ProcId, page: u32) {
        debug_assert!(
            self.list.last().is_none_or(|&(e, ..)| e <= epoch),
            "notices are published epoch by epoch"
        );
        self.list.push((epoch, writer as u32, page));
    }

    /// Sort `epoch`'s notices — the last epoch published — by writer and
    /// page.
    pub(crate) fn seal(&mut self, epoch: u32) {
        let start = self.list.partition_point(|&(e, ..)| e < epoch);
        self.list[start..].sort_unstable();
    }

    /// `epoch`'s notices.
    pub(crate) fn of_epoch(&self, epoch: u32) -> &[Notice] {
        let start = self.list.partition_point(|&(e, ..)| e < epoch);
        let end = self.list.partition_point(|&(e, ..)| e <= epoch);
        &self.list[start..end]
    }

    /// Remove and yield the notices of epochs below `horizon`, oldest
    /// first.
    pub(crate) fn drain_below(&mut self, horizon: u32) -> impl Iterator<Item = Notice> + '_ {
        let end = self.list.partition_point(|&(e, ..)| e < horizon);
        self.list.drain(..end)
    }

    /// Number of notices held: one per unfolded record.
    pub(crate) fn len(&self) -> usize {
        self.list.len()
    }

    /// Drop every notice, keeping the capacity (part of
    /// [`crate::Cluster::recycle`]).
    pub(crate) fn clear(&mut self) {
        self.list.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn publish_and_read_back() {
        let mut n = Notices::default();
        assert!(n.of_epoch(0).is_empty());
        // Epoch 0: processor 1 arrives first, then processor 0.
        for (q, page) in [(1, 9), (0, 3), (0, 4)] {
            n.publish(0, q, page);
        }
        n.seal(0);
        assert_eq!(n.of_epoch(0), [(0, 0, 3), (0, 0, 4), (0, 1, 9)]);
        n.publish(1, 0, 5);
        n.seal(1);
        // An epoch nobody wrote in has no notices.
        n.seal(2);
        assert!(n.of_epoch(2).is_empty());
        assert_eq!(n.of_epoch(1), [(1, 0, 5)]);
        assert_eq!(n.len(), 4);

        let folded: Vec<_> = n.drain_below(1).collect();
        assert_eq!(folded, [(0, 0, 3), (0, 0, 4), (0, 1, 9)]);
        assert!(n.of_epoch(0).is_empty());
        assert_eq!(n.of_epoch(1), [(1, 0, 5)]);
        assert_eq!(n.drain_below(1).count(), 0, "draining is idempotent");
    }

    #[test]
    fn wire_bytes_counts_vc_and_pages() {
        assert_eq!(wire_bytes(3, 2), 3 * 4 + 2 * 4);
    }

    #[test]
    fn compact_vc_dense_at_small_nprocs() {
        // At ≤ DENSE_VC_MAX ranks the clock travels whole: the historical
        // `4 * nprocs` bytes.
        assert_eq!(wire_bytes(4, 0), 16);
        assert_eq!(wire_bytes(DENSE_VC_MAX, 0), 4 * DENSE_VC_MAX);
    }

    #[test]
    fn compact_vc_sparse_above_dense_max() {
        // 4-byte count header + the closer's one (rank, seq) pair: the
        // rest of its clock is the previous barrier's target, which every
        // processor already holds.
        assert_eq!(wire_bytes(16, 0), 4 + 8);
        // The billed clock does not grow with the cluster.
        assert_eq!(wire_bytes(256, 1), 4 + 8 + 4);
    }

    #[test]
    fn interval_rec_wire_uses_sparse_encoding_at_scale() {
        // One (rank, seq) pair behind the count at 64 ranks, plus 2 page
        // ids.
        assert_eq!(wire_bytes(64, 2), 12 + 8);
    }

    /// The clock's wire size is a closed form of the cluster size: dense
    /// up to `DENSE_VC_MAX` processors, one pair behind a count above.
    #[test]
    fn wire_bytes_is_the_closed_form_at_every_cluster_size() {
        for n in [1, 4, 8, 9, 64] {
            let clock = if n <= DENSE_VC_MAX { 4 * n } else { 4 + 8 };
            for pages in [0, 3] {
                assert_eq!(
                    wire_bytes(n, pages),
                    clock + 4 * pages,
                    "{n} procs, {pages} pages"
                );
            }
        }
    }

    proptest! {
        /// The vector timestamp TreadMarks ships round-trips at every
        /// cluster size. A closing interval's clock is the previous
        /// barrier's target with the closer's own component advanced.
        /// Small clocks travel dense (`4 * nprocs` bytes); large clocks
        /// travel as that one `(rank, seq)` pair behind a 4-byte count,
        /// and applying the pair to the receiver-known base recovers the
        /// exact clock.
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
            let mut decoded = base.clone();
            decoded[me] = vc[me];
            prop_assert_eq!(&decoded, &vc);
            let clock = if nprocs <= DENSE_VC_MAX { 4 * nprocs } else { 4 + 8 };
            prop_assert_eq!(wire_bytes(nprocs, pages), clock + 4 * pages);
            // Never more than the dense clock.
            prop_assert!(wire_bytes(nprocs, pages) <= 4 * nprocs + 4 * pages);
        }
    }
}
