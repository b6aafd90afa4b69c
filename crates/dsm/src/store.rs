//! The published-record store: where closed intervals' diffs live until
//! fetched, plus the garbage-collection "master" copies.
//!
//! In real TreadMarks each modifier retains its diffs and serves them on
//! request; periodically a garbage collection validates every page and
//! reclaims diff storage. Here the records live in a store indexed by
//! page, then by creating processor (requests are still *charged* to
//! that processor), and GC folds old records into a per-page **master
//! copy** held by the page's manager (`page % nprocs`). A processor
//! whose copy of a page is older than the fold horizon fetches the
//! master page plus any newer records — the analogue of TreadMarks
//! fetching the whole page after GC.
//!
//! Records are named by writer and barrier epoch (see
//! [`crate::interval`]), each writer's log of a page is in epoch order,
//! and the write-notice list names every unfolded record in causal
//! order, so a fold drains exactly the records it folds. The fold
//! horizon is an epoch: every record of an epoch below it is in the
//! master copies.
//!
//! Reading the store allocates nothing: [`DiffStore::collect_into`] and
//! [`DiffStore::collect_above_horizon`] append to the fetching
//! processor's reusable buffer (cloning a [`Record`] is a non-atomic
//! reference count bump), and [`DiffStore::with_master`] lends the
//! master copy in place for the caller to copy straight into its page
//! frame. That is what lets a warm fault run without touching the heap.

use std::cell::RefCell;
use std::rc::Rc;

use simnet::ProcId;

use crate::diff::Payload;
use crate::interval::{Notice, Notices};
use crate::pagepool::PagePool;

/// One published modification of one page by one interval.
#[derive(Debug, Clone)]
pub(crate) struct Record {
    /// The processor whose interval published this record.
    pub(crate) proc: ProcId,
    /// The barrier epoch that interval closed in.
    pub(crate) epoch: u32,
    /// The page modification itself (diff or full page).
    pub(crate) payload: Rc<Payload>,
}

/// One processor's records of one page.
#[derive(Debug)]
struct PageLog {
    /// The writer.
    proc: ProcId,
    /// One past the epoch of the newest record folded into the master
    /// copy (0: none).
    folded: u32,
    /// Retained records, ascending epoch.
    records: Vec<Record>,
}

#[derive(Debug)]
struct Master {
    /// Every record of an epoch below it is folded.
    horizon: u32,
    /// Per processor, one past the epoch of its newest folded interval
    /// (0: none) — TreadMarks's per-writer interval count at the
    /// horizon, which decides when a copy needs the master page.
    last_folded: Vec<u32>,
    /// Master copies indexed by page id (`None` = never folded).
    pages: Vec<Option<Box<[u8]>>>,
}

/// See module docs.
///
/// The logs are page-major: `logs[page]` holds the page's writer logs
/// sorted by processor, so each read walks the page's few writers, not
/// the cluster. A log appears when its processor first publishes to the
/// page.
#[derive(Debug)]
pub(crate) struct DiffStore {
    logs: RefCell<Vec<Vec<PageLog>>>,
    notices: RefCell<Notices>,
    master: RefCell<Master>,
    /// Free-list shared with the owning cluster: master copies cycle
    /// through the same boxes as page frames and twins, keeping recycled
    /// runs allocation-neutral.
    pool: Rc<PagePool>,
}

impl DiffStore {
    /// An empty store for `nprocs` processors drawing page boxes from
    /// `pool` (the owning cluster's free-list).
    pub(crate) fn with_pool(nprocs: usize, pool: Rc<PagePool>) -> Self {
        DiffStore {
            logs: RefCell::new(Vec::new()),
            notices: RefCell::new(Notices::default()),
            master: RefCell::new(Master {
                horizon: 0,
                last_folded: vec![0; nprocs],
                pages: Vec::new(),
            }),
            pool,
        }
    }

    /// Publish `payload` as processor `proc`'s modification of `page` in
    /// its interval of `epoch`, with its write notice.
    pub(crate) fn publish(&self, proc: ProcId, page: u32, epoch: u32, payload: Payload) {
        self.notices.borrow_mut().publish(epoch, proc, page);
        let mut logs = self.logs.borrow_mut();
        let idx = page as usize;
        if logs.len() <= idx {
            logs.resize_with(idx + 1, Vec::new);
        }
        let writers = &mut logs[idx];
        let i = writers.binary_search_by_key(&proc, |l| l.proc);
        let i = i.unwrap_or_else(|i| {
            let log = PageLog {
                proc,
                folded: 0,
                records: Vec::new(),
            };
            writers.insert(i, log);
            i
        });
        let log = &mut writers[i];
        debug_assert!(
            log.records.last().is_none_or(|r| r.epoch < epoch),
            "one interval per writer per epoch, published in epoch order"
        );
        log.records.push(Record {
            proc,
            epoch,
            payload: Rc::new(payload),
        });
    }

    /// Sort the notices of `epoch` — the epoch a barrier is ending — and
    /// lend them to `f` in `(epoch, writer, page)` order.
    pub(crate) fn seal<R>(&self, epoch: u32, f: impl FnOnce(&[Notice]) -> R) -> R {
        let mut notices = self.notices.borrow_mut();
        notices.seal(epoch);
        f(notices.of_epoch(epoch))
    }

    /// Lend `f` the sealed notices of `epoch`: a barrier's digest.
    pub(crate) fn with_notices<R>(&self, epoch: u32, f: impl FnOnce(&[Notice]) -> R) -> R {
        f(self.notices.borrow().of_epoch(epoch))
    }

    /// Append what a copy of `page` held by `me` misses at epoch `now`,
    /// if it reflects every other writer's records of epochs below
    /// `synced` and was last refilled from the master at fold horizon
    /// `refill`: each other writer's records of epochs `synced..now`,
    /// writer by writer in epoch order. Returns `needs_master`: the copy
    /// must be refilled from the master page first.
    ///
    /// TreadMarks numbers each writer's intervals, and a writer with new
    /// records needs the master when the copy's last interval of that
    /// writer is below the writer's folded count — when some of the new
    /// records were folded, but also when only the writer's intervals on
    /// other pages were. The epoch form keeps that rule: the copy's last
    /// interval of the writer is its newest record of the page before
    /// `synced`, or the refill horizon if that is newer.
    pub(crate) fn collect_into(
        &self,
        page: u32,
        me: ProcId,
        (synced, refill): (u32, u32),
        now: u32,
        out: &mut Vec<Record>,
    ) -> bool {
        let (logs, m) = (self.logs.borrow(), self.master.borrow());
        let mut master = false;
        for log in logs.get(page as usize).into_iter().flatten() {
            if log.proc == me {
                continue; // own records are always reflected
            }
            let new = log.records.partition_point(|r| r.epoch < synced);
            let upto = log.records.partition_point(|r| r.epoch < now);
            if log.folded > synced {
                master = true; // a new record was folded
            } else if new < upto {
                let seen = log.records[..new]
                    .last()
                    .map_or(log.folded, |r| r.epoch + 1);
                master |= m.last_folded[log.proc] > seen.max(refill);
            }
            out.extend(log.records[new..upto].iter().cloned());
        }
        master
    }

    /// Append every writer's records of `page` of epochs below `now` —
    /// all of them newer than the fold horizon — to `out`, writer by
    /// writer in processor order: what must be re-applied on top of the
    /// master copy. Walks the page's writers only.
    pub(crate) fn collect_above_horizon(&self, page: u32, now: u32, out: &mut Vec<Record>) {
        let logs = self.logs.borrow();
        for log in logs.get(page as usize).into_iter().flatten() {
            out.extend(log.records.iter().take_while(|r| r.epoch < now).cloned());
        }
    }

    /// Lend `f` the master copy of `page` (`None`: never folded, i.e. all
    /// zeros) and the fold horizon it is a snapshot at. The caller copies
    /// what it needs and charges the fetch to the page's manager.
    pub(crate) fn with_master<R>(&self, page: u32, f: impl FnOnce(Option<&[u8]>, u32) -> R) -> R {
        let m = self.master.borrow();
        f(
            m.pages.get(page as usize).and_then(Option::as_deref),
            m.horizon,
        )
    }

    /// Fold every record of an epoch below `horizon` into the master
    /// copies and drop it, in the notice list's causal order: work
    /// proportional to the records folded. Called by the barrier leader
    /// while all processors are parked, so it cannot race with fetches.
    /// A horizon at or below the current one folds nothing.
    pub(crate) fn fold(&self, horizon: u32) {
        let mut m = self.master.borrow_mut();
        if horizon <= m.horizon {
            return;
        }
        m.horizon = horizon;
        let Master {
            last_folded, pages, ..
        } = &mut *m;
        let mut logs = self.logs.borrow_mut();
        for (epoch, proc, page) in self.notices.borrow_mut().drain_below(horizon) {
            let writers = &mut logs[page as usize];
            let i = writers.binary_search_by_key(&(proc as usize), |l| l.proc);
            let log = &mut writers[i.expect("a notice names a published record")];
            let r = log.records.remove(0);
            debug_assert_eq!(
                r.epoch, epoch,
                "a log's oldest record is the oldest notice's"
            );
            log.folded = epoch + 1;
            last_folded[proc as usize] = epoch + 1;
            let idx = page as usize;
            if pages.len() <= idx {
                pages.resize_with(idx + 1, || None);
            }
            r.payload
                .apply(pages[idx].get_or_insert_with(|| self.pool.take_zeroed()));
        }
    }

    /// Drop every record and notice, return every master copy to the
    /// page pool, and zero the fold horizon, keeping each page's writer
    /// list's capacity. Part of [`crate::Cluster::recycle`]; must not
    /// race with fetches.
    pub(crate) fn reset(&self) {
        for writers in self.logs.borrow_mut().iter_mut() {
            writers.clear();
        }
        self.notices.borrow_mut().clear();
        let mut m = self.master.borrow_mut();
        m.horizon = 0;
        m.last_folded.fill(0);
        self.pool.give_all(m.pages.drain(..).flatten());
    }

    /// Number of retained (unfolded) records — memory-bound test hook.
    pub(crate) fn retained_records(&self) -> usize {
        self.notices.borrow().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diff::Diff;

    fn store(nprocs: usize, page_size: usize) -> DiffStore {
        DiffStore::with_pool(nprocs, Rc::new(PagePool::new(page_size)))
    }

    fn diff_payload(page_size: usize, off: usize, val: u8) -> Payload {
        let twin = vec![0u8; page_size];
        let mut cur = twin.clone();
        cur[off..off + 8].fill(val);
        Payload::Diff(Diff::create(&twin, &cur))
    }

    /// Publish `(proc, page, payload)` as the intervals of `epoch`, and
    /// seal the epoch as its barrier would.
    fn publish_epoch(s: &DiffStore, epoch: u32, recs: Vec<(usize, u32, Payload)>) {
        for (q, page, payload) in recs {
            s.publish(q, page, epoch, payload);
        }
        s.seal(epoch, |_| ());
    }

    /// `collect_into` on a fresh buffer: `(needs_master, [(proc, epoch)])`.
    fn collect(
        s: &DiffStore,
        page: u32,
        me: usize,
        seen: (u32, u32),
        now: u32,
    ) -> (bool, Vec<(usize, u32)>) {
        let mut out = Vec::new();
        let master = s.collect_into(page, me, seen, now, &mut out);
        (master, out.iter().map(|r| (r.proc, r.epoch)).collect())
    }

    #[test]
    fn publish_collect_roundtrip() {
        let s = store(2, 64);
        publish_epoch(&s, 0, vec![(0, 7, diff_payload(64, 0, 1))]);
        publish_epoch(&s, 1, vec![(0, 7, diff_payload(64, 8, 2))]);
        assert_eq!(collect(&s, 7, 1, (0, 0), 2), (false, vec![(0, 0), (0, 1)]));
        assert_eq!(collect(&s, 7, 1, (1, 0), 2), (false, vec![(0, 1)]));
        assert_eq!(
            collect(&s, 7, 1, (0, 0), 1),
            (false, vec![(0, 0)]),
            "not past now"
        );
        assert_eq!(
            collect(&s, 7, 0, (0, 0), 2),
            (false, vec![]),
            "own records are reflected"
        );
    }

    /// The master rule against TreadMarks's own formulation: a writer
    /// with new records needs the master copy when the copy's count of
    /// that writer's intervals is below the writer's count at the fold
    /// horizon.
    #[test]
    fn collect_into_matches_a_naive_filter_over_the_log() {
        // Per (proc, page): the epochs it wrote the page in. Proc 1's
        // epoch-1 and epoch-3 intervals touch page 9 only.
        let logs = [
            ((0, 7), &[0, 1, 4][..]),
            ((0, 9), &[2, 5]),
            ((1, 9), &[1, 3]),
        ];
        let s = store(3, 64);
        for epoch in 0..6 {
            let recs = logs
                .iter()
                .filter(|(_, es)| es.contains(&epoch))
                .map(|&((q, page), _)| (q, page, diff_payload(64, 8 * q, 3)))
                .collect();
            publish_epoch(&s, epoch, recs);
        }
        let horizon = 3;
        s.fold(horizon);
        // Intervals of `q` in epochs below `e`, whatever page they wrote.
        let count = |q: usize, e: u32| {
            let mut closes: Vec<u32> = logs
                .iter()
                .filter(|l| l.0 .0 == q)
                .flat_map(|l| l.1.iter().copied())
                .collect();
            closes.sort_unstable();
            closes.dedup();
            closes.iter().filter(|&&c| c < e).count()
        };
        let mut out = Vec::new(); // one buffer across requests, as a fetch uses it
        for page in [7, 9, 11] {
            for me in 0..3 {
                for (synced, refill, now) in [
                    (0, 0, 6),
                    (2, 0, 6),
                    (3, 1, 5),
                    (4, 3, 6),
                    (6, 0, 6),
                    (1, 0, 3),
                ] {
                    let mut want = Vec::new();
                    let mut want_master = false;
                    for &((q, pg), epochs) in &logs {
                        if pg != page || q == me {
                            continue;
                        }
                        let new: Vec<u32> = epochs
                            .iter()
                            .copied()
                            .filter(|&e| e >= synced && e < now)
                            .collect();
                        if new.is_empty() {
                            continue;
                        }
                        let seen = epochs
                            .iter()
                            .filter(|&&e| e < synced)
                            .max()
                            .map_or(0, |e| e + 1);
                        want_master |= count(q, seen.max(refill)) < count(q, horizon);
                        want.extend(new.iter().filter(|&&e| e >= horizon).map(|&e| (q, e)));
                    }
                    let start = out.len();
                    let master = s.collect_into(page, me, (synced, refill), now, &mut out);
                    let got: Vec<_> = out[start..].iter().map(|r| (r.proc, r.epoch)).collect();
                    assert_eq!(
                        (master, got),
                        (want_master, want),
                        "page {page}, proc {me}, synced {synced}, refill {refill}, now {now}"
                    );
                }
            }
        }
    }

    #[test]
    fn fold_moves_content_to_master() {
        let s = store(2, 64);
        publish_epoch(&s, 0, vec![(0, 9, diff_payload(64, 0, 0xAA))]);
        publish_epoch(&s, 1, vec![(0, 9, diff_payload(64, 8, 0xBB))]);
        // Before any fold the master is absent (all zeros), at horizon 0.
        s.with_master(9, |data, horizon| {
            assert!(data.is_none());
            assert_eq!(horizon, 0);
        });
        s.fold(1);
        assert_eq!(s.retained_records(), 1);
        assert_eq!(
            collect(&s, 9, 1, (0, 0), 2),
            (true, vec![(0, 1)]),
            "the epoch-0 record lives in the master now"
        );
        s.with_master(9, |data, horizon| {
            let data = data.expect("page 9 was folded");
            assert_eq!(horizon, 1);
            assert!(data[0..8].iter().all(|&b| b == 0xAA));
            assert!(data[8..16].iter().all(|&b| b == 0));
        });
        s.with_master(8, |data, _| assert!(data.is_none(), "page 8 never folded"));
    }

    #[test]
    fn fold_applies_in_causal_order() {
        // Full-page snapshots: the later epoch wins whatever the writers'
        // ranks, and within one epoch the higher rank applies last.
        let s = store(3, 16);
        let full = |b: u8| Payload::Full(vec![b; 16].into_boxed_slice());
        publish_epoch(
            &s,
            0,
            vec![(2, 0, full(1)), (1, 1, full(3)), (0, 1, full(4))],
        );
        publish_epoch(&s, 1, vec![(0, 0, full(2))]);
        s.fold(2);
        s.with_master(0, |data, _| assert!(data.unwrap().iter().all(|&b| b == 2)));
        s.with_master(1, |data, _| assert!(data.unwrap().iter().all(|&b| b == 3)));
    }

    #[test]
    fn fold_is_idempotent_and_monotone() {
        let s = store(1, 16);
        publish_epoch(&s, 0, vec![(0, 0, diff_payload(16, 0, 5))]);
        s.fold(1);
        s.fold(1);
        s.fold(0); // cannot lower the horizon
        s.with_master(0, |_, horizon| assert_eq!(horizon, 1));
        assert_eq!(s.retained_records(), 0);
    }

    #[test]
    fn master_recollect_walks_only_the_pages_writers() {
        // Page 5's only writers are procs 3 and 60 of 64; proc 7 writes
        // page 6 only.
        let s = store(64, 64);
        for epoch in 0..3 {
            let mut recs: Vec<_> = [60, 3]
                .into_iter()
                .map(|q| (q, 5, diff_payload(64, 8 * (q % 8), epoch as u8)))
                .collect();
            if epoch == 0 {
                recs.push((7, 6, diff_payload(64, 0, 1)));
            }
            publish_epoch(&s, epoch, recs);
        }
        s.fold(1);
        let mut out = Vec::new();
        s.collect_above_horizon(5, 2, &mut out);
        let got: Vec<_> = out.iter().map(|r| (r.proc, r.epoch)).collect();
        assert_eq!(
            got,
            [(3, 1), (60, 1)],
            "above the horizon, below now, in proc order"
        );
        out.clear();
        s.collect_above_horizon(6, 3, &mut out);
        assert!(out.is_empty(), "proc 7's one record is folded");
        s.collect_above_horizon(11, 3, &mut out);
        assert!(out.is_empty(), "page 11 has no writers");
    }
}
