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
//! Reading the store allocates nothing: [`DiffStore::collect_into`]
//! appends one writer's records of one page to the fetching processor's
//! reusable buffer (cloning a [`Record`] is two non-atomic reference
//! count bumps), [`DiffStore::collect_above_horizon`] appends what every
//! writer of a page published after its master copy, and
//! [`DiffStore::with_master`] / [`DiffStore::with_horizon`] lend the
//! master copy and the fold horizon in place for the caller to copy
//! straight into its page frame — the horizon is a shared snapshot, so
//! keeping it is a reference-count bump. That is what lets a warm fault
//! run without touching the heap.

use std::cell::RefCell;
use std::rc::Rc;

use simnet::ProcId;

use crate::diff::Payload;
use crate::interval::vc_key;
use crate::pagepool::PagePool;

/// One published modification of one page by one interval.
#[derive(Debug, Clone)]
pub struct Record {
    /// The processor whose interval published this record.
    pub proc: ProcId,
    /// That processor's interval sequence number (1-based).
    pub seq: u32,
    /// The publishing interval's vector clock.
    pub vc: Rc<[u32]>,
    /// The page modification itself (diff or full page).
    pub payload: Rc<Payload>,
}

impl Record {
    /// Deterministic causal sort key — see [`vc_key`].
    pub fn key(&self) -> (u64, usize, u32) {
        vc_key(&self.vc, self.proc, self.seq)
    }
}

/// One processor's records of one page.
#[derive(Debug)]
struct PageLog {
    /// The writer.
    proc: ProcId,
    /// Records with `seq <= folded_upto` have been folded into the master
    /// copy and dropped from `records`.
    folded_upto: u32,
    /// Retained records, ascending `seq`.
    records: Vec<Record>,
}

#[derive(Debug)]
struct Master {
    /// Pointwise: every record with `seq <= horizon[proc]` is folded. A
    /// snapshot: a fold that advances it installs a new one, so frames
    /// refilled from an older one keep reading it unchanged.
    horizon: Rc<[u32]>,
    /// Master copies indexed by page id (`None` = never folded).
    pages: Vec<Option<Box<[u8]>>>,
    /// [`DiffStore::fold`]'s `(page, record)` list (empty between folds).
    folding: Vec<(u32, Record)>,
}

/// See module docs.
///
/// The logs are page-major: `logs[page]` holds the page's writer logs
/// sorted by processor, so each read walks the page's few writers, not
/// the cluster. A log appears when its processor first publishes to the
/// page, and a missing log is semantic: with a pending notice it means
/// "fetch the master"; an existing log answers from its own
/// [`PageLog::folded_upto`].
#[derive(Debug)]
pub struct DiffStore {
    logs: RefCell<Vec<Vec<PageLog>>>,
    master: RefCell<Master>,
    /// Free-list shared with the owning cluster: master copies cycle
    /// through the same boxes as page frames and twins, keeping recycled
    /// runs allocation-neutral.
    pool: Rc<PagePool>,
}

impl DiffStore {
    /// An empty store for `nprocs` processors of `page_size`-byte pages,
    /// with a private page free-list.
    pub fn new(nprocs: usize, page_size: usize) -> Self {
        Self::with_pool(nprocs, page_size, Rc::new(PagePool::new(page_size)))
    }

    /// An empty store drawing page boxes from `pool` (the owning
    /// cluster's free-list).
    pub(crate) fn with_pool(nprocs: usize, _page_size: usize, pool: Rc<PagePool>) -> Self {
        DiffStore {
            logs: RefCell::new(Vec::new()),
            master: RefCell::new(Master {
                horizon: std::iter::repeat_n(0, nprocs).collect(),
                pages: Vec::new(),
                folding: Vec::new(),
            }),
            pool,
        }
    }

    /// Publish `payload` as processor `proc`'s interval `seq` modification
    /// of `page`.
    pub fn publish(&self, proc: ProcId, page: u32, seq: u32, vc: Rc<[u32]>, payload: Payload) {
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
                folded_upto: 0,
                records: Vec::new(),
            };
            writers.insert(i, log);
            i
        });
        let log = &mut writers[i];
        debug_assert!(
            log.records.last().is_none_or(|r| r.seq < seq),
            "records must be published in seq order"
        );
        log.records.push(Record {
            proc,
            seq,
            vc,
            payload: Rc::new(payload),
        });
    }

    /// Append `proc`'s records of `page` with `after < seq <= upto` to
    /// `out`, in ascending `seq`. Returns `needs_master`: some of those
    /// records were already folded, so the caller must fetch the master
    /// copy (and apply it before the records).
    pub(crate) fn collect_into(
        &self,
        proc: ProcId,
        page: u32,
        after: u32,
        upto: u32,
        out: &mut Vec<Record>,
    ) -> bool {
        let logs = self.logs.borrow();
        let writers = logs.get(page as usize).map_or(&[][..], Vec::as_slice);
        match writers.binary_search_by_key(&proc, |l| l.proc) {
            // A pending notice referenced a record but the whole log is
            // gone — everything was folded.
            Err(_) => after < upto,
            Ok(i) => {
                let log = &writers[i];
                let wanted = log
                    .records
                    .iter()
                    .filter(|r| r.seq > after && r.seq <= upto);
                out.extend(wanted.cloned());
                after < log.folded_upto
            }
        }
    }

    /// Append every writer's records of `page` newer than the fold
    /// horizon and no newer than `known(writer)` to `out`, writer by
    /// writer in processor order: what must be re-applied on top of the
    /// master copy. Walks the page's writers only.
    pub(crate) fn collect_above_horizon(
        &self,
        page: u32,
        known: impl Fn(ProcId) -> u32,
        out: &mut Vec<Record>,
    ) {
        let (logs, m) = (self.logs.borrow(), self.master.borrow());
        for log in logs.get(page as usize).into_iter().flatten() {
            let (h, upto) = (m.horizon[log.proc], known(log.proc));
            let newer = log.records.iter().filter(|r| r.seq > h && r.seq <= upto);
            out.extend(newer.cloned());
        }
    }

    /// Lend `f` the master copy of `page` (`None`: never folded, i.e. all
    /// zeros) and the fold horizon it is a snapshot at. The caller copies
    /// what it needs and charges the fetch to the page's manager.
    pub fn with_master<R>(&self, page: u32, f: impl FnOnce(Option<&[u8]>, &Rc<[u32]>) -> R) -> R {
        let m = self.master.borrow();
        f(
            m.pages.get(page as usize).and_then(Option::as_deref),
            &m.horizon,
        )
    }

    /// Lend `f` the current fold horizon (no page data) — used to decide
    /// whether a `Full` snapshot makes the master fetch unnecessary.
    pub fn with_horizon<R>(&self, f: impl FnOnce(&[u32]) -> R) -> R {
        f(&self.master.borrow().horizon)
    }

    /// Fold every record with `seq <= horizon[proc]` into the master
    /// copies and drop it. Called by the barrier leader while all
    /// processors are parked, so it cannot race with fetches.
    pub fn fold(&self, horizon: &[u32]) {
        let mut m = self.master.borrow_mut();
        let Master {
            horizon: folded_to,
            pages,
            folding,
        } = &mut *m;
        // Collect (page, record) of everything being folded, across all
        // writers, so application order is a linear extension of
        // happens-before.
        for (page, writers) in self.logs.borrow_mut().iter_mut().enumerate() {
            for log in writers {
                let h = horizon[log.proc];
                if h > log.folded_upto {
                    let keep = log.records.partition_point(|r| r.seq <= h);
                    folding.extend(log.records.drain(..keep).map(|r| (page as u32, r)));
                    log.folded_upto = h;
                }
            }
        }
        // Keys are unique per page, so the unstable sort is the causal order.
        folding.sort_unstable_by_key(|(page, r)| (*page, r.key()));
        for (page, r) in folding.drain(..) {
            let idx = page as usize;
            if pages.len() <= idx {
                pages.resize_with(idx + 1, || None);
            }
            r.payload
                .apply(pages[idx].get_or_insert_with(|| self.pool.take_zeroed()));
        }
        if horizon.iter().zip(folded_to.iter()).any(|(&n, &h)| n > h) {
            let advanced = folded_to.iter().zip(horizon).map(|(&h, &n)| h.max(n));
            *folded_to = advanced.collect();
        }
    }

    /// Drop every record, return every master copy to the page pool,
    /// and zero the fold horizon, keeping each page's writer list's
    /// capacity. Part of [`crate::Cluster::recycle`]; must not race
    /// with fetches.
    pub fn reset(&self) {
        for writers in self.logs.borrow_mut().iter_mut() {
            writers.clear();
        }
        let mut m = self.master.borrow_mut();
        m.horizon = std::iter::repeat_n(0, m.horizon.len()).collect();
        self.pool.give_all(m.pages.drain(..).flatten());
    }

    /// Number of retained (unfolded) records — memory-bound test hook.
    pub fn retained_records(&self) -> usize {
        let logs = self.logs.borrow();
        logs.iter().flatten().map(|l| l.records.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diff::Diff;

    fn diff_payload(page_size: usize, off: usize, val: u8) -> Payload {
        let twin = vec![0u8; page_size];
        let mut cur = twin.clone();
        cur[off..off + 8].fill(val);
        Payload::Diff(Diff::create(&twin, &cur))
    }

    /// `collect_into` on a fresh buffer: `(needs_master, [(proc, seq)])`.
    fn collect(s: &DiffStore, q: usize, page: u32, a: u32, u: u32) -> (bool, Vec<(usize, u32)>) {
        let mut out = Vec::new();
        let master = s.collect_into(q, page, a, u, &mut out);
        (master, out.iter().map(|r| (r.proc, r.seq)).collect())
    }

    #[test]
    fn publish_collect_roundtrip() {
        let s = DiffStore::new(2, 64);
        s.publish(0, 7, 1, vec![1, 0].into(), diff_payload(64, 0, 1));
        s.publish(0, 7, 2, vec![2, 0].into(), diff_payload(64, 8, 2));
        assert_eq!(collect(&s, 0, 7, 0, 2), (false, vec![(0, 1), (0, 2)]));
        assert_eq!(collect(&s, 0, 7, 1, 2), (false, vec![(0, 2)]));
    }

    #[test]
    fn collect_into_matches_a_naive_filter_over_the_log() {
        let s = DiffStore::new(2, 64);
        // Per (proc, page): the seqs published. The fold drops proc 0's
        // seqs ≤ 2; page 11 has no log at all.
        let logs = [((0, 7), &[1, 2, 3][..]), ((0, 9), &[2, 4]), ((1, 9), &[1])];
        for &((q, page), seqs) in &logs {
            for &seq in seqs {
                s.publish(q, page, seq, vec![seq; 2].into(), diff_payload(64, 0, 3));
            }
        }
        let folded_upto = [2, 0];
        s.fold(&folded_upto);
        let mut out = Vec::new(); // one buffer across requests, as a fetch uses it
        for (q, page) in [(0, 7), (0, 9), (0, 11), (1, 7), (1, 9), (1, 11)] {
            let log = logs.iter().find(|l| l.0 == (q, page)).map(|l| l.1);
            for (after, upto) in [(0, 4), (1, 3), (2, 4), (3, 3), (0, 0)] {
                let live = |&&seq: &&u32| seq > after.max(folded_upto[q]) && seq <= upto;
                let want: Vec<_> = log
                    .iter()
                    .flat_map(|l| l.iter().filter(live).map(|&seq| (q, seq)))
                    .collect();
                let want_master = after < log.map_or(upto, |_| folded_upto[q]);
                let start = out.len();
                let master = s.collect_into(q, page, after, upto, &mut out);
                let got: Vec<_> = out[start..].iter().map(|r| (r.proc, r.seq)).collect();
                assert_eq!(
                    (master, got),
                    (want_master, want),
                    "proc {q} page {page} ({after}, {upto}]"
                );
            }
        }
    }

    #[test]
    fn collect_missing_log_wants_master() {
        let s = DiffStore::new(2, 64);
        assert_eq!(collect(&s, 1, 3, 0, 5), (true, vec![]));
        // ... but if nothing is actually needed, no master either.
        assert_eq!(collect(&s, 1, 3, 5, 5), (false, vec![]));
    }

    #[test]
    fn fold_moves_content_to_master() {
        let s = DiffStore::new(2, 64);
        s.publish(0, 9, 1, vec![1, 0].into(), diff_payload(64, 0, 0xAA));
        s.publish(0, 9, 2, vec![2, 0].into(), diff_payload(64, 8, 0xBB));
        // Before any fold the master is absent (all zeros), at horizon 0.
        s.with_master(9, |data, horizon| {
            assert!(data.is_none());
            assert_eq!(horizon[..], [0, 0]);
        });
        s.fold(&[1, 0]);
        assert_eq!(s.retained_records(), 1);
        assert_eq!(
            collect(&s, 0, 9, 0, 2),
            (true, vec![(0, 2)]),
            "record 1 lives in the master now"
        );

        s.with_master(9, |data, horizon| {
            let data = data.expect("page 9 was folded");
            assert_eq!(horizon[..], [1, 0]);
            assert!(data[0..8].iter().all(|&b| b == 0xAA));
            assert!(data[8..16].iter().all(|&b| b == 0));
        });
        s.with_master(8, |data, _| assert!(data.is_none(), "page 8 never folded"));
        assert_eq!(s.with_horizon(<[u32]>::to_vec), [1, 0]);
    }

    #[test]
    fn fold_applies_in_causal_order() {
        // Two full-page snapshots where the later must win.
        let s = DiffStore::new(2, 16);
        s.publish(
            0,
            0,
            1,
            vec![1, 0].into(),
            Payload::Full(vec![1u8; 16].into_boxed_slice()),
        );
        // proc 1 saw proc 0's interval (vc=[1,1]) then wrote everything.
        s.publish(
            1,
            0,
            1,
            vec![1, 1].into(),
            Payload::Full(vec![2u8; 16].into_boxed_slice()),
        );
        s.fold(&[1, 1]);
        s.with_master(0, |data, _| assert!(data.unwrap().iter().all(|&b| b == 2)));
    }

    #[test]
    fn fold_is_idempotent_and_monotone() {
        let s = DiffStore::new(1, 16);
        s.publish(0, 0, 1, vec![1].into(), diff_payload(16, 0, 5));
        s.fold(&[1]);
        s.fold(&[1]);
        s.fold(&[0]); // cannot lower the horizon
        assert_eq!(s.with_horizon(<[u32]>::to_vec), [1]);
        assert_eq!(s.retained_records(), 0);
    }

    #[test]
    fn only_an_advancing_fold_replaces_the_horizon_snapshot() {
        let s = DiffStore::new(2, 16);
        s.publish(0, 0, 1, vec![1, 0].into(), diff_payload(16, 0, 5));
        s.fold(&[1, 0]);
        let kept = s.with_master(0, |_, h| Rc::clone(h));
        s.fold(&[1, 0]);
        s.fold(&[0, 0]);
        assert!(
            s.with_master(0, |_, h| Rc::ptr_eq(h, &kept)),
            "no advance, same snapshot"
        );
        s.fold(&[1, 2]);
        assert_eq!(s.with_horizon(<[u32]>::to_vec), [1, 2]);
        assert_eq!(kept[..], [1, 0], "a frame's floor never moves under it");
    }

    #[test]
    fn master_recollect_walks_only_the_pages_writers() {
        // Page 5's only writers are procs 3 and 60 of 64; proc 7 writes
        // page 6 only.
        let s = DiffStore::new(64, 64);
        for seq in 1..=3 {
            for q in [60, 3] {
                let payload = diff_payload(64, 8 * (q % 8), seq as u8);
                s.publish(q, 5, seq, vec![seq; 64].into(), payload);
            }
        }
        s.publish(7, 6, 1, vec![1; 64].into(), diff_payload(64, 0, 1));
        let mut horizon = vec![0; 64];
        (horizon[3], horizon[60], horizon[7]) = (1, 2, 1);
        s.fold(&horizon);
        let asked = RefCell::new(Vec::new());
        let mut out = Vec::new();
        let known = |q| {
            asked.borrow_mut().push(q);
            if q == 3 {
                2
            } else {
                3
            }
        };
        s.collect_above_horizon(5, known, &mut out);
        assert_eq!(
            asked.into_inner(),
            [3, 60],
            "the page's writers, in proc order"
        );
        let got: Vec<_> = out.iter().map(|r| (r.proc, r.seq)).collect();
        assert_eq!(
            got,
            [(3, 2), (60, 3)],
            "above the horizon, up to what is known"
        );
        out.clear();
        s.collect_above_horizon(6, |_| 1, &mut out);
        assert!(out.is_empty(), "proc 7's one record is folded");
        s.collect_above_horizon(11, |_| unreachable!("page 11 has no writers"), &mut out);
    }
}
