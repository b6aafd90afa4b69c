//! Per-processor protocol engine: the page table, the software MMU, the
//! fault/fetch/apply paths, interval close, and the watch mechanism that
//! `Validate` uses to detect indirection-array changes.

use std::sync::Arc;

use simnet::{MsgKind, ProcId, SimTime, StallCat, TraceEvent};

use crate::cluster::Cluster;
use crate::diff::{Diff, Payload};
use crate::heap::{Pod, SharedSlice};
use crate::interval::{IntervalRec, Vc};
use crate::policy::ProtocolPolicy;
use crate::store::Record;
use crate::FetchClass;

/// Access state of one page in one processor's view — the analogue of the
/// `mprotect` setting TreadMarks would have on that page.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PageState {
    /// Invalidated by a write notice (or never touched): any access faults.
    #[default]
    Invalid,
    /// Valid and write-protected: reads proceed, first write faults.
    Read,
    /// Valid and writable: a twin exists (or the page is marked
    /// whole-page-write) and the page is on the dirty list.
    Write,
}

#[derive(Debug, Default)]
struct Frame {
    state: PageState,
    data: Option<Box<[u8]>>,
    twin: Option<Box<[u8]>>,
    /// `WRITE_ALL`: no twin; interval close publishes the full page.
    full_write: bool,
    /// `Validate` write-watch armed: next local write fires the watchers.
    watch_protect: bool,
    /// This page has registered watchers (slow-path lookup on events).
    watched: bool,
    /// Highest interval of each processor whose modification of this page
    /// is reflected in `data`: sparse `(proc, seq)` pairs sorted by proc
    /// (absent means 0). A page only ever has a handful of writers, so
    /// this stays a few entries at 256 processors instead of a dense
    /// 256-slot array per (page, processor).
    applied: Vec<(u32, u32)>,
    /// Write notices seen but not yet fetched: `(proc, seq)`.
    pending: Vec<(ProcId, u32)>,
}

impl Frame {
    #[inline]
    fn dirty(&self) -> bool {
        self.twin.is_some() || self.full_write
    }

    /// Highest applied interval of `q` (0 if none).
    #[inline]
    fn applied_of(&self, q: ProcId) -> u32 {
        match self.applied.binary_search_by_key(&(q as u32), |&(p, _)| p) {
            Ok(i) => self.applied[i].1,
            Err(_) => 0,
        }
    }

    #[inline]
    fn set_applied(&mut self, q: ProcId, seq: u32) {
        match self.applied.binary_search_by_key(&(q as u32), |&(p, _)| p) {
            Ok(i) => self.applied[i].1 = seq,
            Err(i) => self.applied.insert(i, (q as u32, seq)),
        }
    }
}

/// Event counters a processor accumulates; surfaced in reports and tests.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProcCounters {
    /// Read faults taken on invalid pages.
    pub read_faults: u64,
    /// Write faults (protection or invalid-page).
    pub write_faults: u64,
    /// Twins created at first write of an interval.
    pub twins_made: u64,
    /// Non-empty diffs published at interval close.
    pub diffs_created: u64,
    /// Full pages published (`WRITE_ALL` paths).
    pub fulls_published: u64,
    /// Pages brought up to date by fetches of any class.
    pub pages_fetched: u64,
    /// Diff/full records applied to local frames.
    pub records_applied: u64,
    /// Whole-page master-copy fetches (post-GC path).
    pub master_fetches: u64,
    /// Intervals closed with at least one published payload.
    pub intervals_closed: u64,
    /// Barriers crossed.
    pub barriers: u64,
    /// Lock acquisitions.
    pub lock_acquires: u64,
}

/// A policy-deferred batched fetch: armed at a barrier, owned by the
/// phase (barrier site) that predicted it, triggered by the next demand
/// fault, and discarded — *quiesced* — when its pages are
/// re-invalidated untouched or the run ends.
#[derive(Debug)]
pub(crate) struct DeferredPlan {
    pub(crate) pages: Vec<u32>,
    pub(crate) phase: u32,
    /// Barrier epoch the plan was armed at: a plan that outlives
    /// [`DeferredPlan::STALE_EPOCHS`] barriers is quiesced even if its
    /// phase never recurs and its pages are never re-invalidated (a
    /// tagged loop that simply ended), so it cannot linger armed until
    /// an unrelated fault flushes its stale pages into an exchange.
    pub(crate) armed_at: u64,
}

impl DeferredPlan {
    pub(crate) const STALE_EPOCHS: u64 = 16;
}

/// Persistent per-processor state (survives across [`Cluster::run`] calls).
#[derive(Debug)]
pub(crate) struct ProcInner {
    frames: Vec<Frame>,
    vc: Vc,
    dirty: Vec<u32>,
    /// Watch keys registered per page, indexed by page id (empty for
    /// unwatched pages; lookups are gated by `Frame::watched` anyway).
    watchers: Vec<Vec<usize>>,
    watch_flags: Vec<bool>,
    /// Pages that fired each watch since the last take (supports the
    /// paper's future-work extension: incremental page-set recompute).
    watch_dirty: Vec<Vec<u32>>,
    pub(crate) counters: ProcCounters,
    pub(crate) last_barrier_seen: Vc,
    /// The protocol decision layer (`None`: base TreadMarks — plain
    /// demand paging, no policy counter ever touched).
    pub(crate) policy: Option<Box<dyn ProtocolPolicy>>,
    /// Armed policy-deferred plans, at most one per phase (the quiesce
    /// heuristic). The epoch's first demand fault triggers them all in
    /// one merged exchange.
    pub(crate) deferred: Vec<DeferredPlan>,
    /// Update-push schedules subscribed so far, per phase (flat, sorted
    /// page vecs): the cumulative `(serving peer, pages)` union the
    /// writers have been taught. A push round covering pages beyond a
    /// peer's known set re-subscribes (one one-way `AdaptSub` message
    /// per grown peer).
    pub(crate) push_scheds: Vec<(u32, PushSched)>,
    /// The fetch path's temporaries.
    scratch: FetchScratch,
    /// The pages the last barrier's write notices invalidated, sorted
    /// and deduplicated — refilled in place at every barrier.
    pub(crate) invalidated: Vec<u32>,
    /// Interval close's non-empty payloads on their way to the store
    /// (empty between closes; kept for its capacity).
    payloads: Vec<(u32, Payload)>,
}

/// One phase's cumulative push subscriptions: each serving peer with
/// the sorted set of pages it has been taught to push.
pub(crate) type PushSched = Vec<(ProcId, Vec<u32>)>;

/// Every temporary of one [`TmkProc::fetch_pages`] call, kept per
/// processor: emptied when the call ends — no [`Record`] outlives its
/// fetch, so the store's GC still frees what it folds — but kept, with
/// its capacity, across calls and across [`Cluster::recycle`]. One code
/// path serves every fetch class, and once warm it allocates nothing.
#[derive(Debug, Default)]
struct FetchScratch {
    /// One entry per invalid page of the fetch, in request order.
    needs: Vec<Need>,
    /// Every needed record, grouped by page, each group causally sorted.
    records: Vec<Record>,
    /// `(serving peer, page, reply bytes)` per record or master copy,
    /// sorted — grouped by peer — before billing and subscribing.
    served: Vec<(ProcId, u32, usize)>,
    /// The round's legs as `simnet` takes them (pull or push shape).
    pull: Vec<(ProcId, MsgKind, usize, MsgKind, usize)>,
    push: Vec<(ProcId, MsgKind, usize)>,
}

/// One invalid page of a fetch.
#[derive(Debug)]
struct Need {
    page: u32,
    /// Its records in [`FetchScratch::records`].
    records: std::ops::Range<usize>,
    /// Apply the GC master copy before the records.
    master: bool,
}

impl FetchScratch {
    fn clear(&mut self) {
        self.needs.clear();
        self.records.clear();
        self.served.clear();
        self.pull.clear();
        self.push.clear();
    }
}

impl ProcInner {
    pub(crate) fn new(nprocs: usize) -> Self {
        ProcInner {
            frames: Vec::new(),
            vc: vec![0; nprocs],
            dirty: Vec::new(),
            watchers: Vec::new(),
            watch_flags: Vec::new(),
            watch_dirty: Vec::new(),
            counters: ProcCounters::default(),
            last_barrier_seen: vec![0; nprocs],
            policy: None,
            deferred: Vec::new(),
            push_scheds: Vec::new(),
            scratch: FetchScratch::default(),
            invalidated: Vec::new(),
            payloads: Vec::new(),
        }
    }

    pub(crate) fn ensure_frames(&mut self, npages: usize) {
        if self.frames.len() < npages {
            self.frames.resize_with(npages, Frame::default);
        }
    }

    /// Reset to the just-built state, surrendering page boxes to `give`
    /// but keeping every vector's capacity (and the frame table itself)
    /// for the next run — the per-processor half of
    /// [`crate::Cluster::recycle`].
    pub(crate) fn recycle(&mut self, give: &mut dyn FnMut(Box<[u8]>)) {
        for f in &mut self.frames {
            f.state = PageState::Invalid;
            if let Some(b) = f.data.take() {
                give(b);
            }
            if let Some(b) = f.twin.take() {
                give(b);
            }
            f.full_write = false;
            f.watch_protect = false;
            f.watched = false;
            f.applied.clear();
            f.pending.clear();
        }
        self.vc.fill(0);
        self.dirty.clear();
        self.watchers.clear();
        self.watch_flags.clear();
        self.watch_dirty.clear();
        self.counters = ProcCounters::default();
        self.last_barrier_seen.fill(0);
        self.policy = None;
        self.deferred.clear();
        self.push_scheds.clear();
    }
}

/// A simulated processor inside [`Cluster::run`]: rank, page table, and
/// the typed accessors that stand in for hardware loads/stores to shared
/// memory.
pub struct TmkProc<'c> {
    pub(crate) cl: &'c Cluster,
    pub(crate) me: ProcId,
    pub(crate) nprocs: usize,
    pub(crate) page_size: usize,
    /// `log2(page_size)`: the software MMU splits an address with a shift
    /// and a mask, not a division by a run-time value.
    pub(crate) page_shift: u32,
    pub(crate) inner: Box<ProcInner>,
}

impl<'c> TmkProc<'c> {
    /// This processor's rank, `0..nprocs`.
    #[inline]
    pub fn rank(&self) -> ProcId {
        self.me
    }

    /// Number of processors in the cluster.
    #[inline]
    pub fn nprocs(&self) -> usize {
        self.nprocs
    }

    /// The consistency unit in bytes.
    #[inline]
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// This processor's accumulated protocol event counters.
    pub fn counters(&self) -> &ProcCounters {
        &self.inner.counters
    }

    /// Simulated clock of this processor.
    pub fn now(&self) -> SimTime {
        self.cl.net().clock(self.me)
    }

    /// Charge modeled compute time (the application's "real work").
    #[inline]
    pub fn compute(&self, dt: SimTime) {
        self.cl.net().advance(self.me, dt);
    }

    // ------------------------------------------------------------------
    // Typed accessors: the software MMU.
    // ------------------------------------------------------------------

    /// Read element `i` of `s`, faulting (and fetching) if the page is
    /// invalid.
    #[inline]
    pub fn read<T: Pod>(&mut self, s: &SharedSlice<T>, i: usize) -> T {
        let byte = s.byte_at(i);
        let page = byte >> self.page_shift;
        if self.inner.frames[page].state == PageState::Invalid {
            self.read_fault(page as u32);
        }
        let off = byte & (self.page_size - 1);
        let f = &self.inner.frames[page];
        T::load(&f.data.as_ref().unwrap()[off..])
    }

    /// Write element `i` of `s`, faulting (fetch + twin) as needed.
    #[inline]
    pub fn write<T: Pod>(&mut self, s: &SharedSlice<T>, i: usize, v: T) {
        let byte = s.byte_at(i);
        let page = byte >> self.page_shift;
        {
            let f = &self.inner.frames[page];
            if f.state != PageState::Write || f.watch_protect {
                self.write_fault(page as u32);
            }
        }
        let off = byte & (self.page_size - 1);
        let f = &mut self.inner.frames[page];
        v.store(&mut f.data.as_mut().unwrap()[off..]);
    }

    /// Read-modify-write of a single element.
    #[inline]
    pub fn update<T: Pod>(&mut self, s: &SharedSlice<T>, i: usize, f: impl FnOnce(T) -> T) {
        let v = self.read(s, i);
        self.write(s, i, f(v));
    }

    /// Bulk read `s[lo..lo+out.len()]` into `out`.
    pub fn read_slice<T: Pod>(&mut self, s: &SharedSlice<T>, lo: usize, out: &mut [T]) {
        for (k, slot) in out.iter_mut().enumerate() {
            *slot = self.read(s, lo + k);
        }
    }

    /// Bulk write `src` into `s[lo..]`.
    pub fn write_slice<T: Pod>(&mut self, s: &SharedSlice<T>, lo: usize, src: &[T]) {
        for (k, &v) in src.iter().enumerate() {
            self.write(s, lo + k, v);
        }
    }

    // ------------------------------------------------------------------
    // Fault paths.
    // ------------------------------------------------------------------

    #[cold]
    fn read_fault(&mut self, page: u32) {
        let net = self.cl.net();
        let _fs = net.scope(self.me, StallCat::FaultStall);
        net.trace(self.me, TraceEvent::FaultBegin { page, write: false });
        self.inner.counters.read_faults += 1;
        self.note_miss(page);
        self.compute(net.cost().page_fault());
        self.demand_fetch(page);
        net.trace(self.me, TraceEvent::FaultEnd { page });
    }

    /// Demand-service a fault on `page`. If policy-deferred plans are
    /// armed, the fault triggers them all: the predicted pages of every
    /// live plan (plus the faulting page, which rides along free of its
    /// own demand pair) are fetched in one merged aggregated exchange,
    /// billed per owning phase. Otherwise plain TreadMarks: one
    /// request/reply pair for this page alone.
    ///
    /// A triggered plan is **consumer-initiated by definition** — the
    /// transfer happens at a moment only the faulting processor knows —
    /// so deferral exists only in pull mode; one-way `AdaptPush`
    /// billing is reserved for eager barrier-time pushes, the only
    /// shape the writer-subscription model can honestly claim.
    fn demand_fetch(&mut self, page: u32) {
        if self.inner.deferred.is_empty() {
            self.fetch_pages(&[page], FetchClass::Demand);
            return;
        }
        let mut merged: Vec<u32> = Vec::new();
        for plan in std::mem::take(&mut self.inner.deferred) {
            let before = merged.len();
            for &pg in &plan.pages {
                if self.page_invalid(pg) && !merged[..before].contains(&pg) {
                    merged.push(pg);
                }
            }
            let retained = merged.len() - before;
            if retained > 0 {
                let policy = self.cl.net().policy();
                policy.record_prefetch(self.me, plan.phase, retained);
            }
        }
        if merged.is_empty() {
            // Every predicted page turned out valid already: nothing of
            // the plans is left to move, so this is an ordinary fault.
            self.fetch_pages(&[page], FetchClass::Demand);
            return;
        }
        if !merged.contains(&page) {
            merged.push(page);
        }
        self.fetch_pages(&merged, FetchClass::Prefetch);
    }

    #[cold]
    fn write_fault(&mut self, page: u32) {
        let net = self.cl.net();
        let cost = net.cost();
        let _fs = net.scope(self.me, StallCat::FaultStall);
        net.trace(self.me, TraceEvent::FaultBegin { page, write: true });
        self.inner.counters.write_faults += 1;
        self.compute(cost.page_fault());
        // Validate's write-watch: the protection violation tells the
        // runtime the indirection array changed (paper §3.3).
        if self.inner.frames[page as usize].watch_protect {
            self.fire_watch(page);
            self.inner.frames[page as usize].watch_protect = false;
        }
        if self.inner.frames[page as usize].state == PageState::Invalid {
            self.note_miss(page);
            self.demand_fetch(page);
        }
        let page_size = self.page_size;
        let f = &mut self.inner.frames[page as usize];
        if f.state == PageState::Read {
            if !f.full_write && f.twin.is_none() {
                f.twin = Some(self.cl.page_pool().take_copy(f.data.as_ref().unwrap()));
                self.inner.counters.twins_made += 1;
                self.inner.dirty.push(page);
                self.cl.net().advance(self.me, cost.twin(page_size));
                self.cl.net().trace(self.me, TraceEvent::TwinCreate { page });
            }
            f.state = PageState::Write;
        }
        self.cl.net().trace(self.me, TraceEvent::FaultEnd { page });
    }

    /// Create twins and enable write access ahead of time — `Validate`
    /// does this for `WRITE`/`READ&WRITE` descriptors so the computation
    /// loop takes no write faults (paper §3.2, `Create_twins`).
    pub fn pre_twin(&mut self, pages: &[u32]) {
        let cost = self.cl.net().cost();
        let page_size = self.page_size;
        for &page in pages {
            // Granting write access counts as a (preempted) write fault
            // for the indirection-array watch.
            if self.inner.frames[page as usize].watch_protect {
                self.fire_watch(page);
                self.inner.frames[page as usize].watch_protect = false;
            }
            let f = &mut self.inner.frames[page as usize];
            debug_assert!(
                f.state != PageState::Invalid,
                "pre_twin on invalid page {page}: fetch first"
            );
            if f.state == PageState::Read && !f.full_write && f.twin.is_none() {
                f.twin = Some(self.cl.page_pool().take_copy(f.data.as_ref().unwrap()));
                self.inner.counters.twins_made += 1;
                self.inner.dirty.push(page);
                self.cl.net().advance(self.me, cost.twin(page_size));
                self.cl.net().trace(self.me, TraceEvent::TwinCreate { page });
                f.state = PageState::Write;
            }
        }
    }

    /// Declare that this processor will write `pages` in their entirety
    /// before the next release (`WRITE_ALL`): no twin is kept, no fetch is
    /// needed, and interval close publishes the whole page (paper §3.2).
    pub fn mark_full_write(&mut self, pages: &[u32]) {
        for &page in pages {
            if self.inner.frames[page as usize].watch_protect {
                self.fire_watch(page);
                self.inner.frames[page as usize].watch_protect = false;
            }
            let f = &mut self.inner.frames[page as usize];
            if f.data.is_none() {
                f.data = Some(self.cl.page_pool().take_zeroed());
            }
            if !f.dirty() {
                self.inner.dirty.push(page);
            }
            // Whatever was pending is irrelevant: every byte will be
            // overwritten locally. Mark it applied so no fetch happens.
            let pending = std::mem::take(&mut f.pending);
            for (q, seq) in pending {
                if f.applied_of(q) < seq {
                    f.set_applied(q, seq);
                }
            }
            f.full_write = true;
            if let Some(t) = f.twin.take() {
                self.cl.page_pool().give(t);
            }
            f.state = PageState::Write;
        }
    }

    // ------------------------------------------------------------------
    // Fetch: demand (one page) or aggregated (a schedule's worth).
    // ------------------------------------------------------------------

    /// Bring `pages` up to date. Invalid pages get their missing records
    /// fetched — one request/reply per peer for `Demand`, or one
    /// request/reply per peer *for the whole set* when `Aggregated`
    /// (the paper's communication aggregation).
    pub fn fetch_pages(&mut self, pages: &[u32], class: FetchClass) {
        self.fetch_pages_impl(pages, class, None);
    }

    /// An eager barrier-time update-push round predicted by `phase`:
    /// like [`TmkProc::fetch_pages`] with [`FetchClass::Push`], plus the
    /// explicit subscription cost model — if the phase's per-peer
    /// schedule changed since its last push round, one one-way
    /// `AdaptSub` message per changed peer teaches the writers the new
    /// schedule before the data moves.
    pub(crate) fn fetch_pages_push(&mut self, pages: &[u32], phase: u32) {
        self.fetch_pages_impl(pages, FetchClass::Push, Some(phase));
    }

    fn fetch_pages_impl(&mut self, pages: &[u32], class: FetchClass, push_phase: Option<u32>) {
        // Attribute the whole exchange by who initiated it.
        let _sc = self.cl.net().scope(self.me, class.stall_cat());
        let mut s = std::mem::take(&mut self.inner.scratch);
        for &page in pages {
            self.collect_page(page, &mut s);
        }
        if !s.needs.is_empty() {
            self.exchange(&mut s, class, push_phase);
            self.apply_needs(&s);
        }
        s.clear();
        self.inner.scratch = s;
    }

    /// Fetch phase 1, for one requested page: if it is invalid, append
    /// the records it misses to `s.records` in causal order and note
    /// whether the master copy must come first.
    fn collect_page(&mut self, page: u32, s: &mut FetchScratch) {
        let (store, me) = (self.cl.store(), self.me);
        let ProcInner { frames, vc, .. } = &mut *self.inner;
        let f = &mut frames[page as usize];
        if f.state != PageState::Invalid {
            return;
        }
        // The highest pending seq per writer, as sparse `(proc, seq)`
        // pairs sorted by writer, less what this copy already reflects.
        let mut pend = std::mem::take(&mut f.pending);
        pend.sort_unstable_by_key(|&(q, seq)| (q, std::cmp::Reverse(seq)));
        pend.dedup_by_key(|&mut (q, _)| q);
        pend.retain(|&(q, seq)| seq > f.applied_of(q));
        let start = s.records.len();
        let mut master = false;
        for &(q, upto) in &pend {
            debug_assert_ne!(q, me, "own writes are always applied");
            master |= store.collect_into(q, page, f.applied_of(q), upto, &mut s.records);
        }
        if master {
            // Some needed records were folded into the master page.
            // The master snapshot replaces the WHOLE page as of the
            // fold horizon, so everything newer than the horizon that
            // this copy already reflected — other processors' applied
            // records and our own published intervals — must be
            // re-applied on top. Re-collect from the horizon, from
            // every processor including ourselves, bounded by our
            // vector clock (records we have not acquired yet must not
            // be applied — that would break release consistency).
            s.records.truncate(start);
            store.with_horizon(|horizon| {
                for (q, &h) in horizon.iter().enumerate() {
                    let known = if q == me {
                        vc[me]
                    } else {
                        let up = pend.binary_search_by_key(&q, |&(p, _)| p);
                        vc[q].max(up.map_or(0, |i| pend[i].1))
                    };
                    if known > h {
                        store.collect_into(q, page, h, known, &mut s.records);
                    }
                }
            });
        }
        pend.clear();
        f.pending = pend;
        // Prune: a Full snapshot subsumes everything it covers.
        let records = &mut s.records;
        let full = records[start..]
            .iter()
            .filter(|r| r.payload.is_full())
            .max_by_key(|r| r.key())
            .cloned();
        if let Some(full) = full {
            let mut kept = start;
            for i in start..records.len() {
                let r = &records[i];
                if r.seq > full.vc[r.proc] || (r.proc == full.proc && r.seq == full.seq) {
                    records.swap(kept, i);
                    kept += 1;
                }
            }
            records.truncate(kept);
            if master {
                // The master is needed only if it holds intervals the
                // Full does not cover.
                let covered = |h: &[u32]| h.iter().zip(full.vc.iter()).all(|(&h, &v)| v >= h);
                master = !store.with_horizon(covered);
            }
        }
        // Keys are unique per page (one run of seqs per writer), so the
        // unstable sort is the causal order.
        records[start..].sort_unstable_by_key(Record::key);
        let records = start..records.len();
        s.needs.push(Need {
            page,
            records,
            master,
        });
    }

    /// Fetch phase 2: message accounting — one leg per peer actually
    /// serving this exchange (typically a handful), not dense
    /// nprocs-slot arrays.
    fn exchange(&mut self, s: &mut FetchScratch, class: FetchClass, push_phase: Option<u32>) {
        const REQ_FIXED: usize = 16; // header + vc digest
        const REQ_PER_PAGE: usize = 8; // page id + applied seq
        let me = self.me;
        for n in &s.needs {
            for r in &s.records[n.records.clone()] {
                s.served.push((r.proc, n.page, r.payload.wire_bytes()));
            }
            if n.master {
                let mgr = n.page as usize % self.nprocs;
                let bytes = self.page_size + 8 + 4 * self.nprocs;
                s.served.push((mgr, n.page, bytes));
            }
        }
        // Grouped by serving peer, in peer order whatever the records'
        // arrival order: that is the leg order.
        s.served.sort_unstable();
        if let Some(phase) = push_phase {
            self.subscribe(phase, &s.served);
        }
        let (kreq, kresp) = class.msg_kinds();
        let (mut npeers, mut bytes) = (0u32, 0u64);
        for legs in s.served.chunk_by(|a, b| a.0 == b.0) {
            let q = legs[0].0;
            if q == me {
                continue;
            }
            let resp: usize = legs.iter().map(|l| l.2).sum();
            npeers += 1;
            bytes += resp as u64;
            match kreq {
                Some(kreq) => {
                    let req = REQ_FIXED + REQ_PER_PAGE * legs.len();
                    s.pull.push((q, kreq, req, kresp, resp));
                }
                None => s.push.push((q, kresp, resp)),
            }
        }
        let net = self.cl.net();
        match kreq {
            // Update-push: the writers initiate — one one-way data
            // message per serving peer, no request leg on the wire.
            None => net.push_round(me, &s.push),
            // One parallel exchange round: a demand fault covers one
            // page; the aggregated classes cover a whole schedule's
            // worth per peer.
            Some(_) => net.parallel_round(me, &s.pull),
        }
        net.trace(
            me,
            TraceEvent::Fetch {
                class,
                pages: s.needs.len() as u32,
                peers: npeers,
                bytes,
            },
        );
    }

    /// Fetch phase 3: apply, master copies first, then records causally.
    fn apply_needs(&mut self, s: &FetchScratch) {
        let cl = self.cl;
        let cost = cl.net().cost();
        let mut apply_time = SimTime::ZERO;
        for n in &s.needs {
            let f = &mut self.inner.frames[n.page as usize];
            f.data.get_or_insert_with(|| cl.page_pool().take_zeroed());
            if n.master {
                // Uncommitted local writes (open interval) live only in
                // the data-vs-twin delta; preserve them across the
                // whole-page overwrite. (Only a lock acquire can leave a
                // twinned page invalid, so this diff is rare.)
                let data = f.data.as_deref().expect("allocated above");
                let own = f.twin.as_deref().map(|t| Diff::create(t, data));
                cl.store().with_master(n.page, |master, horizon| {
                    for buf in [f.data.as_mut(), f.twin.as_mut()].into_iter().flatten() {
                        match master {
                            Some(m) => buf.copy_from_slice(m),
                            None => buf.fill(0),
                        }
                    }
                    // The master is a snapshot *at the horizon*: the page
                    // regresses to exactly that knowledge; newer records
                    // (re-collected in phase 1) are applied on top.
                    let folded = horizon.iter().enumerate().filter(|(_, &h)| h > 0);
                    f.applied.clear();
                    f.applied.extend(folded.map(|(q, &h)| (q as u32, h)));
                });
                if let Some(d) = own {
                    d.apply(f.data.as_mut().unwrap());
                }
                apply_time += cost.diff_apply(self.page_size);
                self.inner.counters.master_fetches += 1;
            }
            for r in &s.records[n.records.clone()] {
                if r.seq <= f.applied_of(r.proc) {
                    continue; // subsumed by the master copy
                }
                r.payload.apply(f.data.as_mut().unwrap());
                // Multiple-writer merge: keep our in-progress twin in sync
                // so our eventual diff contains only our own writes.
                if let Some(t) = f.twin.as_mut() {
                    r.payload.apply(t);
                }
                f.set_applied(r.proc, r.seq);
                apply_time += cost.diff_apply(r.payload.wire_bytes());
                self.inner.counters.records_applied += 1;
            }
            f.state = if f.dirty() {
                PageState::Write
            } else {
                PageState::Read
            };
            self.inner.counters.pages_fetched += 1;
        }
        cl.net().advance(self.me, apply_time);
    }

    /// The update-push subscription cost model. The writers only know
    /// *what* to push because the consumer subscribed them to its
    /// schedule: bill one one-way subscription message per peer whose
    /// share of `phase`'s schedule *grew* beyond what it was already
    /// taught (the cumulative union). `served` is this round's
    /// `(serving peer, page, bytes)` list, sorted. A steady-state plan
    /// subscribes once and then rides free; a probe — a transient subset
    /// of the subscribed schedule — costs nothing extra. Unsubscription
    /// is lazy and unbilled: a writer briefly pushing pages a demoted
    /// pattern no longer needs shows up as the pull traffic the
    /// probe/demand path already counts.
    fn subscribe(&mut self, phase: u32, served: &[(ProcId, u32, usize)]) {
        let (net, me) = (self.cl.net(), self.me);
        let scheds = &mut self.inner.push_scheds;
        let si = match scheds.iter().position(|(ph, _)| *ph == phase) {
            Some(i) => i,
            None => {
                scheds.push((phase, Vec::new()));
                scheds.len() - 1
            }
        };
        let subscribed = &mut scheds[si].1;
        let mut grown = 0usize;
        for share in served.chunk_by(|a, b| a.0 == b.0) {
            let q = share[0].0;
            if q == me {
                continue;
            }
            let known = match subscribed.iter_mut().find(|(oq, _)| *oq == q) {
                Some((_, known)) => known,
                None => {
                    subscribed.push((q, Vec::new()));
                    &mut subscribed.last_mut().unwrap().1
                }
            };
            // `known` stays sorted: membership is a binary search
            // even when a phase's cumulative schedule grows large.
            let mut fresh = 0usize;
            for &(_, pg, _) in share {
                if let Err(pos) = known.binary_search(&pg) {
                    known.insert(pos, pg);
                    fresh += 1;
                }
            }
            if fresh == 0 {
                continue;
            }
            grown += 1;
            // One-way teach message: the consumer pays the injection
            // (inside push), the writer absorbs it asynchronously for
            // one interrupt-handler cost. Only commutative clock updates
            // here — folding the arrival time in with a max would make
            // simulated time depend on the schedule (several consumers
            // subscribe in one barrier).
            let bytes = 16 + 4 * fresh;
            let _arrival = net.push(me, MsgKind::AdaptSub, bytes);
            net.advance_remote(q, net.cost().handler());
            net.trace(
                me,
                TraceEvent::Msg {
                    kind: MsgKind::AdaptSub,
                    peer: q as u32,
                    bytes: bytes as u32,
                    out: true,
                },
            );
        }
        if grown > 0 {
            net.policy().record_subscribe(me, phase, grown);
        }
    }

    // ------------------------------------------------------------------
    // Interval close + notice application (called by barrier/lock code).
    // ------------------------------------------------------------------

    /// Close the current interval: diff every dirty page, publish the
    /// records and the write notices. No-op if nothing was written.
    pub(crate) fn close_interval(&mut self) {
        if self.inner.dirty.is_empty() {
            return;
        }
        let cost = self.cl.net().cost();
        let mut dirty = std::mem::take(&mut self.inner.dirty);
        dirty.sort_unstable();
        dirty.dedup();

        // Build payloads first; only non-empty ones publish.
        let mut payloads = std::mem::take(&mut self.inner.payloads);
        let mut scan_time = SimTime::ZERO;
        for &page in &dirty {
            let f = &mut self.inner.frames[page as usize];
            debug_assert!(f.dirty(), "page {page} on dirty list but clean");
            if f.full_write {
                payloads.push((page, Payload::Full(f.data.as_ref().unwrap().clone())));
                scan_time += cost.twin(self.page_size); // one copy
                self.inner.counters.fulls_published += 1;
            } else {
                let d = Diff::create(f.twin.as_ref().unwrap(), f.data.as_ref().unwrap());
                scan_time += cost.diff_create(self.page_size);
                if !d.is_empty() {
                    self.cl.net().trace(
                        self.me,
                        TraceEvent::DiffCreate {
                            page,
                            bytes: d.wire_bytes() as u32,
                        },
                    );
                    payloads.push((page, Payload::Diff(d)));
                    self.inner.counters.diffs_created += 1;
                }
            }
            if let Some(t) = f.twin.take() {
                self.cl.page_pool().give(t);
            }
            f.full_write = false;
            // Re-protect: the next write in the new interval faults again.
            if f.state == PageState::Write {
                f.state = PageState::Read;
            }
        }
        dirty.clear();
        self.inner.dirty = dirty;
        self.cl.net().advance(self.me, scan_time);
        if payloads.is_empty() {
            self.inner.payloads = payloads;
            return;
        }

        let seq = self.inner.vc[self.me] + 1;
        self.inner.vc[self.me] = seq;
        let vc: Arc<[u32]> = Arc::from(&self.inner.vc[..]);
        let pages: Arc<[u32]> = payloads.iter().map(|&(p, _)| p).collect();
        for (page, payload) in payloads.drain(..) {
            self.inner.frames[page as usize].set_applied(self.me, seq);
            self.cl
                .store()
                .publish(self.me, page, seq, Arc::clone(&vc), payload);
        }
        self.inner.payloads = payloads;
        // The record's clock ships as a delta against the last barrier
        // target — both ends of any later exchange know that base.
        let rec = IntervalRec::new(vc, pages, &self.inner.last_barrier_seen);
        self.cl.board().publish(self.me, rec);
        self.inner.counters.intervals_closed += 1;
    }

    /// Merge knowledge up to `target` (a lock acquire): apply write
    /// notices of every newly covered interval, invalidating local
    /// copies. Barriers merge the leader's digest instead
    /// ([`TmkProc::apply_digest`]).
    pub(crate) fn apply_notices(&mut self, target: &[u32]) {
        let me = self.me;
        for (q, &to) in target.iter().enumerate() {
            if q == me || to <= self.inner.vc[q] {
                continue;
            }
            let from = self.inner.vc[q];
            // Collect first (board lock), then mutate frames.
            let mut hits: Vec<(u32, u32)> = Vec::new(); // (page, seq)
            self.cl.board().for_range(q, from, to, |seq, rec| {
                for &page in rec.pages.iter() {
                    hits.push((page, seq));
                }
            });
            for (page, seq) in hits {
                let f = &mut self.inner.frames[page as usize];
                f.pending.push((q, seq));
                f.state = PageState::Invalid;
                if f.watched {
                    self.fire_watch(page);
                }
            }
            self.inner.vc[q] = to;
        }
    }

    /// Barrier-path acquire: consume the leader's flat notice digest —
    /// `(page, proc, seq)` entries covering `(previous target, target]`
    /// across *all* processors, built once per barrier — instead of
    /// re-walking every peer's board per processor. Entries already
    /// merged through lock acquires (`seq ≤ vc[q]`) are skipped, so this
    /// applies exactly the intervals `apply_notices(target)` would:
    /// `vc[q] ≥ prev_target[q]` always holds after the previous barrier.
    /// Leaves the pages it invalidated, sorted and deduplicated, in
    /// `invalidated` (cleared first).
    pub(crate) fn apply_digest(
        &mut self,
        digest: &[(u32, u32, u32)],
        target: &[u32],
        invalidated: &mut Vec<u32>,
    ) {
        let me = self.me;
        invalidated.clear();
        for &(page, q, seq) in digest {
            let q = q as usize;
            if q == me || seq <= self.inner.vc[q] {
                continue;
            }
            let f = &mut self.inner.frames[page as usize];
            f.pending.push((q, seq));
            f.state = PageState::Invalid;
            invalidated.push(page);
            if f.watched {
                self.fire_watch(page);
            }
        }
        for (q, &to) in target.iter().enumerate() {
            if self.inner.vc[q] < to {
                self.inner.vc[q] = to;
            }
        }
        invalidated.sort_unstable();
        invalidated.dedup();
    }

    pub(crate) fn vc(&self) -> &[u32] {
        &self.inner.vc
    }

    // ------------------------------------------------------------------
    // Protocol policy (the adaptive decision layer).
    // ------------------------------------------------------------------

    /// Install a protocol policy on this processor. The policy persists
    /// across [`Cluster::run`] calls (like the page table) until
    /// [`Cluster::recycle`] removes it; installing
    /// replaces any previous policy and its learned state — including
    /// the protocol layer's own per-policy state: armed deferred plans
    /// are dropped (the old engine that predicted them is gone) and the
    /// push-subscription schedules are forgotten, so a fresh push-mode
    /// policy is billed for teaching its writers from scratch.
    pub fn set_policy(&mut self, policy: Box<dyn ProtocolPolicy>) {
        self.inner.policy = Some(policy);
        self.inner.deferred.clear();
        self.inner.push_scheds.clear();
    }

    /// The installed protocol policy, if any (diagnostics).
    pub fn policy(&self) -> Option<&dyn ProtocolPolicy> {
        self.inner.policy.as_deref()
    }

    /// Tell the policy (if any) a demand fault on `page` needed a fetch.
    fn note_miss(&mut self, page: u32) {
        if let Some(policy) = &mut self.inner.policy {
            policy.note_miss(page);
        }
    }

    /// A deferred plan of `phase` covering `pages` was discarded
    /// untriggered: count it, trace it, and tell the policy — the one
    /// place a quiesce is recorded.
    pub(crate) fn quiesce(&mut self, phase: u32, pages: &[u32]) {
        let net = self.cl.net();
        net.policy().record_quiesced(self.me, phase, pages.len());
        let n = pages.len() as u32;
        net.trace(self.me, TraceEvent::PlanQuiesce { phase, pages: n });
        if let Some(policy) = &mut self.inner.policy {
            policy.note_quiesced(phase, pages);
        }
    }

    // ------------------------------------------------------------------
    // Watches (used by Validate to detect indirection-array changes).
    // ------------------------------------------------------------------

    /// Allocate a watch flag; `take_modified` reads-and-clears it.
    pub fn new_watch(&mut self) -> usize {
        self.inner.watch_flags.push(true); // born dirty: first Validate computes
        self.inner.watch_dirty.push(Vec::new());
        self.inner.watch_flags.len() - 1
    }

    /// Arm watch `key` on `pages`: local writes (via protection fault) and
    /// incoming write notices on these pages set the flag.
    pub fn watch_pages(&mut self, key: usize, pages: impl Iterator<Item = u32>) {
        for page in pages {
            let f = &mut self.inner.frames[page as usize];
            f.watched = true;
            f.watch_protect = true;
            let idx = page as usize;
            if self.inner.watchers.len() <= idx {
                self.inner.watchers.resize_with(idx + 1, Vec::new);
            }
            let w = &mut self.inner.watchers[idx];
            if !w.contains(&key) {
                w.push(key);
            }
        }
    }

    /// True if anything under `key`'s watch changed since the last call.
    pub fn take_modified(&mut self, key: usize) -> bool {
        self.inner.watch_dirty[key].clear();
        std::mem::replace(&mut self.inner.watch_flags[key], false)
    }

    /// Like [`TmkProc::take_modified`], but also reports *which* watched
    /// pages changed: `None` if nothing changed; `Some(pages)` with the
    /// dirtied pages (empty right after `new_watch`, meaning "everything"
    /// — no pages were being watched yet). This enables the incremental
    /// `Read_indices` the paper sketches as an extension (§3.2: "a more
    /// sophisticated version of this approach could ... incrementally
    /// recompute the page sets").
    pub fn take_modified_pages(&mut self, key: usize) -> Option<Vec<u32>> {
        if !std::mem::replace(&mut self.inner.watch_flags[key], false) {
            return None;
        }
        let mut pages = std::mem::take(&mut self.inner.watch_dirty[key]);
        pages.sort_unstable();
        pages.dedup();
        Some(pages)
    }

    fn fire_watch(&mut self, page: u32) {
        if let Some(keys) = self.inner.watchers.get(page as usize) {
            for &k in keys {
                self.inner.watch_flags[k] = true;
                self.inner.watch_dirty[k].push(page);
            }
        }
    }

    // ------------------------------------------------------------------
    // Introspection for tests.
    // ------------------------------------------------------------------

    /// Page state (test/diagnostic hook).
    pub fn page_state(&self, page: u32) -> PageState {
        self.inner.frames[page as usize].state
    }

    /// Is this page currently invalid (a fetch would move data)?
    #[inline]
    pub fn page_invalid(&self, page: u32) -> bool {
        self.inner.frames[page as usize].state == PageState::Invalid
    }

    /// The cluster's cost model (for charging modeled library work).
    pub fn cost(&self) -> &simnet::CostModel {
        self.cl.net().cost()
    }
}
