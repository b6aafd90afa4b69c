//! The cluster: configuration, the shared-heap allocator, and the SPMD
//! launcher.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use simnet::{CostModel, Net, NetReport, Pod, SimTime};

use crate::heap::SharedSlice;
use crate::pagepool::PagePool;
use crate::proc::{ProcInner, TmkProc};
use crate::store::DiffStore;

/// Cluster configuration.
#[derive(Debug, Clone)]
pub struct DsmConfig {
    /// Number of simulated processors.
    pub nprocs: usize,
    /// Consistency unit. The SP2 of the paper used 4 KB pages.
    pub page_size: usize,
    /// Communication cost model for the simulated interconnect.
    pub cost: CostModel,
}

impl Default for DsmConfig {
    fn default() -> Self {
        DsmConfig {
            nprocs: 8,
            page_size: 4096,
            cost: CostModel::default(),
        }
    }
}

impl DsmConfig {
    /// The default configuration at a given cluster size.
    pub fn with_nprocs(nprocs: usize) -> Self {
        DsmConfig {
            nprocs,
            ..Default::default()
        }
    }
}

/// A simulated TreadMarks cluster.
///
/// Usage mirrors a TreadMarks program: allocate shared memory, then run
/// the SPMD body on every processor; what each body returns comes back
/// in rank order.
///
/// ```
/// use dsm::{Cluster, DsmConfig};
///
/// let cl = Cluster::new(DsmConfig::with_nprocs(4));
/// let data = cl.alloc::<f64>(1024);
/// let seen = cl.run(|p| {
///     let me = p.rank();
///     let chunk = data.len() / p.nprocs();
///     for i in me * chunk..(me + 1) * chunk {
///         p.write(&data, i, me as f64);
///     }
///     p.barrier();
///     // every processor can now read everyone's writes
///     p.read(&data, (me + 1) % p.nprocs() * chunk)
/// });
/// assert_eq!(seen, [1.0, 2.0, 3.0, 0.0]);
/// ```
#[derive(Debug)]
pub struct Cluster {
    cfg: DsmConfig,
    net: Net,
    store: DiffStore,
    /// Barriers completed: the epoch every running processor is in.
    pub(crate) epoch: Cell<u64>,
    /// Per-processor notice bytes of the barrier being led (scratch).
    pub(crate) deltas: RefCell<Vec<usize>>,
    alloc_next: Cell<usize>,
    /// Each processor's protocol state, out of its slot while that
    /// processor runs.
    slots: Vec<RefCell<Option<Box<ProcInner>>>>,
    /// Free page-sized boxes, fed by [`Cluster::recycle`] and drained by
    /// the fault paths — repeated runs on a recycled cluster stop
    /// allocating page frames and twins. Shared with the diff store, so
    /// master copies cycle through the same free-list (see
    /// [`crate::pagepool::PagePool`]).
    page_pool: Rc<PagePool>,
}

impl Cluster {
    /// Build a cluster (heap empty, all clocks zero). Panics if the
    /// page size is not a power of two of at least 64 bytes.
    pub fn new(cfg: DsmConfig) -> Self {
        assert!(cfg.page_size.is_power_of_two(), "page size: power of two");
        assert!(cfg.page_size >= 64, "page size too small");
        let nprocs = cfg.nprocs;
        let page_size = cfg.page_size;
        let page_pool = Rc::new(PagePool::new(page_size));
        Cluster {
            net: Net::new(nprocs, cfg.cost.clone()),
            store: DiffStore::with_pool(nprocs, Rc::clone(&page_pool)),
            cfg,
            epoch: Cell::new(0),
            deltas: RefCell::new(Vec::new()),
            alloc_next: Cell::new(0),
            slots: (0..nprocs)
                .map(|_| RefCell::new(Some(Box::default())))
                .collect(),
            page_pool,
        }
    }

    /// Reset all protocol, heap, and accounting state so the cluster is
    /// observably indistinguishable from a fresh [`Cluster::new`] with
    /// the same configuration — but with every page frame, twin, diff
    /// store, and notice list allocation retained for reuse. Panics if
    /// called while a [`Cluster::run`] is in flight, or after one in
    /// which a processor panicked (that cluster is torn; drop it). The
    /// scenario label survives (callers re-stamp it per run anyway), and
    /// so do the rendezvous's crossing and launch counts.
    pub fn recycle(&self) {
        assert!(
            !self.net.rendezvous().is_aborted(),
            "recycle() on an aborted cluster: a processor panicked in an earlier run() — build a fresh one"
        );
        let heap_pages = self.heap_pages();
        self.net.reset();
        self.store.reset();
        self.epoch.set(0);
        self.alloc_next.set(0);
        for slot in &self.slots {
            let mut slot = slot.borrow_mut();
            let inner = slot.as_mut().expect("recycle() while a run() is in flight");
            inner.recycle(&mut |b| self.page_pool.give(b));
        }
        // Backstop: everything a run can hold live is bounded by frames
        // (nprocs × pages) + twins (nprocs × pages) + masters (pages);
        // trim anything beyond it so one paging-heavy job's high-water
        // mark is not pinned forever.
        let cap = heap_pages * (2 * self.cfg.nprocs + 1) + 64;
        self.page_pool.trim(cap);
    }

    /// The free-list page frames and twins are drawn from and returned to.
    pub(crate) fn page_pool(&self) -> &PagePool {
        &self.page_pool
    }

    /// Pooled free frames (diagnostics for reuse tests).
    pub fn pooled_pages(&self) -> usize {
        self.page_pool.len()
    }

    /// The configuration this cluster was built with.
    pub fn config(&self) -> &DsmConfig {
        &self.cfg
    }

    /// Number of simulated processors.
    pub fn nprocs(&self) -> usize {
        self.cfg.nprocs
    }

    /// The consistency unit in bytes.
    pub fn page_size(&self) -> usize {
        self.cfg.page_size
    }

    /// Allocate `n` elements of shared memory (the `Tmk_malloc` analogue).
    ///
    /// Regions are page-aligned, as TreadMarks programs align their large
    /// arrays; false sharing in the experiments comes from *partitions
    /// within* an array not landing on page boundaries (nbf 64×1000),
    /// not from unrelated arrays colliding.
    pub fn alloc<T: Pod>(&self, n: usize) -> SharedSlice<T> {
        let base = self.alloc_next.get().next_multiple_of(self.cfg.page_size);
        self.alloc_next.set(base + n * T::SIZE);
        SharedSlice::new(base, n)
    }

    /// Total pages allocated so far.
    pub fn heap_pages(&self) -> usize {
        self.alloc_next.get().div_ceil(self.cfg.page_size)
    }

    /// Run the SPMD body `f` on every simulated processor — coroutines on
    /// the calling thread, scheduled in rank order by the net's
    /// [`simnet::Rendezvous`] — and return what each processor's body
    /// returned, in rank order. May be called repeatedly; processor
    /// protocol state persists across calls.
    ///
    /// **Panics.** If `f` panics on some processor, the others unwind
    /// from the barrier they wait in instead of waiting forever, and that
    /// processor's original payload is re-raised here — nothing is
    /// returned ([`simnet::Rendezvous::run_spmd`]). A processor that returns while
    /// others wait for it at a barrier fails the run the same way, with
    /// a deadlock message. The cluster is then *aborted*: its protocol
    /// state is torn, and a further `run`, [`Cluster::read_back`] or
    /// [`Cluster::recycle`] panics saying so.
    ///
    /// **One thread.** Every processor is a sequential program, as in
    /// the paper, and all of them share the caller's OS thread. The
    /// cluster's state is plain single-thread data, so a `Cluster` is
    /// neither `Sync` nor `Send`: a helper thread a processor starts
    /// cannot capture the cluster, its processors or anything borrowed
    /// from them. The compiler refuses it:
    ///
    /// ```compile_fail,E0277
    /// let cl = dsm::Cluster::new(dsm::DsmConfig::with_nprocs(2));
    /// cl.run(|_| std::thread::scope(|s| { s.spawn(|| cl.nprocs()); }));
    /// ```
    pub fn run<F, R>(&self, f: F) -> Vec<R>
    where
        F: Fn(&mut TmkProc) -> R,
    {
        self.net.rendezvous().run_spmd(|rank| self.enter(rank, &f))
    }

    /// Read the whole of `x` back through the DSM as processor 0, in
    /// index order — the untimed result extraction after a `run`. No
    /// launch is made and no other processor takes part: rank 0's demand
    /// faults are served from the shared diff store exactly as inside a
    /// `run` (same messages, same bytes, same trace events), so nobody
    /// else needs to be alive.
    /// Panics "aborted" after a run in which a processor panicked, and
    /// "processor state in use" from inside a `run`.
    pub fn read_back<T: Pod>(&self, x: &SharedSlice<T>) -> Vec<T> {
        assert!(
            !self.net.rendezvous().is_aborted(),
            "read_back() on an aborted cluster: a processor panicked in an earlier run() — build a fresh one"
        );
        self.enter(0, |p| (0..x.len()).map(|i| p.read(x, i)).collect())
    }

    /// Become processor `rank` for the duration of `f`: take its
    /// protocol state out of its slot, run `f`, put it back.
    fn enter<R>(&self, rank: usize, f: impl FnOnce(&mut TmkProc) -> R) -> R {
        let mut inner = self.slots[rank]
            .take()
            .expect("processor state in use — nested run()?");
        inner.ensure_frames(self.heap_pages());
        let mut p = TmkProc {
            cl: self,
            me: rank,
            nprocs: self.cfg.nprocs,
            page_size: self.cfg.page_size,
            page_shift: self.cfg.page_size.trailing_zeros(),
            inner,
        };
        let out = f(&mut p);
        // Batched fetches deferred near the body's end that
        // nothing triggered are the quiesce win: the exchanges the
        // eager policy would have wasted on an iteration that never
        // executes. Record and drop them (billed to each plan's
        // owning phase) so the report sees them and a later run()
        // starts clean.
        for plan in std::mem::take(&mut p.inner.deferred) {
            p.quiesce(plan.phase, &plan.pages);
        }
        self.slots[rank].replace(Some(p.inner));
        out
    }

    /// The simulated parallel execution time so far.
    pub fn elapsed(&self) -> SimTime {
        self.net.clock_max()
    }

    /// Message/byte totals so far.
    pub fn report(&self) -> NetReport {
        self.net.report()
    }

    /// The simulated interconnect (clocks, counters, cost model).
    pub fn net(&self) -> &Net {
        &self.net
    }

    pub(crate) fn store(&self) -> &DiffStore {
        &self.store
    }

    /// Barrier epochs completed.
    pub fn barrier_epoch(&self) -> u64 {
        self.epoch.get()
    }

    /// Retained (unfolded) diff records (memory-bound diagnostics).
    pub fn retained_records(&self) -> usize {
        self.store.retained_records()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_is_page_aligned_and_disjoint() {
        let cl = Cluster::new(DsmConfig::with_nprocs(2));
        let a = cl.alloc::<f64>(100);
        let b = cl.alloc::<f64>(10);
        assert_eq!(a.base_byte() % 4096, 0);
        assert_eq!(b.base_byte() % 4096, 0);
        assert!(b.base_byte() >= a.base_byte() + 100 * 8);
        assert_eq!(cl.heap_pages(), 2);
    }

    #[test]
    fn single_proc_read_write() {
        let cl = Cluster::new(DsmConfig::with_nprocs(1));
        let s = cl.alloc::<f64>(16);
        cl.run(|p| {
            p.write(&s, 3, 1.5);
            assert_eq!(p.read(&s, 3), 1.5);
            assert_eq!(p.read(&s, 0), 0.0, "shared memory starts zeroed");
            p.barrier();
            assert_eq!(p.read(&s, 3), 1.5, "own writes survive the barrier");
        });
        assert_eq!(cl.report().messages, 0, "one processor never communicates");
    }

    #[test]
    fn producer_consumer_via_barrier() {
        let cl = Cluster::new(DsmConfig::with_nprocs(2));
        let s = cl.alloc::<f64>(8);
        cl.run(|p| {
            if p.rank() == 0 {
                p.write(&s, 0, 42.0);
            }
            p.barrier();
            assert_eq!(p.read(&s, 0), 42.0);
            p.barrier();
        });
        let rep = cl.report();
        // p1 demand-faults once: one diff request + one reply, plus
        // 2 barriers × 2(n-1) barrier messages.
        assert_eq!(rep.messages, 2 + 2 * 2);
        assert!(cl.elapsed() > SimTime::ZERO);
    }

    #[test]
    fn state_persists_across_runs() {
        let cl = Cluster::new(DsmConfig::with_nprocs(2));
        let s = cl.alloc::<f64>(4);
        cl.run(|p| {
            if p.rank() == 0 {
                p.write(&s, 1, 7.0);
            }
            p.barrier();
        });
        cl.run(|p| {
            assert_eq!(p.read(&s, 1), 7.0);
        });
    }
}
