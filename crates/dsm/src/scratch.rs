//! Cluster reuse: a free-list of recycled [`Cluster`]s.
//!
//! A serving workload (the `serve` crate) runs thousands of short
//! scenario cells back to back; building a fresh [`Cluster`] per cell
//! re-allocates every page frame, twin, diff arena, and notice board
//! only to tear them down milliseconds later. A [`ClusterPool`] keeps
//! finished clusters around: [`ClusterPool::checkin`] runs
//! [`Cluster::recycle`] (protocol state back to the just-built state,
//! allocations retained) and [`ClusterPool::checkout`] hands a matching
//! one back out, so a steady-state worker stops allocating per job.
//!
//! Correctness does not rest on trust: `recycle` restores observable
//! fresh-cluster semantics, and the `serve` driver asserts every job on
//! a pooled cluster reproduces the cold run's message counts bitwise.

use std::cell::RefCell;

use crate::cluster::{Cluster, DsmConfig};

/// Retained clusters per pool — a worker thread interleaves at most a
/// handful of distinct cell shapes, so a short free list suffices.
const MAX_POOLED: usize = 8;

/// A free-list of recycled clusters, keyed by configuration.
///
/// Meant for a `thread_local!`, one per executor thread: like the
/// clusters it holds, a pool never leaves the thread that made it.
#[derive(Debug, Default)]
pub struct ClusterPool {
    free: RefCell<Vec<Cluster>>,
}

impl ClusterPool {
    /// An empty pool.
    pub const fn new() -> Self {
        ClusterPool {
            free: RefCell::new(Vec::new()),
        }
    }

    /// A cluster for `cfg`: a recycled one when the pool holds a
    /// configuration match, else a fresh [`Cluster::new`].
    pub fn checkout(&self, cfg: &DsmConfig) -> Cluster {
        let mut free = self.free.borrow_mut();
        if let Some(i) = free.iter().position(|c| {
            let have = c.config();
            have.nprocs == cfg.nprocs && have.page_size == cfg.page_size && have.cost == cfg.cost
        }) {
            return free.swap_remove(i);
        }
        drop(free);
        Cluster::new(cfg.clone())
    }

    /// Recycle `cl` and keep it for a later checkout (dropped when the
    /// pool is full). Panics if a `run` is still in flight on it.
    pub fn checkin(&self, cl: Cluster) {
        cl.recycle();
        let mut free = self.free.borrow_mut();
        if free.len() < MAX_POOLED {
            free.push(cl);
        }
    }

    /// Clusters currently pooled (diagnostics).
    pub fn len(&self) -> usize {
        self.free.borrow().len()
    }

    /// Is the pool empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkout_prefers_matching_config() {
        let pool = ClusterPool::new();
        pool.checkin(Cluster::new(DsmConfig::with_nprocs(2)));
        pool.checkin(Cluster::new(DsmConfig {
            page_size: 1024,
            ..DsmConfig::with_nprocs(2)
        }));
        assert_eq!(pool.len(), 2);
        let cl = pool.checkout(&DsmConfig {
            page_size: 1024,
            ..DsmConfig::with_nprocs(2)
        });
        assert_eq!(cl.page_size(), 1024);
        assert_eq!(pool.len(), 1);
        // No match (different nprocs): fresh cluster, pool untouched.
        let cl = pool.checkout(&DsmConfig::with_nprocs(4));
        assert_eq!(cl.nprocs(), 4);
        assert_eq!(pool.len(), 1);
    }

    #[test]
    fn recycled_cluster_reproduces_a_cold_run() {
        let run = |cl: &Cluster| {
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
            (rep.messages, rep.bytes, cl.elapsed())
        };
        let cfg = DsmConfig::with_nprocs(2);
        let cold = run(&Cluster::new(cfg.clone()));

        let pool = ClusterPool::new();
        pool.checkin(Cluster::new(cfg.clone()));
        let cl = pool.checkout(&cfg);
        let warm1 = run(&cl);
        pool.checkin(cl);
        let cl = pool.checkout(&cfg);
        assert!(
            cl.page_pool().len() > 0,
            "recycle should have pooled frames"
        );
        let warm2 = run(&cl);
        assert_eq!(cold, warm1);
        assert_eq!(cold, warm2);
    }

    #[test]
    fn recycle_resets_heap_and_state() {
        let cl = Cluster::new(DsmConfig::with_nprocs(2));
        let s = cl.alloc::<f64>(1024);
        cl.run(|p| {
            p.write(&s, p.rank() * 512, 1.0);
            p.barrier();
        });
        assert!(cl.heap_pages() > 0);
        assert!(cl.barrier_epoch() > 0);
        assert_eq!(cl.net().rendezvous().generation(), 2);
        cl.recycle();
        assert_eq!(cl.heap_pages(), 0);
        assert_eq!(cl.barrier_epoch(), 0);
        assert_eq!(cl.report().messages, 0);
        // Fresh shared memory reads back zeroed, and the host rendezvous
        // is the same reusable object: host work keeps counting.
        let s = cl.alloc::<f64>(8);
        cl.run(|p| {
            assert_eq!(p.read(&s, 0), 0.0);
            p.barrier();
        });
        assert_eq!(cl.barrier_epoch(), 1);
        assert_eq!(cl.net().rendezvous().generation(), 4);
    }
}
