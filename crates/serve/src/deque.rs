//! The work-stealing job pool: a shared injector deque plus one local
//! deque per worker.
//!
//! Workers drain their own queue first, refill from the injector in
//! batches (amortizing the shared lock over `BATCH` jobs), and steal
//! half of the fullest peer's queue when both run dry. Locks are plain
//! mutexes — on a simulation host the per-job work is milliseconds, so
//! the queue discipline (batching + steal-half) matters and lock-free
//! rings would not; the shared injector lock is touched once per batch,
//! not once per job.

use std::collections::VecDeque;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Jobs a worker moves injector → local queue per refill.
const BATCH: usize = 8;

/// Lock a queue, recovering it as-is if a panicking worker poisoned
/// it: a `VecDeque` stays valid whatever panicked while it was held.
fn lock<T>(q: &Mutex<VecDeque<T>>) -> MutexGuard<'_, VecDeque<T>> {
    q.lock().unwrap_or_else(PoisonError::into_inner)
}

/// See module docs.
#[derive(Debug)]
pub struct JobPool<T> {
    injector: Mutex<VecDeque<T>>,
    locals: Vec<Mutex<VecDeque<T>>>,
}

impl<T> JobPool<T> {
    /// A pool with `workers` local queues.
    pub fn new(workers: usize) -> Self {
        assert!(workers >= 1, "need at least one worker");
        JobPool {
            injector: Mutex::new(VecDeque::new()),
            locals: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
        }
    }

    /// Number of local queues (= workers).
    pub fn workers(&self) -> usize {
        self.locals.len()
    }

    /// Push jobs onto the shared injector.
    pub fn inject(&self, jobs: impl IntoIterator<Item = T>) {
        lock(&self.injector).extend(jobs);
    }

    /// Jobs currently queued anywhere (racy snapshot; exact once all
    /// workers have stopped).
    #[cfg(test)]
    fn queued(&self) -> usize {
        lock(&self.injector).len() + self.locals.iter().map(|l| lock(l).len()).sum::<usize>()
    }

    /// Next job for worker `me`: own queue, else a batch from the
    /// injector, else half of the fullest peer's queue. `None` means
    /// every queue was momentarily empty.
    pub fn pop(&self, me: usize) -> Option<T> {
        self.pop_reporting(me).map(|(job, _)| job)
    }

    /// [`JobPool::pop`] that also reports where the job came from:
    /// `Some((victim, moved))` when the worker's own queue and the
    /// injector were both dry and `moved` jobs were stolen from
    /// `victim`'s deque, `None` when the job was local or injected.
    pub fn pop_reporting(&self, me: usize) -> Option<(T, Option<(usize, usize)>)> {
        if let Some(job) = lock(&self.locals[me]).pop_front() {
            return Some((job, None));
        }
        // Refill from the injector: keep one, queue the rest locally.
        {
            let mut inj = lock(&self.injector);
            if !inj.is_empty() {
                let take = BATCH.min(inj.len());
                let mut batch = inj.drain(..take);
                let first = batch.next();
                let rest: Vec<T> = batch.collect();
                drop(inj);
                if !rest.is_empty() {
                    lock(&self.locals[me]).extend(rest);
                }
                return first.map(|job| (job, None));
            }
        }
        self.steal(me)
    }

    /// Steal half (rounded up) of the fullest peer's queue; returns one
    /// job plus the steal's `(victim, moved)` provenance and keeps the
    /// rest locally.
    fn steal(&self, me: usize) -> Option<(T, Option<(usize, usize)>)> {
        let victim = (0..self.locals.len())
            .filter(|&q| q != me)
            .max_by_key(|&q| lock(&self.locals[q]).len())?;
        let stolen: Vec<T> = {
            let mut v = lock(&self.locals[victim]);
            let take = v.len().div_ceil(2);
            v.drain(..take).collect()
        };
        let moved = stolen.len();
        let mut it = stolen.into_iter();
        let first = it.next()?;
        let rest: Vec<T> = it.collect();
        if !rest.is_empty() {
            lock(&self.locals[me]).extend(rest);
        }
        Some((first, Some((victim, moved))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_job_is_served_exactly_once() {
        let pool = JobPool::new(3);
        pool.inject(0..100);
        assert_eq!(pool.queued(), 100);
        let mut seen = Vec::new();
        // Round-robin the workers so batches and steals both happen.
        let mut w = 0;
        while let Some(j) = pool.pop(w) {
            seen.push(j);
            w = (w + 1) % 3;
        }
        seen.sort_unstable();
        assert_eq!(seen, (0..100).collect::<Vec<_>>());
        assert_eq!(pool.queued(), 0);
    }

    #[test]
    fn steal_takes_from_a_loaded_peer() {
        let pool = JobPool::new(2);
        pool.inject(0..BATCH as u32);
        // Worker 0 takes the whole injector batch into its local queue.
        let first = pool.pop(0).unwrap();
        assert_eq!(first, 0);
        // Worker 1 finds the injector empty and steals from worker 0 —
        // and the reporting pop names the victim and the haul.
        let (stolen, from) = pool.pop_reporting(1).unwrap();
        assert!(stolen > 0);
        let (victim, moved) = from.expect("job was stolen, not local");
        assert_eq!(victim, 0);
        assert!(moved >= 1, "steal-half moved {moved} jobs");
        assert!(pool.queued() > 0, "steal keeps the remainder queued");
    }

    #[test]
    fn concurrent_workers_drain_cleanly() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let pool = JobPool::new(4);
        pool.inject(0..1000u64);
        let sum = AtomicU64::new(0);
        let served = AtomicU64::new(0);
        std::thread::scope(|s| {
            for w in 0..4 {
                let (pool, sum, served) = (&pool, &sum, &served);
                s.spawn(move || {
                    while let Some(j) = pool.pop(w) {
                        sum.fetch_add(j, Ordering::Relaxed);
                        served.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
        });
        assert_eq!(served.load(Ordering::Relaxed), 1000);
        assert_eq!(sum.load(Ordering::Relaxed), 999 * 1000 / 2);
    }
}
