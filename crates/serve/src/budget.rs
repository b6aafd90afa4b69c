//! The worker-thread budget: a counting semaphore over OS-thread
//! tokens.
//!
//! A cell job is one OS thread whatever its `nprocs`: its simulated
//! processors are sequential programs, run as coroutines on the worker
//! that runs it (`simnet::Rendezvous`). So a worker acquires exactly one
//! token before running a cell and releases it after; there are no
//! spares. Requests larger than the whole budget are clamped, so a
//! caller asking for more than there is can still run (alone).

use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// See module docs.
#[derive(Debug)]
pub struct ThreadBudget {
    capacity: usize,
    free: Mutex<usize>,
    cv: Condvar,
}

impl ThreadBudget {
    /// A budget of `capacity` OS-thread tokens.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "budget must admit at least one token");
        ThreadBudget {
            capacity,
            free: Mutex::new(capacity),
            cv: Condvar::new(),
        }
    }

    /// Total tokens.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Block until `n` tokens (clamped to the capacity) are free, take
    /// them, and return a guard that releases on drop.
    pub fn acquire(&self, n: usize) -> BudgetGuard<'_> {
        let n = n.clamp(1, self.capacity);
        let mut free = self
            .cv
            .wait_while(self.lock(), |free| *free < n)
            .unwrap_or_else(PoisonError::into_inner);
        *free -= n;
        BudgetGuard { budget: self, n }
    }

    /// Tokens currently free (diagnostic snapshot).
    pub fn available(&self) -> usize {
        *self.lock()
    }

    /// The token count, recovered as-is if a panicking holder poisoned
    /// the lock: the count is updated in one statement, so it is never
    /// left half-written.
    fn lock(&self) -> MutexGuard<'_, usize> {
        self.free.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn release(&self, n: usize) {
        let mut free = self.lock();
        *free += n;
        debug_assert!(*free <= self.capacity, "over-release");
        self.cv.notify_all();
    }
}

/// Tokens held by one running cell; released on drop.
#[derive(Debug)]
pub struct BudgetGuard<'a> {
    budget: &'a ThreadBudget,
    n: usize,
}

impl BudgetGuard<'_> {
    /// Tokens this guard holds.
    pub fn tokens(&self) -> usize {
        self.n
    }
}

impl Drop for BudgetGuard<'_> {
    fn drop(&mut self) {
        self.budget.release(self.n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn acquire_release_roundtrip_and_clamp() {
        let b = ThreadBudget::new(8);
        let g = b.acquire(4);
        assert_eq!((g.tokens(), b.available()), (4, 4));
        // Oversized request clamps to the whole budget instead of
        // deadlocking forever.
        drop(g);
        let g = b.acquire(64);
        assert_eq!((g.tokens(), b.available()), (8, 0));
        drop(g);
        assert_eq!(b.available(), 8);
    }

    #[test]
    fn concurrent_holders_never_exceed_capacity() {
        let b = ThreadBudget::new(6);
        let in_flight = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for i in 0..12 {
                let (b, in_flight, peak) = (&b, &in_flight, &peak);
                s.spawn(move || {
                    let want = 1 + (i % 3);
                    let g = b.acquire(want);
                    let now = in_flight.fetch_add(g.tokens(), Ordering::SeqCst) + g.tokens();
                    peak.fetch_max(now, Ordering::SeqCst);
                    std::thread::sleep(std::time::Duration::from_millis(2));
                    in_flight.fetch_sub(g.tokens(), Ordering::SeqCst);
                });
            }
        });
        assert!(peak.load(Ordering::SeqCst) <= 6, "budget exceeded");
        assert_eq!(b.available(), 6);
    }
}
