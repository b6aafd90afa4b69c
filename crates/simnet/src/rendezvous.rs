//! The host-side meeting point of the simulated processors' OS threads.
//!
//! Simulated results never depend on the host schedule, so the only
//! thing the host rendezvous owes the simulation is "everyone is here
//! and parked" — and the only thing it owes the host is to be cheap and
//! never to hang. [`Rendezvous`] is a reusable generation barrier with
//! three properties the standard library's `Barrier` lacks:
//!
//! * **Fused leader.** The last arriver runs the leader section *in
//!   place*, while the other `n − 1` threads are still parked
//!   ([`Rendezvous::wait_then`]); "rendezvous, leader works, rendezvous
//!   again" is one crossing instead of two.
//! * **No wake-up convoy.** The generation is bumped under the lock,
//!   the lock is dropped, and only then are the waiters notified.
//!   The standard `Barrier` notifies while still holding its mutex, so
//!   every woken thread immediately blocks on that mutex and they leave
//!   one futex hand-off at a time (measured on the 2-core build host:
//!   834 µs vs 159 µs per 64-thread crossing).
//! * **Abortable.** [`Rendezvous::run_spmd`] catches a panic on the
//!   rank's own thread and marks the rendezvous aborted; parked and
//!   arriving ranks unwind with a private marker payload, and the
//!   launcher re-raises the panicking rank's own payload. One panicking
//!   rank is a fast, located failure, not `n − 1` threads parked forever.
//!
//! A crossing allocates nothing, and the generation counter doubles as
//! an exact, machine-independent count of host crossings
//! ([`Rendezvous::generation`]); [`Rendezvous::launches`] counts the
//! SPMD launches (`n` thread spawns each) the same way.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// Unwind payload of a rank leaving an aborted rendezvous. Raised with
/// `resume_unwind`, so the panic hook stays silent; [`Rendezvous::run_spmd`]
/// filters it out in favour of the panic that caused the abort.
struct Aborted;

#[derive(Debug)]
struct State {
    arrived: usize,
    generation: u64,
    launches: u64,
    aborted: bool,
}

/// A reusable, abortable barrier for `n` threads whose last arriver runs
/// a leader section before anyone is released. See the module docs.
#[derive(Debug)]
pub struct Rendezvous {
    n: usize,
    state: Mutex<State>,
    released: Condvar,
}

impl Rendezvous {
    /// A rendezvous for `n` threads (`n ≥ 1`).
    pub fn new(n: usize) -> Self {
        assert!(n >= 1, "a rendezvous needs at least one participant");
        Rendezvous {
            n,
            state: Mutex::new(State {
                arrived: 0,
                generation: 0,
                launches: 0,
                aborted: false,
            }),
            released: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        // No caller code runs under this mutex and every unwind below
        // drops its guard first, so poisoning cannot happen; and as each
        // update leaves the fields consistent, recovering would be
        // sound anyway.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Crossings completed since construction — one per
    /// [`Rendezvous::wait_then`] generation, whatever the host schedule.
    pub fn generation(&self) -> u64 {
        self.lock().generation
    }

    /// [`Rendezvous::run_spmd`] calls since construction — `n` OS-thread
    /// spawns each; like the generation, exact host work.
    pub fn launches(&self) -> u64 {
        self.lock().launches
    }

    /// Did a rank of an earlier or the current [`Rendezvous::run_spmd`]
    /// panic? Sticky: the state the ranks shared is torn.
    pub fn is_aborted(&self) -> bool {
        self.lock().aborted
    }

    /// Plain crossing: return once all `n` threads have arrived.
    pub fn wait(&self) {
        self.wait_then(|| {});
    }

    /// Cross the rendezvous; the last thread to arrive runs `leader`
    /// while the others are still parked, and nobody returns before it
    /// has. Everything the arrivers wrote happens-before `leader`, and
    /// everything `leader` wrote happens-before every return. Which
    /// thread leads depends on the host schedule — `leader` must not.
    ///
    /// Leaves by unwinding (see [`Rendezvous::run_spmd`]) if the
    /// rendezvous is or becomes aborted before this generation completes.
    pub fn wait_then(&self, leader: impl FnOnce()) {
        let mut st = self.lock();
        if st.aborted {
            drop(st);
            resume_unwind(Box::new(Aborted));
        }
        st.arrived += 1;
        if st.arrived < self.n {
            let generation = st.generation;
            while st.generation == generation && !st.aborted {
                st = self
                    .released
                    .wait(st)
                    .unwrap_or_else(PoisonError::into_inner);
            }
            let crossed = st.generation != generation;
            drop(st);
            if !crossed {
                resume_unwind(Box::new(Aborted));
            }
            return;
        }
        // Last in: everyone else is parked until the generation moves,
        // so the leader section needs no lock (and a panic inside it
        // cannot poison one).
        drop(st);
        leader();
        let mut st = self.lock();
        st.arrived = 0;
        st.generation += 1;
        drop(st);
        if self.n > 1 {
            self.released.notify_all();
        }
    }

    /// Run `body(rank)` for every rank `0..n` on a scoped OS thread of
    /// its own, wait for them all, and return what each rank's body
    /// returned, in rank order (`result[rank]`).
    ///
    /// ```
    /// let r = simnet::Rendezvous::new(4);
    /// let squares = r.run_spmd(|rank| {
    ///     r.wait(); // ranks may meet as often as they like
    ///     rank * rank
    /// });
    /// assert_eq!(squares, [0, 1, 4, 9]);
    /// ```
    ///
    /// **Panic contract.** A rank's panic is caught on its own thread
    /// and the rendezvous marked aborted: ranks parked in or arriving at
    /// [`Rendezvous::wait_then`] unwind too (silently), ranks that never
    /// reach it again finish normally, and once every thread is done the
    /// lowest panicking rank's *original* payload is re-raised on the
    /// calling thread — no rank's value is returned. The abort is sticky
    /// — a later `run_spmd` panics up front, because whatever the ranks
    /// shared is torn.
    pub fn run_spmd<F, R>(&self, body: F) -> Vec<R>
    where
        F: Fn(usize) -> R + Sync,
        R: Send,
    {
        let refused = {
            let mut st = self.lock();
            st.launches += 1;
            st.aborted
        };
        assert!(
            !refused,
            "aborted: a rank panicked in an earlier run, so this SPMD world's state is torn — build a fresh one"
        );
        // Lowest panicking rank so far and its payload.
        let first: Mutex<Option<(usize, Box<dyn Any + Send>)>> = Mutex::new(None);
        let (body, first_seen) = (&body, &first);
        // Each thread owns its rank's slot for the scope: no lock, and
        // nothing to join one handle at a time afterwards.
        let mut returned: Vec<Option<R>> = (0..self.n).map(|_| None).collect();
        std::thread::scope(|s| {
            for (rank, slot) in returned.iter_mut().enumerate() {
                s.spawn(move || {
                    // The ranks share only what `body` borrows, and a
                    // panic is re-raised below: nothing observes state a
                    // panic tore.
                    let payload = match catch_unwind(AssertUnwindSafe(|| body(rank))) {
                        Ok(value) => {
                            *slot = Some(value);
                            return;
                        }
                        Err(payload) => payload,
                    };
                    if payload.is::<Aborted>() {
                        return; // released by another rank's abort
                    }
                    self.lock().aborted = true;
                    self.released.notify_all();
                    let mut seen = first_seen.lock().unwrap_or_else(PoisonError::into_inner);
                    if seen.as_ref().is_none_or(|&(r, _)| rank < r) {
                        *seen = Some((rank, payload));
                    }
                });
            }
        });
        if let Some((_, payload)) = first.into_inner().unwrap_or_else(PoisonError::into_inner) {
            resume_unwind(payload);
        }
        returned
            .into_iter()
            .map(|slot| slot.expect("no rank panicked, so every rank returned"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

    #[test]
    fn one_participant_leads_and_never_blocks() {
        let r = Rendezvous::new(1);
        let mut led = 0;
        r.wait_then(|| led += 1);
        r.wait();
        r.wait_then(|| led += 1);
        assert_eq!(led, 2);
        assert_eq!(r.generation(), 3);
    }

    #[test]
    fn run_spmd_returns_each_ranks_value_in_rank_order_and_counts_launches() {
        for n in [1, 4, 64] {
            let r = Rendezvous::new(n);
            let got = r.run_spmd(|rank| {
                r.wait();
                // Not `Copy`, not `Sync`-dependent: anything `Send` comes back.
                vec![rank; rank % 3]
            });
            let want: Vec<Vec<usize>> = (0..n).map(|rank| vec![rank; rank % 3]).collect();
            assert_eq!(got, want, "{n} ranks");
            assert_eq!(r.run_spmd(|_| ()).len(), n);
            assert_eq!((r.launches(), r.generation()), (2, 1));
        }
    }

    /// 64 threads × 2 000 generations: the leader runs exactly once per
    /// generation, sees every other thread still parked in that
    /// generation, nobody returns before it has run, and leadership is
    /// not pinned to one thread.
    #[test]
    fn leader_runs_once_per_generation_with_everyone_parked() {
        const N: usize = 64;
        const GENS: u64 = 2000;
        let r = Rendezvous::new(N);
        // Generation each thread is currently waiting in (1-based).
        let at: Vec<AtomicU64> = (0..N).map(|_| AtomicU64::new(0)).collect();
        let led_gen = AtomicU64::new(0);
        let leads: Vec<AtomicUsize> = (0..N).map(|_| AtomicUsize::new(0)).collect();
        r.run_spmd(|rank| {
            for g in 1..=GENS {
                at[rank].store(g, Ordering::SeqCst);
                r.wait_then(|| {
                    for a in &at {
                        assert_eq!(a.load(Ordering::SeqCst), g, "a waiter of {g} ran ahead");
                    }
                    assert_eq!(
                        led_gen.swap(g, Ordering::SeqCst),
                        g - 1,
                        "two leaders in {g}"
                    );
                    leads[rank].fetch_add(1, Ordering::Relaxed);
                });
                assert_eq!(
                    led_gen.load(Ordering::SeqCst),
                    g,
                    "returned before {g}'s leader"
                );
            }
        });
        assert_eq!(r.generation(), GENS);
        let leaders = leads
            .iter()
            .filter(|l| l.load(Ordering::Relaxed) > 0)
            .count();
        assert!(leaders > 1, "only one thread ever led {GENS} generations");
    }

    fn panic_message(payload: Box<dyn Any + Send>) -> String {
        match payload.downcast::<String>() {
            Ok(s) => *s,
            Err(p) => p
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .unwrap_or_default(),
        }
    }

    #[test]
    fn a_panicking_rank_releases_the_parked_ones_with_its_own_payload() {
        let r = Rendezvous::new(8);
        let crossed = AtomicUsize::new(0);
        // Ranks 6 and 7 return a value; the caller still gets only the
        // panic.
        let err = catch_unwind(AssertUnwindSafe(|| -> Vec<usize> {
            r.run_spmd(|rank| {
                r.wait();
                crossed.fetch_add(1, Ordering::Relaxed);
                if rank == 5 {
                    panic!("rank 5 gives up");
                }
                if rank < 5 {
                    r.wait();
                    unreachable!("the second crossing can never complete");
                }
                rank
            })
        }))
        .expect_err("the panic must surface");
        assert_eq!(panic_message(err), "rank 5 gives up");
        assert_eq!(crossed.load(Ordering::Relaxed), 8);
        assert_eq!(r.generation(), 1);
        assert!(r.is_aborted());

        let again = catch_unwind(AssertUnwindSafe(|| r.run_spmd(|_| {})))
            .expect_err("an aborted rendezvous refuses to run");
        assert!(panic_message(again).contains("aborted"));
    }

    #[test]
    fn the_lowest_panicking_rank_wins_and_a_leader_panic_aborts_too() {
        let r = Rendezvous::new(4);
        let err = catch_unwind(AssertUnwindSafe(|| {
            r.run_spmd(|rank| {
                if rank == 1 || rank == 3 {
                    panic!("rank {rank} panicked");
                }
                r.wait();
            })
        }))
        .expect_err("the panic must surface");
        assert_eq!(panic_message(err), "rank 1 panicked");

        let r = Rendezvous::new(4);
        let err = catch_unwind(AssertUnwindSafe(|| {
            r.run_spmd(|_| r.wait_then(|| panic!("leader section failed")))
        }))
        .expect_err("the panic must surface");
        assert_eq!(panic_message(err), "leader section failed");
    }
}
