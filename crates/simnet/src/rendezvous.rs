//! The host-side scheduler and meeting point of the simulated processors.
//!
//! Simulated results never depend on the host schedule, so the only
//! thing the host owes the simulation is "one processor runs until it
//! blocks, then another does". [`Rendezvous::run_spmd`] runs the `n` rank
//! bodies as stackful coroutines **on the calling OS thread**
//! (`crate::coroutine`), and the rendezvous is their cooperative
//! scheduler:
//!
//! * **One deterministic schedule.** Ranks are resumed in cyclic rank
//!   order, skipping those that cannot run; a rank keeps the thread until
//!   it waits at a crossing it is not the last to reach
//!   ([`Rendezvous::wait_then`]), yields ([`Rendezvous::yield_now`]) or
//!   returns. Who runs when is a pure function of the program.
//! * **Fused leader.** The last arriver at a crossing runs the leader
//!   section in place — everyone else is suspended in that crossing — and
//!   keeps running; "rendezvous, leader works, rendezvous again" is one
//!   crossing, and a crossing is two context switches per waiter, not a
//!   futex wake-up on another CPU.
//! * **Never a hang.** A rank's panic is caught on its own coroutine and
//!   marks the rendezvous aborted: suspended ranks are resumed once to
//!   unwind with a private marker payload, and the launcher re-raises the
//!   panicking rank's own payload. When no rank can run and not all have
//!   returned — a rank returned while others wait at a crossing — the
//!   launch fails with a message naming who waits where.
//!
//! A crossing allocates nothing, and the generation counter doubles as
//! an exact, machine-independent count of host crossings
//! ([`Rendezvous::generation`]); [`Rendezvous::launches`] counts the
//! SPMD launches the same way. The coroutine stacks (256 KiB each, lazily
//! committed, guard page below) belong to the rendezvous and are reused
//! by every launch, so a pooled cluster never allocates one.

use std::any::Any;
use std::cell::Cell;
use std::panic::resume_unwind;
use std::sync::{Mutex, MutexGuard, PoisonError};

use crate::coroutine::{self, Coroutine, Resumed, Stack};

/// Unwind payload of a rank leaving an aborted rendezvous. Raised with
/// `resume_unwind`, so the panic hook stays silent; [`Rendezvous::run_spmd`]
/// filters it out in favour of the panic that caused the abort.
struct Aborted;

/// Where a rank of the launch in flight stands.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Rank {
    /// Not resumed yet (and never will be once the launch is aborted).
    Fresh,
    /// Started, and free to continue.
    Runnable,
    /// Suspended in the crossing that completes generation `.0`.
    Waiting(u64),
    /// Its body returned or unwound.
    Done,
}

#[derive(Debug)]
struct State {
    arrived: usize,
    generation: u64,
    launches: u64,
    aborted: bool,
    /// The launch in flight: each rank's standing, the rank being resumed
    /// and the `Coroutine::id` it runs on. Empty between launches.
    ranks: Vec<Rank>,
    current: usize,
    current_id: usize,
    /// Idle coroutine stacks, kept for the next launch.
    stacks: Vec<Stack>,
}

/// A reusable, abortable meeting point of `n` ranks whose last arriver
/// runs a leader section before anyone continues, and the scheduler that
/// runs those ranks on one OS thread. See the module docs.
#[derive(Debug)]
pub struct Rendezvous {
    n: usize,
    state: Mutex<State>,
}

impl Rendezvous {
    /// A rendezvous for `n` ranks (`n ≥ 1`).
    pub fn new(n: usize) -> Self {
        assert!(n >= 1, "a rendezvous needs at least one participant");
        Rendezvous {
            n,
            state: Mutex::new(State {
                arrived: 0,
                generation: 0,
                launches: 0,
                aborted: false,
                ranks: Vec::new(),
                current: 0,
                current_id: 0,
                stacks: Vec::new(),
            }),
        }
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        // No caller code runs under this mutex and no guard is held across
        // a context switch. Only a misuse assert below can unwind with the
        // guard held, and as each update leaves the fields consistent,
        // recovering from that poison is sound.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Crossings completed since construction — one per
    /// [`Rendezvous::wait_then`] generation, whatever the schedule.
    pub fn generation(&self) -> u64 {
        self.lock().generation
    }

    /// [`Rendezvous::run_spmd`] calls since construction; like the
    /// generation, exact host work.
    pub fn launches(&self) -> u64 {
        self.lock().launches
    }

    /// Did a rank of an earlier or the current [`Rendezvous::run_spmd`]
    /// panic (or the launch deadlock)? Sticky: the state the ranks shared
    /// is torn.
    pub fn is_aborted(&self) -> bool {
        self.lock().aborted
    }

    /// The rank whose coroutine is calling, which must be the one this
    /// rendezvous resumed last: only that code may suspend into it.
    fn calling_rank(&self, st: &State, what: &str) -> usize {
        assert!(
            !st.ranks.is_empty() && coroutine::current() == Some(st.current_id),
            "Rendezvous::{what} would block, but the caller is not a rank of a run_spmd \
             in flight on this rendezvous (and this thread): nobody could resume it"
        );
        st.current
    }

    /// Suspend the calling rank; unwind instead of returning if the
    /// rendezvous is aborted by the time it is resumed.
    fn suspend(&self) {
        coroutine::suspend();
        if self.lock().aborted {
            resume_unwind(Box::new(Aborted));
        }
    }

    /// Plain crossing: return once all `n` ranks have arrived.
    pub fn wait(&self) {
        self.wait_then(|| {});
    }

    /// Cross the rendezvous; the last rank to arrive runs `leader` while
    /// the others are still suspended, and nobody continues before it
    /// has. Which rank leads follows from the schedule — `leader` must
    /// not depend on it.
    ///
    /// Leaves by unwinding (see [`Rendezvous::run_spmd`]) if the
    /// rendezvous is or becomes aborted before the caller runs again.
    /// Panics if the caller would have to wait but is not a rank of a
    /// launch in flight (with `n == 1` nobody ever waits).
    pub fn wait_then(&self, leader: impl FnOnce()) {
        let mut st = self.lock();
        if st.aborted {
            drop(st);
            resume_unwind(Box::new(Aborted));
        }
        if st.arrived + 1 < self.n {
            let me = self.calling_rank(&st, "wait_then");
            st.arrived += 1;
            st.ranks[me] = Rank::Waiting(st.generation);
            drop(st);
            return self.suspend();
        }
        // Last in: everyone else is suspended until the scheduler sees
        // the generation move, so the leader section needs no lock (and
        // a panic inside it cannot poison one).
        drop(st);
        leader();
        let mut st = self.lock();
        st.arrived = 0;
        st.generation += 1;
    }

    /// Let every other rank that can run do so, then continue: the
    /// caller stays runnable. For a rank that polls something only
    /// another rank can change (a held lock). Unwinds like
    /// [`Rendezvous::wait_then`] if the rendezvous is aborted, and panics
    /// outside a launch.
    pub fn yield_now(&self) {
        let st = self.lock();
        if st.aborted {
            drop(st);
            resume_unwind(Box::new(Aborted));
        }
        self.calling_rank(&st, "yield_now");
        drop(st);
        self.suspend();
    }

    /// Run `body(rank)` for every rank `0..n` as a coroutine on the
    /// calling thread — no OS thread is spawned — until all have
    /// returned, and return what each rank's body returned, in rank
    /// order (`result[rank]`).
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
    /// **Schedule.** Rank 0 runs first; whenever the running rank waits,
    /// yields or returns, the next rank in cyclic order that can run is
    /// resumed. A body that spins without calling [`Rendezvous::wait_then`]
    /// or [`Rendezvous::yield_now`] therefore spins forever: nothing
    /// preempts it. Each rank has 256 KiB of stack.
    ///
    /// **Failure contract.** A rank's panic is caught on its own
    /// coroutine and the rendezvous marked aborted: every suspended rank
    /// is resumed once and unwinds (silently) from its
    /// [`Rendezvous::wait_then`] / [`Rendezvous::yield_now`], ranks not
    /// yet started never start, and the panicking rank's *original*
    /// payload is re-raised on the caller — no rank's value is returned.
    /// If no rank can run and not all have returned (a rank returned
    /// while others wait at a crossing), the launch is aborted the same
    /// way and panics with a message naming who waits at which crossing
    /// and who returned. The abort is sticky — a later `run_spmd` panics
    /// up front, because whatever the ranks shared is torn. A nested
    /// `run_spmd` on *another* rendezvous works; on this one it panics.
    pub fn run_spmd<F, R>(&self, body: F) -> Vec<R>
    where
        F: Fn(usize) -> R + Sync,
        R: Send,
    {
        let mut stacks = {
            let mut st = self.lock();
            st.launches += 1;
            assert!(
                !st.aborted,
                "aborted: a rank panicked in an earlier run, so this SPMD world's state is torn — build a fresh one"
            );
            assert!(
                st.ranks.is_empty(),
                "run_spmd on a rendezvous whose run_spmd is still in flight (a nested launch needs a rendezvous of its own)"
            );
            st.ranks.resize(self.n, Rank::Fresh);
            std::mem::take(&mut st.stacks)
        };
        let returned: Vec<Cell<Option<R>>> = (0..self.n).map(|_| Cell::new(None)).collect();
        let rank_body = |rank: usize| returned[rank].set(Some(body(rank)));
        let failure =
            coroutine::with_coroutines(&mut stacks, self.n, &rank_body, |ranks| self.drive(ranks));
        {
            let mut st = self.lock();
            st.ranks.clear();
            st.stacks = stacks;
        }
        match failure {
            Some(Failure::Panic(payload)) => resume_unwind(payload),
            Some(Failure::Deadlock(message)) => panic!("{message}"),
            None => returned
                .into_iter()
                .map(|slot| slot.into_inner().expect("no rank panicked, so every rank returned"))
                .collect(),
        }
    }

    /// The scheduler: resume ranks in cyclic order until none is left.
    fn drive(&self, ranks: &mut [Coroutine<'_>]) -> Option<Failure> {
        let mut failure = None;
        let mut from = 0;
        loop {
            let rank = {
                let mut st = self.lock();
                let (generation, aborted) = (st.generation, st.aborted);
                let can_run = |r: &Rank| match *r {
                    Rank::Fresh => !aborted,
                    Rank::Runnable => true,
                    Rank::Waiting(g) => aborted || g < generation,
                    Rank::Done => false,
                };
                let next = (0..self.n)
                    .map(|k| (from + k) % self.n)
                    .find(|&r| can_run(&st.ranks[r]));
                match next {
                    Some(r) => {
                        st.ranks[r] = Rank::Runnable;
                        st.current = r;
                        st.current_id = ranks[r].id();
                        r
                    }
                    None if aborted || st.ranks.iter().all(|r| *r == Rank::Done) => return failure,
                    None => {
                        // Abort, and go round again: the waiters are now
                        // resumed to unwind.
                        failure = Some(Failure::Deadlock(deadlock_message(&st.ranks, generation)));
                        st.aborted = true;
                        continue;
                    }
                }
            };
            let outcome = ranks[rank].resume();
            from = rank + 1;
            if let Resumed::Suspended = outcome {
                continue;
            }
            let mut st = self.lock();
            st.ranks[rank] = Rank::Done;
            if let Resumed::Panicked(payload) = outcome {
                if !payload.is::<Aborted>() {
                    st.aborted = true;
                    failure.get_or_insert(Failure::Panic(payload));
                }
            }
        }
    }
}

/// Why a launch returns nobody's value.
enum Failure {
    /// The first rank to panic, with its payload.
    Panic(Box<dyn Any + Send>),
    Deadlock(String),
}

/// Who waits and who returned, when nobody can run. Every waiter waits
/// for `generation`: one that waited for an earlier crossing could run.
fn deadlock_message(ranks: &[Rank], generation: u64) -> String {
    let list = |want: Rank| {
        let found: Vec<String> = (0..ranks.len())
            .filter(|&r| ranks[r] == want)
            .map(|r| r.to_string())
            .collect();
        found.join(", ")
    };
    format!(
        "deadlock: no rank can run — rank(s) {} wait at crossing {generation}, \
         rank(s) {} returned and will never arrive",
        list(Rank::Waiting(generation)),
        list(Rank::Done)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
    use std::sync::Mutex;
    use std::time::{Duration, Instant};

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

    /// The no-OS-thread tripwire: every rank body runs on the thread that
    /// called `run_spmd`.
    #[test]
    fn every_rank_runs_on_the_calling_thread() {
        for n in [4, 64] {
            let r = Rendezvous::new(n);
            let caller = std::thread::current().id();
            let seen = r.run_spmd(|_| {
                let before = std::thread::current().id();
                r.wait();
                (before, std::thread::current().id())
            });
            assert!(seen.iter().all(|&ids| ids == (caller, caller)), "{n} ranks");
        }
    }

    /// Ranks run in cyclic rank order, each until it waits, yields or
    /// returns; the last arriver leads and keeps the thread. Pinned for
    /// one small program, and the same on every launch.
    #[test]
    fn the_schedule_is_pinned_and_repeats_on_every_launch() {
        let r = Rendezvous::new(3);
        let mut first = None;
        for _ in 0..100 {
            let log = Mutex::new(Vec::new());
            let note = |rank: usize, at: &'static str| log.lock().unwrap().push((rank, at));
            r.run_spmd(|rank| {
                note(rank, "a");
                r.wait_then(|| note(rank, "lead 1"));
                note(rank, "b");
                if rank == 1 {
                    r.yield_now();
                    note(rank, "yielded");
                }
                r.wait_then(|| note(rank, "lead 2"));
                note(rank, "c");
            });
            let log = log.into_inner().unwrap();
            let want = [
                (0, "a"),
                (1, "a"),
                (2, "a"),
                (2, "lead 1"),
                (2, "b"),
                (0, "b"),
                (1, "b"),
                (1, "yielded"),
                (1, "lead 2"),
                (1, "c"),
                (2, "c"),
                (0, "c"),
            ];
            assert_eq!(log, want);
            assert_eq!(*first.get_or_insert(log.clone()), log);
        }
        assert_eq!((r.generation(), r.launches()), (200, 100));
    }

    /// 64 ranks × 2 000 generations: the leader runs exactly once per
    /// generation, sees every other rank still suspended in that
    /// generation, nobody continues before it has run, and leadership is
    /// not pinned to one rank.
    #[test]
    fn leader_runs_once_per_generation_with_everyone_parked() {
        const N: usize = 64;
        const GENS: u64 = 2000;
        let r = Rendezvous::new(N);
        // Generation each rank is currently waiting in (1-based).
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
        assert!(leaders > 1, "only one rank ever led {GENS} generations");
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
        let crossed = Mutex::new(Vec::new());
        // Rank 7 returns a value; the caller still gets only the panic.
        let err = catch_unwind(AssertUnwindSafe(|| -> Vec<usize> {
            r.run_spmd(|rank| {
                r.wait();
                crossed.lock().unwrap().push(rank);
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
        // The schedule, exactly: rank 7 arrives last, leads and returns;
        // ranks 0–4 cross and suspend in the second crossing; rank 5
        // crosses and panics; rank 6 — released by the first crossing but
        // not resumed before the abort — unwinds without crossing, like
        // the five suspended in the second.
        assert_eq!(*crossed.lock().unwrap(), [7, 0, 1, 2, 3, 4, 5]);
        assert_eq!(r.generation(), 1);
        assert!(r.is_aborted());

        let again = catch_unwind(AssertUnwindSafe(|| r.run_spmd(|_| {})))
            .expect_err("an aborted rendezvous refuses to run");
        assert!(panic_message(again).contains("aborted"));
    }

    #[test]
    fn the_first_panicking_rank_wins_and_a_leader_panic_aborts_too() {
        let r = Rendezvous::new(4);
        let started = AtomicUsize::new(0);
        let err = catch_unwind(AssertUnwindSafe(|| {
            r.run_spmd(|rank| {
                started.fetch_add(1, Ordering::Relaxed);
                if rank == 1 || rank == 3 {
                    panic!("rank {rank} panicked");
                }
                r.wait();
            })
        }))
        .expect_err("the panic must surface");
        assert_eq!(panic_message(err), "rank 1 panicked");
        // Ranks 2 and 3 were not started yet when rank 1 aborted the
        // launch, and never are.
        assert_eq!(started.load(Ordering::Relaxed), 2);

        let r = Rendezvous::new(4);
        let err = catch_unwind(AssertUnwindSafe(|| {
            r.run_spmd(|_| r.wait_then(|| panic!("leader section failed")))
        }))
        .expect_err("the panic must surface");
        assert_eq!(panic_message(err), "leader section failed");
    }

    /// A rank that returns while the others wait for it is a located
    /// failure in microseconds, not a hang.
    #[test]
    fn a_rank_returning_early_is_a_deadlock_message_not_a_hang() {
        for n in [4, 64] {
            let r = Rendezvous::new(n);
            let t0 = Instant::now();
            let err = catch_unwind(AssertUnwindSafe(|| {
                r.run_spmd(|rank| {
                    r.wait();
                    if rank != 2 {
                        r.wait(); // rank 2 is one crossing short
                    }
                })
            }))
            .expect_err("a launch that cannot finish must fail");
            assert!(t0.elapsed() < Duration::from_secs(1), "{:?}", t0.elapsed());
            let message = panic_message(err);
            assert!(message.starts_with("deadlock: no rank can run"), "{message}");
            assert!(message.contains("wait at crossing 1"), "{message}");
            assert!(message.contains("rank(s) 2 returned and will never arrive"), "{message}");
            assert_eq!(r.generation(), 1);
            assert!(r.is_aborted());
        }
    }

    #[test]
    fn waiting_or_yielding_outside_a_launch_is_refused() {
        let r = Rendezvous::new(2);
        for block in [&(|| r.wait()) as &dyn Fn(), &|| r.yield_now()] {
            let err = catch_unwind(AssertUnwindSafe(block)).expect_err("nobody could resume it");
            assert!(panic_message(err).contains("not a rank of a run_spmd in flight"));
        }
    }

    /// A launch from inside a rank body works on a rendezvous of its own
    /// (its scheduler runs on the outer rank's stack) and is refused, in
    /// words, on the one already running.
    #[test]
    fn a_nested_launch_needs_and_gets_a_rendezvous_of_its_own() {
        let outer = Rendezvous::new(3);
        let sums = outer.run_spmd(|rank| {
            let inner = Rendezvous::new(2);
            outer.wait();
            let got = inner.run_spmd(|r| {
                inner.wait();
                10 * rank + r
            });
            outer.wait();
            got.iter().sum::<usize>()
        });
        assert_eq!(sums, [1, 21, 41]);
        assert_eq!(outer.generation(), 2);

        let err = catch_unwind(AssertUnwindSafe(|| outer.run_spmd(|_| outer.run_spmd(|_| ()))))
            .expect_err("one launch at a time");
        assert!(panic_message(err).contains("still in flight"));
    }

    /// 64 KiB of locals (plus the debug build's own frames) fit a rank's
    /// stack, across a suspension.
    #[test]
    fn a_rank_may_use_64_kib_of_stack() {
        #[inline(never)]
        fn deep(r: &Rendezvous, rank: usize) -> usize {
            let mut buf = [0u8; 64 * 1024];
            for (i, b) in buf.iter_mut().enumerate() {
                *b = (i + rank) as u8;
            }
            r.wait();
            std::hint::black_box(&buf).iter().map(|&b| b as usize).sum()
        }
        let r = Rendezvous::new(4);
        let sums = r.run_spmd(|rank| deep(&r, rank));
        assert_eq!(sums[0], (0..64 * 1024).map(|i| i % 256).sum::<usize>());
        assert!(sums.iter().all(|&s| s > 0));
    }

    /// The unwinder and a backtrace walk both end cleanly at a rank's
    /// stack base: a captured backtrace is resolved inside a rank, and the
    /// rank's panic still surfaces with its payload. (CI runs this file's
    /// tests under `RUST_BACKTRACE=1` too, where the panic hook does the
    /// walk.)
    #[test]
    fn a_backtrace_and_a_panic_inside_a_rank_end_at_its_stack_base() {
        let r = Rendezvous::new(2);
        let err = catch_unwind(AssertUnwindSafe(|| {
            r.run_spmd(|rank| {
                r.wait();
                let trace = std::backtrace::Backtrace::force_capture().to_string();
                assert!(trace.contains("run_spmd"), "{trace}");
                if rank == 1 {
                    panic!("rank 1 panicked after a backtrace of {} bytes", trace.len());
                }
                r.wait();
            })
        }))
        .expect_err("the panic must surface");
        assert!(panic_message(err).starts_with("rank 1 panicked after a backtrace"));
    }

    /// The stacks belong to the rendezvous: a second launch builds none.
    #[test]
    fn stacks_are_reused_across_launches() {
        let r = Rendezvous::new(8);
        r.run_spmd(|_| r.wait());
        let pooled = || {
            let mut stacks: Vec<String> = r.lock().stacks.iter().map(|s| format!("{s:?}")).collect();
            stacks.sort();
            stacks
        };
        let first = pooled();
        assert_eq!(first.len(), 8);
        r.run_spmd(|_| r.wait());
        assert_eq!(pooled(), first);
    }
}
