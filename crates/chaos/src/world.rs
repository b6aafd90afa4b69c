//! The CHAOS execution environment: SPMD processes on the simulated
//! cluster with explicit message passing.
//!
//! CHAOS programs are message-passing programs; there is no shared
//! memory. Each simulated processor owns plain Rust vectors, and all
//! inter-processor data movement goes through [`ChaosProc::exchange`] —
//! a bulk point-to-point exchange whose messages and bytes are accounted
//! on the same [`simnet::Net`] the DSM uses.
//!
//! A message is a run of [`Pod`] values in the one wire encoding the
//! DSM's pages use. The sender stores them straight into the
//! receiver's inbox — one byte arena plus an index per processor, which
//! the world clears after every pickup and never drops — and the
//! receiver loads them straight out of it.

use std::cell::RefCell;
use std::ops::Range;

use simnet::{CostModel, MsgKind, Net, NetReport, Pod, ProcId, SimTime, SpanTag, TraceEvent};

/// One deposited message awaiting pickup: its bytes are `range` of the
/// receiver's arena.
struct Deposit {
    from: ProcId,
    arrival: SimTime,
    range: Range<usize>,
}

/// A processor's messages of the current superstep.
#[derive(Default)]
struct Inbox {
    bytes: Vec<u8>,
    index: Vec<Deposit>,
}

/// The values of one received message, decoded as they are read.
pub type Values<'a, T> = std::iter::Map<std::slice::ChunksExact<'a, u8>, fn(&[u8]) -> T>;

/// The CHAOS "cluster": the simulated machine and the processors'
/// inboxes.
pub struct ChaosWorld {
    net: Net,
    inboxes: Vec<RefCell<Inbox>>,
}

impl ChaosWorld {
    pub fn new(nprocs: usize, cost: CostModel) -> Self {
        ChaosWorld {
            net: Net::new(nprocs, cost),
            inboxes: (0..nprocs).map(|_| RefCell::default()).collect(),
        }
    }

    pub fn nprocs(&self) -> usize {
        self.net.nprocs()
    }

    pub fn net(&self) -> &Net {
        &self.net
    }

    pub fn report(&self) -> NetReport {
        self.net.report()
    }

    pub fn elapsed(&self) -> SimTime {
        self.net.clock_max()
    }

    /// Run the SPMD body on every processor — coroutines on the calling
    /// thread, scheduled in rank order by the net's [`simnet::Rendezvous`] —
    /// and return what each processor's body returned, in rank order — a
    /// CHAOS program's results live in its processors' private vectors,
    /// so this is how they leave the run.
    ///
    /// **Panics.** If `f` panics on some processor, the others unwind
    /// from the `sync` / `exchange` they are suspended in instead of
    /// waiting forever, and that processor's original payload is
    /// re-raised here — nothing is returned ([`simnet::Rendezvous::run_spmd`]);
    /// a processor that returns while others wait for it fails the run
    /// the same way, with a deadlock message. The world is then
    /// *aborted*: a further `run` panics saying so.
    ///
    /// **One thread.** Every processor is a sequential program, as in
    /// the paper, and all of them share the caller's OS thread. The
    /// world's state is plain single-thread data, so a `ChaosWorld` is
    /// not `Sync`: a helper thread a processor starts cannot capture the
    /// world. The compiler refuses it:
    ///
    /// ```compile_fail,E0277
    /// let w = chaos::ChaosWorld::new(2, Default::default());
    /// w.run(|_| std::thread::scope(|s| { s.spawn(|| w.nprocs()); }));
    /// ```
    pub fn run<F, R>(&self, f: F) -> Vec<R>
    where
        F: Fn(&mut ChaosProc) -> R,
    {
        self.net.rendezvous().run_spmd(|rank| {
            f(&mut ChaosProc {
                world: self,
                me: rank,
            })
        })
    }
}

/// A CHAOS processor: rank + communication primitives.
pub struct ChaosProc<'w> {
    world: &'w ChaosWorld,
    me: ProcId,
}

impl<'w> ChaosProc<'w> {
    #[inline]
    pub fn rank(&self) -> ProcId {
        self.me
    }

    #[inline]
    pub fn nprocs(&self) -> usize {
        self.world.nprocs()
    }

    /// The simulated interconnect. Borrowed for the *world's* lifetime,
    /// not this handle's, so callers can hold a clock-category scope
    /// ([`Net::scope`]) across `&mut self` exchange calls.
    pub fn net(&self) -> &'w Net {
        &self.world.net
    }

    pub fn now(&self) -> SimTime {
        self.world.net.clock(self.me)
    }

    /// Charge modeled compute time.
    #[inline]
    pub fn compute(&self, dt: SimTime) {
        self.world.net.advance(self.me, dt);
    }

    /// Open trace span `tag` on this processor's lane.
    pub(crate) fn span_begin(&self, tag: SpanTag) {
        self.net().trace(self.me, TraceEvent::SpanBegin { tag });
    }

    /// Close trace span `tag` on this processor's lane.
    pub(crate) fn span_end(&self, tag: SpanTag) {
        self.net().trace(self.me, TraceEvent::SpanEnd { tag });
    }

    /// Bulk point-to-point exchange (BSP superstep): send each
    /// `(peer, values)` of `outgoing` as one message, then hand every
    /// message addressed to this processor to `recv`, sorted by sender
    /// and in deposit order within a sender.
    ///
    /// Each message is billed `len × T::SIZE` bytes, even when empty.
    /// Senders are charged injection + per-byte costs; receivers wait for
    /// each arrival and pay a handler per message. This is CHAOS's
    /// one-message-per-pair "push" pattern — no request leg, which the
    /// paper credits for part of CHAOS's edge on nbf (§5.2.1).
    ///
    /// Collective, and two rendezvous crossings: one after the deposits,
    /// one after the pickups. `recv` runs between them and must not
    /// suspend. Panics, naming the ranks, if a peer is this processor or
    /// not below `nprocs` — a self-send is a local copy, not a message.
    pub fn exchange<T, V>(
        &mut self,
        kind: MsgKind,
        outgoing: impl IntoIterator<Item = (ProcId, V)>,
        mut recv: impl FnMut(ProcId, Values<'_, T>),
    ) where
        T: Pod,
        V: IntoIterator<Item = T>,
    {
        let (world, me) = (self.world, self.me);
        let net = &world.net;
        for (to, vals) in outgoing {
            assert!(
                to != me && to < net.nprocs(),
                "chaos exchange from rank {me} to rank {to}: the target must be another rank \
                 below nprocs = {}",
                net.nprocs()
            );
            let inbox = &mut *world.inboxes[to].borrow_mut();
            let start = inbox.bytes.len();
            for v in vals {
                let at = inbox.bytes.len();
                inbox.bytes.resize(at + T::SIZE, 0);
                v.store(&mut inbox.bytes[at..]);
            }
            let range = start..inbox.bytes.len();
            let arrival = net.push(me, kind, range.len());
            net.trace(
                me,
                TraceEvent::Msg {
                    kind,
                    peer: to as u32,
                    bytes: range.len() as u32,
                    out: true,
                },
            );
            inbox.index.push(Deposit {
                from: me,
                arrival,
                range,
            });
        }
        // All deposits in.
        net.rendezvous().wait();
        {
            let inbox = &mut *world.inboxes[me].borrow_mut();
            // A sender's deposits ascend in the arena, so this is sender
            // order, then deposit order.
            inbox
                .index
                .sort_unstable_by_key(|d| (d.from, d.range.start));
            for d in &inbox.index {
                net.await_until(me, d.arrival);
                // Receive-side handler/unpack overhead.
                net.advance(me, net.cost().handler());
                net.trace(
                    me,
                    TraceEvent::Msg {
                        kind,
                        peer: d.from as u32,
                        bytes: d.range.len() as u32,
                        out: false,
                    },
                );
                let load: fn(&[u8]) -> T = T::load;
                recv(
                    d.from,
                    inbox.bytes[d.range.clone()].chunks_exact(T::SIZE).map(load),
                );
            }
            inbox.bytes.clear();
            inbox.index.clear();
        }
        // All inboxes drained before anyone deposits for the next round.
        net.rendezvous().wait();
    }

    /// Global synchronization (timestep boundary): rendezvous, then
    /// bill a barrier that carries no data ([`Net::bill_barrier`]).
    pub fn sync(&mut self) {
        let net = self.net();
        net.rendezvous()
            .wait_then(|| net.bill_barrier(MsgKind::Other, 8, |_| 0));
    }

    /// Collectively zero clocks and counters (untimed-initialization
    /// boundary, like the DSM side's `start_timed_region`).
    pub fn start_timed_region(&mut self) {
        self.sync();
        // The reset runs at the head of the closing sync's leader
        // section, with every processor suspended — as on the DSM side, so
        // nobody can read a clock or emit a traced event mid-reset. (The
        // DSM needs a crossing of its own for this because its barrier
        // does protocol work before arriving; a CHAOS sync does not.)
        let net = self.net();
        net.rendezvous().wait_then(|| {
            net.reset();
            net.bill_barrier(MsgKind::Other, 8, |_| 0);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exchange_delivers_sorted_by_sender() {
        let w = ChaosWorld::new(3, CostModel::default());
        w.run(|cp| {
            let me = cp.rank();
            // Everyone sends their rank to everyone else.
            let out = (0..3).filter(|&q| q != me).map(|q| (q, [me as u32]));
            let mut froms = Vec::new();
            cp.exchange(MsgKind::Gather, out, |from, vals| {
                froms.push(from);
                assert_eq!(vals.collect::<Vec<u32>>(), [from as u32]);
            });
            let expect: Vec<usize> = (0..3).filter(|&q| q != me).collect();
            assert_eq!(froms, expect);
        });
        assert_eq!(w.report().messages, 6);
    }

    #[test]
    fn f64_and_u32_roundtrip() {
        let w = ChaosWorld::new(2, CostModel::default());
        w.run(|cp| {
            let (mut f, mut u) = (Vec::new(), Vec::new());
            let to_1 = (cp.rank() == 0).then_some(1);
            cp.exchange(
                MsgKind::Gather,
                to_1.map(|q| (q, [1.5, -2.25])),
                |from, vals| f.push((from, vals.collect::<Vec<f64>>())),
            );
            cp.exchange(
                MsgKind::Schedule,
                to_1.map(|q| (q, [7u32, 8, 9])),
                |from, vals| u.push((from, vals.collect::<Vec<u32>>())),
            );
            if cp.rank() == 1 {
                assert_eq!(f, vec![(0, vec![1.5, -2.25])]);
                assert_eq!(u, vec![(0, vec![7, 8, 9])]);
            }
        });
        assert_eq!(w.report().bytes, 16 + 12);
    }

    #[test]
    fn sync_aligns_clocks() {
        let w = ChaosWorld::new(4, CostModel::default());
        w.run(|cp| {
            cp.compute(SimTime::from_us(100.0 * (cp.rank() as f64 + 1.0)));
            cp.sync();
            let t = cp.now();
            assert!(t >= SimTime::from_us(400.0));
        });
        // 2(n-1) barrier messages.
        assert_eq!(w.report().messages, 6);
    }

    #[test]
    fn empty_exchange_costs_nothing() {
        let w = ChaosWorld::new(2, CostModel::default());
        w.run(|cp| {
            cp.exchange(MsgKind::Gather, [] as [(ProcId, [f64; 0]); 0], |_, _| {
                panic!("nothing was sent")
            });
        });
        assert_eq!(w.report().messages, 0);
        assert_eq!(w.elapsed(), SimTime::ZERO);
    }

    #[test]
    fn run_returns_each_processors_value_in_rank_order() {
        for nprocs in [1, 4, 64] {
            let w = ChaosWorld::new(nprocs, CostModel::default());
            let got = w.run(|cp| {
                cp.sync();
                vec![cp.rank() as f64; 2]
            });
            let want: Vec<_> = (0..nprocs).map(|r| vec![r as f64; 2]).collect();
            assert_eq!(got, want);
            assert_eq!(w.net().rendezvous().launches(), 1);
        }
    }

    /// One processor panicking before its first `sync` / `exchange` must
    /// fail the whole `run` fast and with *its* message — not park the
    /// other `nprocs − 1` forever — return nobody's value, and leave the
    /// world refusing to run again.
    #[test]
    fn a_panicking_processor_fails_the_run_fast_with_its_own_message() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let message = |payload: Box<dyn std::any::Any + Send>| match payload.downcast::<String>() {
            Ok(s) => *s,
            Err(p) => p
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .unwrap_or_default(),
        };
        for nprocs in [4, 64] {
            for via_exchange in [false, true] {
                let w = ChaosWorld::new(nprocs, CostModel::default());
                let t0 = std::time::Instant::now();
                let err = catch_unwind(AssertUnwindSafe(|| -> Vec<usize> {
                    w.run(|cp| {
                        if cp.rank() == 1 {
                            panic!("rank 1 of {nprocs} lost its input");
                        }
                        if cp.rank() == 0 {
                            return 0; // returns normally; still not handed back
                        }
                        if via_exchange {
                            cp.exchange(MsgKind::Gather, [] as [(ProcId, [u32; 0]); 0], |_, _| {});
                        } else {
                            cp.sync();
                        }
                        cp.start_timed_region();
                        cp.rank()
                    })
                }))
                .expect_err("the processor's panic must reach the caller");
                assert!(
                    t0.elapsed() < std::time::Duration::from_secs(1),
                    "{nprocs} processors took {:?} to fail",
                    t0.elapsed()
                );
                assert_eq!(message(err), format!("rank 1 of {nprocs} lost its input"));

                let again = catch_unwind(AssertUnwindSafe(|| w.run(|_| {})))
                    .expect_err("an aborted world must refuse to run");
                assert!(message(again).contains("aborted"));
            }
        }
    }

    #[test]
    fn sync_is_one_crossing_and_exchange_two() {
        let w = ChaosWorld::new(3, CostModel::default());
        w.run(|cp| {
            cp.sync();
            cp.exchange(MsgKind::Gather, [] as [(ProcId, [u32; 0]); 0], |_, _| {});
            cp.start_timed_region();
        });
        assert_eq!(w.net().rendezvous().generation(), 1 + 2 + 2);
        // The closing sync of the timed-region boundary is billed to the
        // freshly zeroed counters.
        assert_eq!(w.report().messages, 4);
    }

    /// An exchange addressed to the sender itself or past the last rank
    /// names the sender, the target and nprocs.
    #[test]
    #[should_panic(
        expected = "chaos exchange from rank 2 to rank 2: the target must be another \
                               rank below nprocs = 4"
    )]
    fn an_exchange_to_itself_panics_naming_the_ranks() {
        ChaosWorld::new(4, CostModel::default()).run(|cp| {
            let me = cp.rank();
            let to = if me == 2 { 2 } else { (me + 1) % 4 };
            cp.exchange(MsgKind::Gather, [(to, [1.0f64])], |_, _| {});
        });
    }

    #[test]
    #[should_panic(
        expected = "chaos exchange from rank 0 to rank 4: the target must be another \
                               rank below nprocs = 4"
    )]
    fn an_exchange_past_the_last_rank_panics_naming_the_ranks() {
        ChaosWorld::new(4, CostModel::default()).run(|cp| {
            let to = cp.rank() + 4;
            cp.exchange(MsgKind::Gather, [(to, [1u32])], |_, _| {});
        });
    }
}
