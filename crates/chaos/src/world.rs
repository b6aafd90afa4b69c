//! The CHAOS execution environment: SPMD processes on the simulated
//! cluster with explicit message passing.
//!
//! CHAOS programs are message-passing programs; there is no shared
//! memory. Each simulated processor owns plain Rust vectors, and all
//! inter-processor data movement goes through [`ChaosProc::exchange`] —
//! a bulk point-to-point exchange whose messages and bytes are accounted
//! on the same [`simnet::Net`] the DSM uses.

use std::cell::RefCell;

use simnet::{CostModel, MsgKind, Net, NetReport, ProcId, Rendezvous, SimTime};

/// One deposited message awaiting pickup.
struct Deposit {
    from: ProcId,
    arrival: SimTime,
    bytes: Vec<u8>,
}

/// The CHAOS "cluster": processors, inboxes, and the rendezvous.
pub struct ChaosWorld {
    nprocs: usize,
    net: Net,
    inboxes: Vec<RefCell<Vec<Deposit>>>,
    bar: Rendezvous,
}

impl ChaosWorld {
    pub fn new(nprocs: usize, cost: CostModel) -> Self {
        ChaosWorld {
            nprocs,
            net: Net::new(nprocs, cost),
            inboxes: (0..nprocs).map(|_| RefCell::new(Vec::new())).collect(),
            bar: Rendezvous::new(nprocs),
        }
    }

    pub fn nprocs(&self) -> usize {
        self.nprocs
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

    /// Host rendezvous crossings since construction (one per `sync`, two
    /// per `exchange`) — exact, independent of the host schedule.
    pub fn rendezvous_crossings(&self) -> u64 {
        self.bar.generation()
    }

    /// [`ChaosWorld::run`] calls since construction — exact host work,
    /// like the crossings.
    pub fn spmd_launches(&self) -> u64 {
        self.bar.launches()
    }

    /// Run the SPMD body on every processor — coroutines on the calling
    /// thread, scheduled in rank order by the world's [`Rendezvous`] —
    /// and return what each processor's body returned, in rank order — a
    /// CHAOS program's results live in its processors' private vectors,
    /// so this is how they leave the run.
    ///
    /// **Panics.** If `f` panics on some processor, the others unwind
    /// from the `sync` / `exchange` they are suspended in instead of
    /// waiting forever, and that processor's original payload is
    /// re-raised here — nothing is returned ([`Rendezvous::run_spmd`]);
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
        self.bar.run_spmd(|rank| {
            f(&mut ChaosProc {
                world: self,
                me: rank,
            })
        })
    }

    /// The leader section of a `sync`: count the 2(n−1) barrier
    /// messages and align the simulated clocks.
    fn bill_sync(&self) {
        if self.nprocs > 1 {
            let net = &self.net;
            let cost = net.cost();
            for p in 1..self.nprocs {
                net.count_only(p, MsgKind::Other, 1, 8);
                net.count_only(0, MsgKind::Other, 1, 8);
            }
            let t = net.clock_max() + SimTime::from_us(2.0 * cost.msg_latency_us + cost.barrier_us);
            net.set_all_clocks(t);
        }
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
        self.world.nprocs
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

    /// Bulk point-to-point exchange (BSP superstep): send `outgoing`
    /// byte payloads, receive everything addressed to this processor.
    /// Returns messages sorted by sender for determinism.
    ///
    /// Senders are charged injection + per-byte costs; receivers wait for
    /// the latest arrival among their incoming messages. This is CHAOS's
    /// one-message-per-pair "push" pattern — no request leg, which the
    /// paper credits for part of CHAOS's edge on nbf (§5.2.1).
    pub fn exchange(
        &mut self,
        kind: MsgKind,
        outgoing: Vec<(ProcId, Vec<u8>)>,
    ) -> Vec<(ProcId, Vec<u8>)> {
        let net = &self.world.net;
        for (to, bytes) in outgoing {
            assert_ne!(to, self.me, "self-sends are local copies, not messages");
            let arrival = net.push(self.me, kind, bytes.len());
            net.trace(
                self.me,
                simnet::TraceEvent::Msg {
                    kind,
                    peer: to as u32,
                    bytes: bytes.len() as u32,
                    out: true,
                },
            );
            self.world.inboxes[to].borrow_mut().push(Deposit {
                from: self.me,
                arrival,
                bytes,
            });
        }
        // All deposits in.
        self.world.bar.wait();
        let mut incoming = self.world.inboxes[self.me].take();
        incoming.sort_by_key(|d| d.from);
        for d in &incoming {
            net.await_until(self.me, d.arrival);
            // Receive-side handler/unpack overhead.
            net.advance(self.me, net.cost().handler());
            net.trace(
                self.me,
                simnet::TraceEvent::Msg {
                    kind,
                    peer: d.from as u32,
                    bytes: d.bytes.len() as u32,
                    out: false,
                },
            );
        }
        // All inboxes drained before anyone deposits for the next round.
        self.world.bar.wait();
        incoming.into_iter().map(|d| (d.from, d.bytes)).collect()
    }

    /// Exchange of `f64` payloads (the executor's currency).
    pub fn exchange_f64(
        &mut self,
        kind: MsgKind,
        outgoing: Vec<(ProcId, Vec<f64>)>,
    ) -> Vec<(ProcId, Vec<f64>)> {
        let out = outgoing
            .into_iter()
            .map(|(to, v)| (to, encode_f64(&v)))
            .collect();
        self.exchange(kind, out)
            .into_iter()
            .map(|(from, b)| (from, decode_f64(&b)))
            .collect()
    }

    /// Exchange of `u32` payloads (index lists during inspection).
    pub fn exchange_u32(
        &mut self,
        kind: MsgKind,
        outgoing: Vec<(ProcId, Vec<u32>)>,
    ) -> Vec<(ProcId, Vec<u32>)> {
        let out = outgoing
            .into_iter()
            .map(|(to, v)| (to, encode_u32(&v)))
            .collect();
        self.exchange(kind, out)
            .into_iter()
            .map(|(from, b)| (from, decode_u32(&b)))
            .collect()
    }

    /// Global synchronization (timestep boundary): rendezvous, align the
    /// simulated clocks, count the 2(n−1) barrier messages.
    pub fn sync(&mut self) {
        let world = self.world;
        world.bar.wait_then(|| world.bill_sync());
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
        let world = self.world;
        world.bar.wait_then(|| {
            world.net.reset();
            world.bill_sync();
        });
    }
}

fn encode_f64(v: &[f64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(v.len() * 8);
    for x in v {
        out.extend_from_slice(&x.to_le_bytes());
    }
    out
}

fn decode_f64(b: &[u8]) -> Vec<f64> {
    b.chunks_exact(8)
        .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
        .collect()
}

fn encode_u32(v: &[u32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(v.len() * 4);
    for x in v {
        out.extend_from_slice(&x.to_le_bytes());
    }
    out
}

fn decode_u32(b: &[u8]) -> Vec<u32> {
    b.chunks_exact(4)
        .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
        .collect()
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
            let out: Vec<(usize, Vec<u8>)> = (0..3)
                .filter(|&q| q != me)
                .map(|q| (q, vec![me as u8]))
                .collect();
            let incoming = cp.exchange(MsgKind::Gather, out);
            let froms: Vec<usize> = incoming.iter().map(|&(f, _)| f).collect();
            let expect: Vec<usize> = (0..3).filter(|&q| q != me).collect();
            assert_eq!(froms, expect);
            for (f, b) in incoming {
                assert_eq!(b, vec![f as u8]);
            }
        });
        assert_eq!(w.report().messages, 6);
    }

    #[test]
    fn f64_and_u32_roundtrip() {
        let w = ChaosWorld::new(2, CostModel::default());
        w.run(|cp| {
            if cp.rank() == 0 {
                cp.exchange_f64(MsgKind::Gather, vec![(1, vec![1.5, -2.25])]);
                cp.exchange_u32(MsgKind::Schedule, vec![(1, vec![7, 8, 9])]);
            } else {
                let f = cp.exchange_f64(MsgKind::Gather, vec![]);
                assert_eq!(f, vec![(0, vec![1.5, -2.25])]);
                let u = cp.exchange_u32(MsgKind::Schedule, vec![]);
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
            let r = cp.exchange(MsgKind::Gather, vec![]);
            assert!(r.is_empty());
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
            assert_eq!(w.spmd_launches(), 1);
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
                            cp.exchange(MsgKind::Gather, vec![]);
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
            cp.exchange(MsgKind::Gather, vec![]);
            cp.start_timed_region();
        });
        assert_eq!(w.rendezvous_crossings(), 1 + 2 + 2);
        // The closing sync of the timed-region boundary is billed to the
        // freshly zeroed counters.
        assert_eq!(w.report().messages, 4);
    }
}
