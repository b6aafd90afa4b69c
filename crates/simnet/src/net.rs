//! The cluster: per-processor logical clocks plus traffic accounting.
//!
//! Clock discipline (ARCHITECTURE.md §Simulation honesty rules):
//!
//! * A processor advances its own clock with [`Net::advance`]
//!   (modeled compute) and the `charge_*` helpers (protocol actions).
//! * A fetch round ([`Net::parallel_round`]) charges the requester one
//!   round trip plus the per-byte cost of everything it moves, and each
//!   server an interrupt-handler cost (TreadMarks services requests in
//!   a SIGIO handler, stealing cycles from whatever the server was
//!   computing).
//! * One-way pushes (CHAOS gather/scatter) produce an *arrival time* the
//!   receiver folds in with [`Net::await_until`].
//! * A barrier synchronizes all clocks to the maximum plus cost: both
//!   runtimes call [`Net::bill_barrier`] in a leader section of the
//!   net's own [`Rendezvous`] ([`Net::rendezvous`]).
//!
//! All clock updates are commutative (`add` / `max`), so simulated times
//! are independent of the order in which the host runs the processors.
//! Every processor of a cluster is a coroutine on the one OS thread that
//! launched it (the [`Rendezvous`]), so the state is plain [`Cell`]s:
//! a `Net` may move to another thread between runs, but it
//! is not `Sync`, so no other thread can reach it during one.
//!
//! **Stall attribution** rides on the same discipline: every clock
//! mutation also bills the identical nanoseconds to one [`StallCat`]
//! bucket of the processor whose clock moved (the current scoped
//! category for a processor's own advances and waits, [`StallCat::BarrierWait`]
//! for the barrier jump, [`StallCat::Handler`] for remote interrupt
//! service), so per-processor bucket sums equal the clocks *exactly* —
//! see [`crate::trace`].

use std::cell::Cell;
use std::sync::Arc;

use crate::stats::{PolicyReport, PolicyStats};
use crate::trace::{self, StallCat, StallRow, TraceEvent, TraceSink};
use crate::{CostModel, MsgKind, NetReport, Rendezvous, SimTime, Stats};

/// A simulated processor's rank, `0..nprocs`.
pub type ProcId = usize;

/// The simulated cluster shared by every runtime in this workspace.
#[derive(Debug)]
pub struct Net {
    nprocs: usize,
    cost: CostModel,
    clocks: Vec<Cell<u64>>,
    stats: Stats,
    policy: PolicyStats,
    /// Cumulative barrier write-notice payload bytes, counted once per
    /// barrier by the leader (not per fan-in/fan-out copy) — the
    /// metadata-scaling probe `table_synth` asserts on. The per-copy
    /// traffic stays in [`Stats`] under `MsgKind::Barrier`.
    notice_meta: Cell<u64>,
    /// Per-processor stall-attribution buckets, flat
    /// `[proc][StallCat]`. Every clock mutation adds its exact delta to
    /// one bucket, so `Σ tallies[p] == clocks[p]` at all times.
    tallies: Vec<Cell<u64>>,
    /// Per-processor *virtual* clocks: the real clock minus remote
    /// [`StallCat::Handler`] charges. Deterministic for
    /// barrier-structured programs — the timestamp source for traces.
    vtimes: Vec<Cell<u64>>,
    /// Per-processor current stall category, scoped by the processor
    /// itself via [`Net::scope`].
    cats: Vec<Cell<StallCat>>,
    /// Event sink, adopted at construction from
    /// [`crate::with_trace_sink`].
    sink: Option<Arc<dyn TraceSink>>,
    /// `sink.is_some()`, cached so the disabled [`Net::trace`] path is
    /// a single predictable branch.
    trace_on: bool,
    /// Collective re-inspection passes (CHAOS re-paying its inspector
    /// after a partition rebalance invalidated the amortized schedule).
    /// Counted once per collective by the rank-0 caller.
    reinspections: Cell<u64>,
    /// The host scheduler and meeting point of the processors. Its
    /// crossing and launch counts are host work, so [`Net::reset`]
    /// leaves it alone.
    rendezvous: Rendezvous,
}

impl Net {
    pub fn new(nprocs: usize, cost: CostModel) -> Self {
        assert!(nprocs >= 1, "need at least one processor");
        let sink = trace::pending_sink();
        Net {
            nprocs,
            cost,
            clocks: vec![Cell::new(0); nprocs],
            stats: Stats::new(nprocs),
            policy: PolicyStats::new(nprocs),
            notice_meta: Cell::new(0),
            tallies: vec![Cell::new(0); nprocs * StallCat::COUNT],
            vtimes: vec![Cell::new(0); nprocs],
            cats: vec![Cell::new(StallCat::Compute); nprocs],
            trace_on: sink.is_some(),
            sink,
            reinspections: Cell::new(0),
            rendezvous: Rendezvous::new(nprocs),
        }
    }

    /// The rendezvous that launches, schedules and synchronizes this
    /// cluster's processors.
    #[inline]
    pub fn rendezvous(&self) -> &Rendezvous {
        &self.rendezvous
    }

    /// Count one collective re-inspection pass (called by rank 0 of
    /// the collective, once per stale-schedule event).
    #[inline]
    pub fn add_reinspection(&self) {
        add(&self.reinspections, 1);
    }

    /// Collective re-inspection passes since the last reset.
    pub fn reinspections(&self) -> u64 {
        self.reinspections.get()
    }

    /// Add `bytes` of barrier notice metadata (leader-side, once per
    /// barrier).
    #[inline]
    pub fn add_notice_meta(&self, bytes: u64) {
        add(&self.notice_meta, bytes);
    }

    /// Cumulative barrier notice metadata bytes since the last reset.
    pub fn notice_meta_bytes(&self) -> u64 {
        self.notice_meta.get()
    }

    #[inline]
    pub fn nprocs(&self) -> usize {
        self.nprocs
    }

    #[inline]
    pub fn cost(&self) -> &CostModel {
        &self.cost
    }

    #[inline]
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// Policy-decision counters (adaptive protocol engines).
    #[inline]
    pub fn policy(&self) -> &PolicyStats {
        &self.policy
    }

    // ---- clocks ----

    #[inline]
    pub fn clock(&self, p: ProcId) -> SimTime {
        SimTime(self.clocks[p].get())
    }

    /// Bill `dt` nanoseconds to one of `p`'s stall buckets.
    #[inline]
    fn bill(&self, p: ProcId, cat: StallCat, dt: u64) {
        add(&self.tallies[p * StallCat::COUNT + cat as usize], dt);
    }

    /// Bill `dt` to `p`'s *current* scoped category.
    #[inline]
    fn bill_current(&self, p: ProcId, dt: u64) {
        self.bill(p, self.cats[p].get(), dt);
    }

    /// Advance `p`'s clock by modeled compute time (`p` itself only —
    /// billed to the current scoped category and to the deterministic
    /// virtual clock).
    #[inline]
    pub fn advance(&self, p: ProcId, dt: SimTime) {
        add(&self.clocks[p], dt.0);
        add(&self.vtimes[p], dt.0);
        self.bill_current(p, dt.0);
    }

    /// Charge `p` remote interrupt-handler service *on another
    /// processor's behalf* (the SIGIO cost of serving a request).
    /// Billed to [`StallCat::Handler`] and excluded from the virtual
    /// clock, which is what keeps trace timestamps deterministic.
    #[inline]
    pub fn advance_remote(&self, p: ProcId, dt: SimTime) {
        add(&self.clocks[p], dt.0);
        self.bill(p, StallCat::Handler, dt.0);
    }

    /// `p` blocks (logically) until at least `t` — e.g. a message arrival.
    /// The wait (if any) is billed to `p`'s current scoped category.
    #[inline]
    pub fn await_until(&self, p: ProcId, t: SimTime) {
        let prev = self.clocks[p].get();
        if t.0 > prev {
            self.clocks[p].set(t.0);
            self.bill_current(p, t.0 - prev);
            // The virtual clock advances by exactly the same delta the
            // real clock did (not a max: handler charges may already
            // have pushed the clock past `t` while vtime excludes them).
            add(&self.vtimes[p], t.0 - prev);
        }
    }

    /// Maximum clock over all processors (the parallel execution time).
    pub fn clock_max(&self) -> SimTime {
        SimTime(self.clocks.iter().map(Cell::get).max().unwrap_or(0))
    }

    /// Set every clock to `t` (barrier departure). Monotone — a clock
    /// already past `t` is left alone, never moved backwards. Each
    /// processor's jump is billed to [`StallCat::BarrierWait`], and the
    /// virtual clocks re-synchronize here — the barrier departure time
    /// is deterministic, because every charge of the closing interval
    /// lands before the rendezvous that computes it.
    fn set_all_clocks(&self, t: SimTime) {
        for (p, c) in self.clocks.iter().enumerate() {
            let prev = c.get();
            if t.0 > prev {
                c.set(t.0);
                self.bill(p, StallCat::BarrierWait, t.0 - prev);
            }
            let v = &self.vtimes[p];
            v.set(v.get().max(t.0));
        }
    }

    /// Bill one barrier, managed by processor 0 (TreadMarks's
    /// centralized barrier): each other processor `p` sends an arrival
    /// of `header + delta(p)` bytes and receives a departure of
    /// `header + total − delta(p)`, where `total` sums `delta` over
    /// every processor. Every clock then jumps to the latest arrival
    /// plus one gather/scatter round, the manager's work and the
    /// per-byte cost of `total`. One processor exchanges nothing.
    /// Called in a leader section, with every processor suspended.
    pub fn bill_barrier(&self, kind: MsgKind, header: usize, delta: impl Fn(ProcId) -> usize) {
        if self.nprocs == 1 {
            return;
        }
        let total: usize = (0..self.nprocs).map(&delta).sum();
        for p in 1..self.nprocs {
            self.stats.record(p, kind, header + delta(p));
            self.stats.record(0, kind, header + total - delta(p));
        }
        let cost = &self.cost;
        self.set_all_clocks(
            self.clock_max()
                + SimTime::from_us(2.0 * cost.msg_latency_us + cost.barrier_us)
                + SimTime::from_us(cost.per_byte_us * total as f64),
        );
    }

    /// Zero the clocks, counters and stall buckets. The rendezvous's
    /// host counts survive.
    pub fn reset(&self) {
        for c in self.clocks.iter().chain(&self.tallies).chain(&self.vtimes) {
            c.set(0);
        }
        for c in &self.cats {
            c.set(StallCat::Compute);
        }
        self.stats.reset();
        self.policy.reset();
        self.notice_meta.set(0);
        self.reinspections.set(0);
    }

    // ---- stall attribution and tracing ----

    /// Enter stall category `cat` on processor `p` until the returned
    /// guard drops (categories nest; the guard restores the previous
    /// one). Call only as `p`.
    #[inline]
    pub fn scope(&self, p: ProcId, cat: StallCat) -> CatScope<'_> {
        let prev = self.cats[p].replace(cat);
        CatScope { net: self, p, prev }
    }

    /// Processor `p`'s deterministic virtual time (clock minus remote
    /// handler charges) — the trace timestamp source.
    #[inline]
    pub fn vtime(&self, p: ProcId) -> SimTime {
        SimTime(self.vtimes[p].get())
    }

    /// Snapshot every processor's stall-attribution row. Exact (each
    /// row sums to its clock) whenever the cluster is quiescent.
    pub fn stall_rows(&self) -> Vec<StallRow> {
        (0..self.nprocs)
            .map(|p| {
                let tallies = &self.tallies[p * StallCat::COUNT..][..StallCat::COUNT];
                StallRow {
                    cats: std::array::from_fn(|i| tallies[i].get()),
                    clock: self.clocks[p].get(),
                }
            })
            .collect()
    }

    /// Is an event sink installed?
    #[inline]
    pub fn tracing(&self) -> bool {
        self.trace_on
    }

    /// Record `ev` on processor `p`'s lane, stamped with its virtual
    /// time. A single predictable branch when no sink is installed.
    #[inline]
    pub fn trace(&self, p: ProcId, ev: TraceEvent) {
        if self.trace_on {
            self.trace_slow(p, ev);
        }
    }

    #[cold]
    fn trace_slow(&self, p: ProcId, ev: TraceEvent) {
        if let Some(sink) = &self.sink {
            sink.record(p, self.vtime(p), ev);
        }
    }

    // ---- traffic ----

    /// A one-way push from `from`; returns the arrival time at the
    /// destination. The receiver should fold this in via [`Net::await_until`]
    /// at its matching receive point. Charges the sender the injection
    /// overhead (half the latency) plus per-byte cost. No [`TraceEvent::Msg`]
    /// is emitted here — the destination is unknown at this layer; the
    /// runtimes that route pushes emit it at their send sites.
    pub fn push(&self, from: ProcId, kind: MsgKind, bytes: usize) -> SimTime {
        self.stats.record(from, kind, bytes);
        let inject =
            SimTime::from_us(0.5 * self.cost.msg_latency_us + self.cost.per_byte_us * bytes as f64);
        self.advance(from, inject);
        self.clock(from) + SimTime::from_us(0.5 * self.cost.msg_latency_us)
    }

    /// One *parallel* fetch round: the requester sends requests to several
    /// servers at once and waits for all replies (TreadMarks issues its
    /// diff requests concurrently, and `Validate` aggregates one exchange
    /// per peer). The requester pays the latency/handler once, plus the
    /// per-byte cost of everything it sends and receives; each server pays
    /// one interrupt handler.
    ///
    /// `legs`: `(server, req_kind, req_bytes, resp_kind, resp_bytes)`.
    pub fn parallel_round(
        &self,
        requester: ProcId,
        legs: &[(ProcId, MsgKind, usize, MsgKind, usize)],
    ) {
        if legs.is_empty() {
            return;
        }
        let mut bytes = 0usize;
        for &(server, kreq, breq, kresp, bresp) in legs {
            debug_assert_ne!(requester, server);
            self.stats.record(requester, kreq, breq);
            self.stats.record(server, kresp, bresp);
            self.advance_remote(server, self.cost.handler());
            bytes += breq + bresp;
        }
        self.advance(
            requester,
            SimTime::from_us(
                2.0 * self.cost.msg_latency_us
                    + self.cost.handler_us
                    + self.cost.per_byte_us * bytes as f64,
            ),
        );
        if self.trace_on {
            for &(server, kreq, breq, kresp, bresp) in legs {
                self.trace_slow(
                    requester,
                    TraceEvent::Msg {
                        kind: kreq,
                        peer: server as u32,
                        bytes: breq as u32,
                        out: true,
                    },
                );
                self.trace_slow(
                    requester,
                    TraceEvent::Msg {
                        kind: kresp,
                        peer: server as u32,
                        bytes: bresp as u32,
                        out: false,
                    },
                );
            }
        }
    }

    /// One *parallel* round of writer-initiated one-way pushes arriving
    /// at `to` — the update-push half of a predicted exchange. Each
    /// sending peer pays one interrupt handler (it assembled and
    /// injected the push); the receiver pays a single one-way latency
    /// plus handler plus the per-byte cost of everything it absorbs.
    /// Exactly half the messages of [`Net::parallel_round`]: the request
    /// leg does not exist.
    ///
    /// `legs`: `(sender, kind, bytes)`.
    pub fn push_round(&self, to: ProcId, legs: &[(ProcId, MsgKind, usize)]) {
        if legs.is_empty() {
            return;
        }
        let mut bytes = 0usize;
        for &(from, kind, b) in legs {
            debug_assert_ne!(from, to, "local data is not a message");
            self.stats.record(from, kind, b);
            self.advance_remote(from, self.cost.handler());
            bytes += b;
        }
        self.advance(
            to,
            SimTime::from_us(
                self.cost.msg_latency_us
                    + self.cost.handler_us
                    + self.cost.per_byte_us * bytes as f64,
            ),
        );
        if self.trace_on {
            for &(from, kind, b) in legs {
                self.trace_slow(
                    to,
                    TraceEvent::Msg {
                        kind,
                        peer: from as u32,
                        bytes: b as u32,
                        out: false,
                    },
                );
            }
        }
    }

    /// Message/byte totals plus the per-processor stall-attribution
    /// rows (unlike [`NetReport::capture`], which has no clock access
    /// and leaves them empty).
    pub fn report(&self) -> NetReport {
        let mut rep = NetReport::capture(&self.stats);
        rep.stalls = self.stall_rows();
        rep
    }

    pub fn policy_report(&self) -> PolicyReport {
        PolicyReport::capture(&self.policy)
    }
}

/// RAII guard of one processor's scoped stall category — restores the
/// previous category on drop (see [`Net::scope`]).
#[must_use = "dropping the scope immediately restores the previous category"]
#[derive(Debug)]
pub struct CatScope<'a> {
    net: &'a Net,
    p: ProcId,
    prev: StallCat,
}

impl Drop for CatScope<'_> {
    fn drop(&mut self) {
        self.net.cats[self.p].set(self.prev);
    }
}

/// Add `d` to a counter: the one update clocks and tallies take besides
/// a monotone `max` (commutative, so the host schedule cannot show).
#[inline]
fn add(c: &Cell<u64>, d: u64) {
    c.set(c.get() + d);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net(n: usize) -> Net {
        Net::new(n, CostModel::default())
    }

    #[test]
    fn advance_and_max() {
        let n = net(3);
        n.advance(0, SimTime(100));
        n.advance(1, SimTime(250));
        assert_eq!(n.clock(0), SimTime(100));
        assert_eq!(n.clock_max(), SimTime(250));
        n.set_all_clocks(SimTime(300));
        assert_eq!(n.clock(0), SimTime(300));
        assert_eq!(n.clock(2), SimTime(300));
    }

    #[test]
    fn set_all_clocks_is_monotone() {
        let n = net(2);
        n.advance(0, SimTime(500));
        n.set_all_clocks(SimTime(100));
        // Cannot move proc 0 backwards.
        assert_eq!(n.clock(0), SimTime(500));
        assert_eq!(n.clock(1), SimTime(100));
    }

    #[test]
    fn push_and_await() {
        let n = net(2);
        let arrival = n.push(0, MsgKind::Gather, 1000);
        assert!(arrival > n.clock(0));
        n.await_until(1, arrival);
        assert_eq!(n.clock(1), arrival);
        assert_eq!(n.stats().messages_of(MsgKind::Gather), 1);
    }

    #[test]
    fn await_until_never_rewinds() {
        let n = net(1);
        n.advance(0, SimTime(1000));
        n.await_until(0, SimTime(10));
        assert_eq!(n.clock(0), SimTime(1000));
    }

    #[test]
    fn reset_zeroes_everything() {
        let n = net(2);
        n.advance(0, SimTime(5));
        n.stats().record(1, MsgKind::Other, 40);
        n.reset();
        assert_eq!(n.clock_max(), SimTime::ZERO);
        assert_eq!(n.stats().total_messages(), 0);
        for row in n.reset_probe_rows() {
            assert_eq!(row.total(), 0);
            assert_eq!(row.clock, 0);
        }
    }

    /// A fixed traffic pattern through every traffic helper and a
    /// barrier jump.
    fn drive(n: &Net) {
        let np = n.nprocs();
        for _ in 0..4 {
            for p in 0..np {
                let q = (p + 1) % np;
                n.parallel_round(
                    p,
                    &[(q, MsgKind::DiffRequest, 16, MsgKind::DiffReply, 4096)],
                );
            }
            n.push_round(1, &[(0, MsgKind::AdaptPush, 256)]);
            let arrival = n.push(0, MsgKind::Gather, 128);
            n.await_until(1, arrival);
            n.set_all_clocks(n.clock_max());
        }
    }

    #[test]
    fn replay_after_reset_is_identical() {
        let n = net(2);
        let fingerprint = |n: &Net| (n.report(), n.vtime(0), n.vtime(1));
        drive(&n);
        let first = fingerprint(&n);
        n.reset();
        drive(&n);
        assert_eq!(fingerprint(&n), first, "replay after reset is identical");
    }

    #[test]
    fn reinspection_counter_counts_and_resets() {
        let n = net(2);
        n.add_reinspection();
        n.add_reinspection();
        assert_eq!(n.reinspections(), 2);
        n.reset();
        assert_eq!(n.reinspections(), 0);
    }

    impl Net {
        fn reset_probe_rows(&self) -> Vec<StallRow> {
            self.stall_rows()
        }

        /// Test helper: assert every processor's stall buckets sum to
        /// its clock exactly.
        pub(super) fn assert_conserved(&self) {
            for (p, row) in self.stall_rows().iter().enumerate() {
                assert_eq!(
                    row.total(),
                    row.clock,
                    "proc {p}: stall buckets sum to {} but clock is {}",
                    row.total(),
                    row.clock
                );
            }
        }
    }

    #[test]
    fn every_clock_mutation_is_attributed() {
        let n = net(3);
        n.advance(0, SimTime(100)); // Compute (default scope)
        {
            let _g = n.scope(0, StallCat::FaultStall);
            n.advance(0, SimTime(40));
            n.await_until(0, SimTime(200)); // 60 ns wait inside the scope
        }
        n.advance(0, SimTime(10)); // back to Compute
        n.advance_remote(1, SimTime(7)); // Handler, cross-thread
        n.set_all_clocks(SimTime(300)); // BarrierWait fills the gaps
        n.assert_conserved();
        let rows = n.stall_rows();
        assert_eq!(rows[0].get(StallCat::Compute), 110);
        assert_eq!(rows[0].get(StallCat::FaultStall), 100);
        assert_eq!(rows[0].get(StallCat::BarrierWait), 300 - 210);
        assert_eq!(rows[1].get(StallCat::Handler), 7);
        assert_eq!(rows[1].get(StallCat::BarrierWait), 293);
        assert_eq!(rows[2].get(StallCat::BarrierWait), 300);
    }

    #[test]
    fn scopes_nest_and_restore() {
        let n = net(1);
        let outer = n.scope(0, StallCat::BarrierWait);
        {
            let _inner = n.scope(0, StallCat::PrefetchPush);
            n.advance(0, SimTime(5));
        }
        n.advance(0, SimTime(3));
        drop(outer);
        n.advance(0, SimTime(2));
        let row = &n.stall_rows()[0];
        assert_eq!(row.get(StallCat::PrefetchPush), 5);
        assert_eq!(row.get(StallCat::BarrierWait), 3);
        assert_eq!(row.get(StallCat::Compute), 2);
        n.assert_conserved();
    }

    #[test]
    fn traffic_helpers_conserve_and_split_handler_from_vtime() {
        let n = net(4);
        n.parallel_round(
            0,
            &[(1, MsgKind::DiffRequest, 16, MsgKind::DiffReply, 4096)],
        );
        n.parallel_round(
            2,
            &[
                (1, MsgKind::AggRequest, 8, MsgKind::AggReply, 64),
                (3, MsgKind::AggRequest, 8, MsgKind::AggReply, 64),
            ],
        );
        n.push_round(3, &[(0, MsgKind::AdaptPush, 128)]);
        let arrival = n.push(0, MsgKind::Gather, 256);
        n.await_until(1, arrival);
        n.assert_conserved();
        // The served side's handler charges are excluded from vtime...
        assert_eq!(
            n.vtime(1).as_ns() + n.stall_rows()[1].get(StallCat::Handler),
            n.clock(1).as_ns()
        );
        // ...and a barrier re-synchronizes vtime with the clock.
        n.set_all_clocks(n.clock_max());
        for p in 0..4 {
            assert_eq!(n.vtime(p), n.clock(p), "proc {p} resynced");
        }
        n.assert_conserved();
    }

    #[test]
    fn trace_events_reach_an_installed_sink_with_vtime_stamps() {
        use crate::trace::{with_trace_sink, TraceSink};
        use std::sync::Mutex as StdMutex;

        #[derive(Debug, Default)]
        struct Rec(StdMutex<Vec<(ProcId, u64, TraceEvent)>>);
        impl TraceSink for Rec {
            fn record(&self, p: ProcId, t: SimTime, ev: TraceEvent) {
                self.0.lock().unwrap().push((p, t.as_ns(), ev));
            }
        }

        let sink = Arc::new(Rec::default());
        let n = with_trace_sink(sink.clone(), || net(2));
        assert!(n.tracing());
        n.advance(0, SimTime(50));
        n.trace(
            0,
            TraceEvent::FaultBegin {
                page: 3,
                write: true,
            },
        );
        n.parallel_round(0, &[(1, MsgKind::DiffRequest, 16, MsgKind::DiffReply, 512)]);
        let got = sink.0.lock().unwrap();
        assert_eq!(got[0].0, 0);
        assert_eq!(got[0].1, 50, "stamped with the virtual clock");
        assert_eq!(
            got[0].2,
            TraceEvent::FaultBegin {
                page: 3,
                write: true
            }
        );
        // The round emitted both legs on the requester lane.
        assert_eq!(got.len(), 3);
        assert!(matches!(
            got[1].2,
            TraceEvent::Msg {
                out: true,
                peer: 1,
                ..
            }
        ));
        assert!(matches!(
            got[2].2,
            TraceEvent::Msg {
                out: false,
                peer: 1,
                ..
            }
        ));
    }

    #[test]
    fn untraced_net_ignores_trace_calls() {
        let n = net(1);
        assert!(!n.tracing());
        n.trace(0, TraceEvent::FaultEnd { page: 1 }); // must be a no-op
        assert_eq!(n.clock(0), SimTime::ZERO);
    }

    /// The barrier billing both runtimes once wrote by hand, restated
    /// naively: manager 0 skips itself, every other processor sends an
    /// arrival and receives a departure, and the clocks jump together.
    fn hand_billed_barrier(n: &Net, kind: MsgKind, header: usize, deltas: &[usize]) {
        let total: usize = deltas.iter().sum();
        for (p, &delta) in deltas.iter().enumerate() {
            if p == 0 {
                continue;
            }
            n.stats().record(p, kind, header + delta);
            n.stats().record(0, kind, header + (total - delta));
        }
        if n.nprocs() > 1 {
            let cost = n.cost();
            let t = n.clock_max()
                + SimTime::from_us(2.0 * cost.msg_latency_us + cost.barrier_us)
                + SimTime::from_us(cost.per_byte_us * total as f64);
            n.set_all_clocks(t);
        }
    }

    #[test]
    fn bill_barrier_matches_the_hand_billed_barrier() {
        for nprocs in [1usize, 2, 64] {
            // Uneven notice bytes, the manager's own nonzero, and the
            // CHAOS shape: no notices at all.
            let uneven: Vec<usize> = (0..nprocs).map(|p| 40 + 24 * (p % 5) + p * p).collect();
            for (kind, header, deltas) in [
                (MsgKind::Barrier, 16, uneven),
                (MsgKind::Other, 8, vec![0; nprocs]),
            ] {
                let (got, want) = (net(nprocs), net(nprocs));
                for n in [&got, &want] {
                    for p in 0..nprocs {
                        n.advance(p, SimTime(1_000 * (p as u64 % 7) + 13));
                    }
                }
                got.bill_barrier(kind, header, |p| deltas[p]);
                hand_billed_barrier(&want, kind, header, &deltas);
                assert_eq!(got.stats(), want.stats(), "{nprocs} procs, {kind:?}");
                assert_eq!(
                    got.stall_rows(),
                    want.stall_rows(),
                    "{nprocs} procs, {kind:?}"
                );
                for p in 0..nprocs {
                    assert_eq!(got.vtime(p), want.vtime(p), "{nprocs} procs, proc {p}");
                }
                got.assert_conserved();
                let msgs = got.stats().messages_of(kind);
                assert_eq!(msgs, 2 * (nprocs as u64 - 1), "{nprocs} procs, {kind:?}");
                if nprocs == 1 {
                    assert_eq!(got.clock(0), SimTime(13), "one processor bills nothing");
                }
            }
        }
    }
}

#[cfg(test)]
mod parallel_round_tests {
    use super::*;

    #[test]
    fn parallel_round_charges_latency_once() {
        let n = Net::new(4, CostModel::default());
        // Three legs with zero payload: requester pays ONE round trip's
        // latency+handler, not three.
        n.parallel_round(
            0,
            &[
                (1, MsgKind::AggRequest, 0, MsgKind::AggReply, 0),
                (2, MsgKind::AggRequest, 0, MsgKind::AggReply, 0),
                (3, MsgKind::AggRequest, 0, MsgKind::AggReply, 0),
            ],
        );
        let c = n.cost();
        assert_eq!(
            n.clock(0),
            SimTime::from_us(2.0 * c.msg_latency_us + c.handler_us)
        );
        // Each server paid one handler.
        for q in 1..4 {
            assert_eq!(n.clock(q), n.cost().handler());
        }
        assert_eq!(n.stats().total_messages(), 6);
    }

    #[test]
    fn parallel_round_bytes_serialize_at_requester() {
        let n = Net::new(3, CostModel::default());
        n.parallel_round(
            0,
            &[
                (1, MsgKind::AggRequest, 100, MsgKind::AggReply, 4096),
                (2, MsgKind::AggRequest, 100, MsgKind::AggReply, 4096),
            ],
        );
        let bytes = 2 * (100 + 4096);
        let want = SimTime::from_us(
            2.0 * n.cost().msg_latency_us
                + n.cost().handler_us
                + n.cost().per_byte_us * bytes as f64,
        );
        assert_eq!(n.clock(0), want);
        assert_eq!(n.stats().total_bytes(), bytes as u64);
    }

    #[test]
    fn empty_round_is_free() {
        let n = Net::new(2, CostModel::default());
        n.parallel_round(0, &[]);
        assert_eq!(n.clock_max(), SimTime::ZERO);
        assert_eq!(n.stats().total_messages(), 0);
    }

    #[test]
    fn push_round_counts_half_the_messages_of_a_parallel_round() {
        let pull = Net::new(3, CostModel::default());
        pull.parallel_round(
            0,
            &[
                (1, MsgKind::AdaptRequest, 24, MsgKind::AdaptReply, 4096),
                (2, MsgKind::AdaptRequest, 24, MsgKind::AdaptReply, 4096),
            ],
        );
        let push = Net::new(3, CostModel::default());
        push.push_round(
            0,
            &[(1, MsgKind::AdaptPush, 4096), (2, MsgKind::AdaptPush, 4096)],
        );
        assert_eq!(pull.stats().total_messages(), 4);
        assert_eq!(push.stats().total_messages(), 2);
        // The data leg is identical; only the request bytes disappear.
        assert_eq!(push.stats().bytes_of(MsgKind::AdaptPush), 2 * 4096);
        // Messages are attributed to the *writers* (they initiate).
        assert_eq!(push.stats().messages_of(MsgKind::AdaptPush), 2);
        // One-way: the receiver's latency is below the pull round trip.
        assert!(push.clock(0) < pull.clock(0));
        // Empty rounds stay free.
        push.push_round(0, &[]);
        assert_eq!(push.stats().total_messages(), 2);
    }
}
