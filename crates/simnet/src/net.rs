//! The cluster: per-processor logical clocks plus traffic accounting.
//!
//! Clock discipline (ARCHITECTURE.md §Simulation honesty rules):
//!
//! * A processor's own thread advances its clock with [`Net::advance`]
//!   (modeled compute) and the `charge_*` helpers (protocol actions).
//! * A *request/response* exchange charges the full round trip to the
//!   requester and an interrupt-handler cost to the server (TreadMarks
//!   services requests in a SIGIO handler, stealing cycles from whatever
//!   the server was computing).
//! * One-way pushes (CHAOS gather/scatter) produce an *arrival time* the
//!   receiver folds in with [`Net::await_until`].
//! * Barriers synchronize all clocks to the maximum (plus cost) — done by
//!   the caller (the DSM / CHAOS runtimes) using [`Net::clock_max`] and
//!   [`Net::set_all_clocks`] in a rendezvous leader section.
//!
//! All clock updates are commutative atomics (`fetch_add` / `fetch_max`),
//! so simulated times are independent of the order in which the host
//! runs the processors.
//!
//! **Stall attribution** rides on the same discipline: every clock
//! mutation also bills the identical nanoseconds to one [`StallCat`]
//! bucket of the processor whose clock moved (the current scoped
//! category for own-thread advances and waits, [`StallCat::BarrierWait`]
//! for the barrier jump, [`StallCat::Handler`] for remote interrupt
//! service), so per-processor bucket sums equal the clocks *exactly* —
//! see [`crate::trace`].

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex};

use crate::stats::{PolicyReport, PolicyStats};
use crate::trace::{self, StallCat, StallRow, TraceEvent, TraceSink};
use crate::{CostModel, MsgKind, NetReport, SimTime, Stats};

/// A simulated processor's rank, `0..nprocs`.
pub type ProcId = usize;

/// The simulated cluster shared by every runtime in this workspace.
#[derive(Debug)]
pub struct Net {
    nprocs: usize,
    cost: CostModel,
    clocks: Vec<AtomicU64>,
    stats: Stats,
    policy: PolicyStats,
    /// Cumulative barrier write-notice payload bytes, counted once per
    /// barrier by the leader (not per fan-in/fan-out copy) — the
    /// metadata-scaling probe `table_synth` asserts on. The per-copy
    /// traffic stays in [`Stats`] under `MsgKind::Barrier`.
    notice_meta: AtomicU64,
    /// Scenario label stamped into every captured [`NetReport`] — set by
    /// scenario-matrix harnesses (`table_synth`) so a report identifies
    /// the workload it measured.
    label: Mutex<Option<String>>,
    /// Per-processor stall-attribution buckets, flat
    /// `[proc][StallCat]`. Every clock mutation adds its exact delta to
    /// one bucket, so `Σ tallies[p] == clocks[p]` at all times.
    tallies: Vec<AtomicU64>,
    /// Per-processor *virtual* clocks: the real clock minus remote
    /// [`StallCat::Handler`] charges. Deterministic for
    /// barrier-structured programs — the timestamp source for traces.
    vtimes: Vec<AtomicU64>,
    /// Per-processor current stall category (`StallCat as u8`), scoped
    /// by the owning thread via [`Net::scope`].
    cats: Vec<AtomicU8>,
    /// Event sink, adopted at construction from
    /// [`crate::with_trace_sink`] (or set via [`Net::set_trace_sink`]).
    sink: Option<Arc<dyn TraceSink>>,
    /// `sink.is_some()`, cached so the disabled [`Net::trace`] path is
    /// a single predictable branch.
    trace_on: bool,
    /// Per-processor draw counters of the lossy-link model
    /// ([`CostModel::loss_per_mille`]): a drop decision is a pure
    /// function of (seed, calling proc, that proc's draw index), never
    /// of arrival order, so lossy runs are deterministic across thread
    /// schedules just like loss-free ones.
    loss_ctr: Vec<AtomicU64>,
    /// Collective re-inspection passes (CHAOS re-paying its inspector
    /// after a partition rebalance invalidated the amortized schedule).
    /// Counted once per collective by the rank-0 caller.
    reinspections: AtomicU64,
}

/// SplitMix64-style mixer for the drop stream (self-contained so the
/// loss model shares no state with the workload RNGs).
#[inline]
fn loss_mix(seed: u64, k: u64) -> u64 {
    let mut z = seed.wrapping_add(k.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Net {
    pub fn new(nprocs: usize, cost: CostModel) -> Self {
        assert!(nprocs >= 1, "need at least one processor");
        let sink = trace::pending_sink();
        assert!(
            cost.loss_per_mille <= 1000,
            "loss probability is per-mille (0..=1000)"
        );
        Net {
            nprocs,
            cost,
            clocks: (0..nprocs).map(|_| AtomicU64::new(0)).collect(),
            stats: Stats::new(nprocs),
            policy: PolicyStats::new(nprocs),
            notice_meta: AtomicU64::new(0),
            label: Mutex::new(None),
            tallies: (0..nprocs * StallCat::COUNT)
                .map(|_| AtomicU64::new(0))
                .collect(),
            vtimes: (0..nprocs).map(|_| AtomicU64::new(0)).collect(),
            cats: (0..nprocs).map(|_| AtomicU8::new(0)).collect(),
            trace_on: sink.is_some(),
            sink,
            loss_ctr: (0..nprocs).map(|_| AtomicU64::new(0)).collect(),
            reinspections: AtomicU64::new(0),
        }
    }

    #[inline]
    fn loss_on(&self) -> bool {
        self.cost.loss_per_mille != 0
    }

    /// Deterministic drop decision for the next message attempt made
    /// from processor `caller`'s thread. Only called when the model is
    /// on, so loss-free runs never touch the draw counters.
    #[inline]
    fn loss_dropped(&self, caller: ProcId) -> bool {
        let k = self.loss_ctr[caller].fetch_add(1, Ordering::Relaxed);
        let stream = self.cost.loss_seed ^ ((caller as u64 + 1) << 32);
        loss_mix(stream, k) % 1000 < u64::from(self.cost.loss_per_mille)
    }

    /// Bill one dropped message of `bytes` payload: the original
    /// sender `from` re-sends it (duplicate message + bytes in
    /// [`Stats`]), and `caller` — the side whose thread is executing
    /// the exchange — waits out the timeout + retransmission, billed
    /// to [`StallCat::Retry`] on both the real and virtual clock.
    fn bill_retry(&self, caller: ProcId, from: ProcId, kind: MsgKind, bytes: usize) {
        self.stats.record(from, kind, bytes);
        let dt = SimTime::from_us(
            2.0 * self.cost.msg_latency_us + self.cost.per_byte_us * bytes as f64,
        );
        self.clocks[caller].fetch_add(dt.0, Ordering::Relaxed);
        self.vtimes[caller].fetch_add(dt.0, Ordering::Relaxed);
        self.bill(caller, StallCat::Retry, dt.0);
    }

    /// Count one collective re-inspection pass (called by rank 0 of
    /// the collective, once per stale-schedule event).
    #[inline]
    pub fn add_reinspection(&self) {
        self.reinspections.fetch_add(1, Ordering::Relaxed);
    }

    /// Collective re-inspection passes since the last reset.
    pub fn reinspections(&self) -> u64 {
        self.reinspections.load(Ordering::Relaxed)
    }

    /// Install (or clear) the event sink. Construction-time adoption
    /// via [`crate::with_trace_sink`] is the usual route; this exists
    /// for owners that build the `Net` before choosing a sink.
    pub fn set_trace_sink(&mut self, sink: Option<Arc<dyn TraceSink>>) {
        self.trace_on = sink.is_some();
        self.sink = sink;
    }

    /// Add `bytes` of barrier notice metadata (leader-side, once per
    /// barrier).
    #[inline]
    pub fn add_notice_meta(&self, bytes: u64) {
        self.notice_meta.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Cumulative barrier notice metadata bytes since the last reset.
    pub fn notice_meta_bytes(&self) -> u64 {
        self.notice_meta.load(Ordering::Relaxed)
    }

    /// Tag this cluster with a scenario label; subsequent
    /// [`Net::report`] captures carry it. Survives [`Net::reset`] (the
    /// scenario does not change when counters are zeroed).
    pub fn set_label(&self, label: &str) {
        *self.label.lock().unwrap() = Some(label.to_string());
    }

    /// The current scenario label, if any.
    pub fn label(&self) -> Option<String> {
        self.label.lock().unwrap().clone()
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
        SimTime(self.clocks[p].load(Ordering::Relaxed))
    }

    /// Bill `dt` nanoseconds to one of `p`'s stall buckets.
    #[inline]
    fn bill(&self, p: ProcId, cat: StallCat, dt: u64) {
        self.tallies[p * StallCat::COUNT + cat as usize].fetch_add(dt, Ordering::Relaxed);
    }

    /// Bill `dt` to `p`'s *current* scoped category.
    #[inline]
    fn bill_current(&self, p: ProcId, dt: u64) {
        let cat = StallCat::from_u8(self.cats[p].load(Ordering::Relaxed));
        self.bill(p, cat, dt);
    }

    /// Advance `p`'s clock by modeled compute time (own thread only —
    /// billed to the current scoped category and to the deterministic
    /// virtual clock).
    #[inline]
    pub fn advance(&self, p: ProcId, dt: SimTime) {
        self.clocks[p].fetch_add(dt.0, Ordering::Relaxed);
        self.vtimes[p].fetch_add(dt.0, Ordering::Relaxed);
        self.bill_current(p, dt.0);
    }

    /// Charge `p` remote interrupt-handler service *from another
    /// processor's thread* (the SIGIO cost of serving a request).
    /// Billed to [`StallCat::Handler`] and excluded from the virtual
    /// clock, which is what keeps trace timestamps deterministic.
    #[inline]
    pub fn advance_remote(&self, p: ProcId, dt: SimTime) {
        self.clocks[p].fetch_add(dt.0, Ordering::Relaxed);
        self.bill(p, StallCat::Handler, dt.0);
    }

    /// `p` blocks (logically) until at least `t` — e.g. a message arrival.
    /// The wait (if any) is billed to `p`'s current scoped category.
    #[inline]
    pub fn await_until(&self, p: ProcId, t: SimTime) {
        let prev = self.clocks[p].fetch_max(t.0, Ordering::Relaxed);
        if t.0 > prev {
            self.bill_current(p, t.0 - prev);
            // The virtual clock advances by exactly the same delta the
            // real clock did (not fetch_max: handler charges may already
            // have pushed the clock past `t` while vtime excludes them).
            self.vtimes[p].fetch_add(t.0 - prev, Ordering::Relaxed);
        }
    }

    /// Maximum clock over all processors (the parallel execution time).
    pub fn clock_max(&self) -> SimTime {
        SimTime(
            self.clocks
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .max()
                .unwrap_or(0),
        )
    }

    /// Set every clock to `t` (barrier departure). Monotone by `fetch_max`
    /// so a racing `advance` cannot move a clock backwards. Each
    /// processor's jump is billed to [`StallCat::BarrierWait`], and the
    /// virtual clocks re-synchronize here — the barrier departure time
    /// is deterministic, because every charge of the closing interval
    /// lands before the rendezvous that computes it.
    pub fn set_all_clocks(&self, t: SimTime) {
        for (p, c) in self.clocks.iter().enumerate() {
            let prev = c.fetch_max(t.0, Ordering::Relaxed);
            if t.0 > prev {
                self.bill(p, StallCat::BarrierWait, t.0 - prev);
            }
            self.vtimes[p].fetch_max(t.0, Ordering::Relaxed);
        }
    }

    pub fn reset(&self) {
        for c in &self.clocks {
            c.store(0, Ordering::Relaxed);
        }
        for t in &self.tallies {
            t.store(0, Ordering::Relaxed);
        }
        for v in &self.vtimes {
            v.store(0, Ordering::Relaxed);
        }
        for c in &self.cats {
            c.store(StallCat::Compute as u8, Ordering::Relaxed);
        }
        self.stats.reset();
        self.policy.reset();
        self.notice_meta.store(0, Ordering::Relaxed);
        // The loss draw streams restart, so a timed region is
        // deterministic on its own.
        for c in &self.loss_ctr {
            c.store(0, Ordering::Relaxed);
        }
        self.reinspections.store(0, Ordering::Relaxed);
    }

    // ---- stall attribution and tracing ----

    /// Enter stall category `cat` on processor `p` until the returned
    /// guard drops (categories nest; the guard restores the previous
    /// one). Call only from `p`'s own thread.
    #[inline]
    pub fn scope(&self, p: ProcId, cat: StallCat) -> CatScope<'_> {
        let prev = self.cats[p].swap(cat as u8, Ordering::Relaxed);
        CatScope { net: self, p, prev }
    }

    /// Processor `p`'s deterministic virtual time (clock minus remote
    /// handler charges) — the trace timestamp source.
    #[inline]
    pub fn vtime(&self, p: ProcId) -> SimTime {
        SimTime(self.vtimes[p].load(Ordering::Relaxed))
    }

    /// Snapshot every processor's stall-attribution row. Exact (each
    /// row sums to its clock) whenever the cluster is quiescent.
    pub fn stall_rows(&self) -> Vec<StallRow> {
        (0..self.nprocs)
            .map(|p| {
                let mut row = StallRow {
                    clock: self.clocks[p].load(Ordering::Relaxed),
                    ..Default::default()
                };
                for (i, c) in row.cats.iter_mut().enumerate() {
                    *c = self.tallies[p * StallCat::COUNT + i].load(Ordering::Relaxed);
                }
                row
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

    /// A request/response pair between `requester` and `server`.
    ///
    /// Charges the requester the round trip plus `server_work`, charges the
    /// server the interrupt-handler cost, and counts two messages. This is
    /// TreadMarks' demand-fetch shape: the paper (§5.2.1) attributes part
    /// of CHAOS's edge on nbf exactly to this two-message pattern.
    #[allow(clippy::too_many_arguments)]
    pub fn request_response(
        &self,
        requester: ProcId,
        server: ProcId,
        kind_req: MsgKind,
        req_bytes: usize,
        kind_resp: MsgKind,
        resp_bytes: usize,
        server_work: SimTime,
    ) {
        debug_assert_ne!(requester, server, "local access is not a message");
        self.stats.record(requester, kind_req, req_bytes);
        self.stats.record(server, kind_resp, resp_bytes);
        let rt = self.cost.round_trip(req_bytes, resp_bytes) + server_work;
        self.advance(requester, rt);
        self.advance_remote(server, self.cost.handler());
        if self.loss_on() {
            if self.loss_dropped(requester) {
                self.bill_retry(requester, requester, kind_req, req_bytes);
            }
            if self.loss_dropped(requester) {
                self.bill_retry(requester, server, kind_resp, resp_bytes);
            }
        }
        if self.trace_on {
            self.trace_slow(
                requester,
                TraceEvent::Msg {
                    kind: kind_req,
                    peer: server as u32,
                    bytes: req_bytes as u32,
                    out: true,
                },
            );
            self.trace_slow(
                requester,
                TraceEvent::Msg {
                    kind: kind_resp,
                    peer: server as u32,
                    bytes: resp_bytes as u32,
                    out: false,
                },
            );
        }
    }

    /// A one-way push from `from`; returns the arrival time at the
    /// destination. The receiver should fold this in via [`Net::await_until`]
    /// at its matching receive point. Charges the sender the injection
    /// overhead (half the latency) plus per-byte cost. No [`TraceEvent::Msg`]
    /// is emitted here — the destination is unknown at this layer; the
    /// runtimes that route pushes emit it at their send sites.
    pub fn push(&self, from: ProcId, kind: MsgKind, bytes: usize) -> SimTime {
        self.stats.record(from, kind, bytes);
        let inject = SimTime::from_us(
            0.5 * self.cost.msg_latency_us + self.cost.per_byte_us * bytes as f64,
        );
        self.advance(from, inject);
        if self.loss_on() && self.loss_dropped(from) {
            // The drop delays the sender's injection point, so the
            // arrival computed below already includes the resend.
            self.bill_retry(from, from, kind, bytes);
        }
        self.clock(from) + SimTime::from_us(0.5 * self.cost.msg_latency_us)
    }

    /// Count messages without clock effects (used where the caller has
    /// already charged an aggregate time, e.g. barrier traffic).
    #[inline]
    pub fn count_only(&self, from: ProcId, kind: MsgKind, n: u64, bytes: usize) {
        self.stats.record_n(from, kind, n, bytes);
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
        if self.loss_on() {
            for &(server, kreq, breq, kresp, bresp) in legs {
                if self.loss_dropped(requester) {
                    self.bill_retry(requester, requester, kreq, breq);
                }
                if self.loss_dropped(requester) {
                    self.bill_retry(requester, server, kresp, bresp);
                }
            }
        }
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
        if self.loss_on() {
            for &(from, kind, b) in legs {
                if self.loss_dropped(to) {
                    self.bill_retry(to, from, kind, b);
                }
            }
        }
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
        rep.label = self.label();
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
    prev: u8,
}

impl Drop for CatScope<'_> {
    fn drop(&mut self) {
        self.net.cats[self.p].store(self.prev, Ordering::Relaxed);
    }
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
    fn request_response_charges_both_sides() {
        let n = net(2);
        n.request_response(
            0,
            1,
            MsgKind::DiffRequest,
            16,
            MsgKind::DiffReply,
            4096,
            SimTime::ZERO,
        );
        assert_eq!(n.stats().total_messages(), 2);
        assert_eq!(n.stats().total_bytes(), 16 + 4096);
        assert_eq!(n.clock(0), n.cost().round_trip(16, 4096));
        assert_eq!(n.clock(1), n.cost().handler());
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
    fn scenario_label_stamps_reports_and_survives_reset() {
        let n = net(1);
        assert_eq!(n.report().label, None);
        n.set_label("uniform/static/p4");
        n.reset();
        assert_eq!(n.report().label.as_deref(), Some("uniform/static/p4"));
        assert_eq!(n.label().as_deref(), Some("uniform/static/p4"));
    }

    #[test]
    fn reset_zeroes_everything() {
        let n = net(2);
        n.advance(0, SimTime(5));
        n.count_only(1, MsgKind::Other, 4, 40);
        n.reset();
        assert_eq!(n.clock_max(), SimTime::ZERO);
        assert_eq!(n.stats().total_messages(), 0);
        for row in n.reset_probe_rows() {
            assert_eq!(row.total(), 0);
            assert_eq!(row.clock, 0);
        }
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
        n.request_response(0, 1, MsgKind::DiffRequest, 16, MsgKind::DiffReply, 4096, SimTime::ZERO);
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
        n.trace(0, TraceEvent::FaultBegin { page: 3, write: true });
        n.request_response(0, 1, MsgKind::DiffRequest, 16, MsgKind::DiffReply, 512, SimTime::ZERO);
        let got = sink.0.lock().unwrap();
        assert_eq!(got[0].0, 0);
        assert_eq!(got[0].1, 50, "stamped with the virtual clock");
        assert_eq!(got[0].2, TraceEvent::FaultBegin { page: 3, write: true });
        // The request/response emitted both legs on the requester lane.
        assert_eq!(got.len(), 3);
        assert!(matches!(got[1].2, TraceEvent::Msg { out: true, peer: 1, .. }));
        assert!(matches!(got[2].2, TraceEvent::Msg { out: false, peer: 1, .. }));
    }

    #[test]
    fn untraced_net_ignores_trace_calls() {
        let n = net(1);
        assert!(!n.tracing());
        n.trace(0, TraceEvent::FaultEnd { page: 1 }); // must be a no-op
        assert_eq!(n.clock(0), SimTime::ZERO);
    }
}

/// Test helper: a cluster whose links drop `per_mille` ‰ of messages.
#[cfg(test)]
fn lossy(nprocs: usize, loss_seed: u64, loss_per_mille: u32) -> Net {
    let cost = CostModel {
        loss_seed,
        loss_per_mille,
        ..CostModel::default()
    };
    Net::new(nprocs, cost)
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
        assert_eq!(n.clock(0), n.cost().round_trip(0, 0));
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
    fn lossy_push_round_still_counts_fewer_messages_than_lossy_pull() {
        // Half the droppable messages means push cannot degrade past
        // request/reply under the same loss stream shape.
        let pull = lossy(3, 7, 500);
        let push = lossy(3, 7, 500);
        for _ in 0..50 {
            pull.parallel_round(
                0,
                &[
                    (1, MsgKind::AdaptRequest, 24, MsgKind::AdaptReply, 4096),
                    (2, MsgKind::AdaptRequest, 24, MsgKind::AdaptReply, 4096),
                ],
            );
            push.push_round(
                0,
                &[(1, MsgKind::AdaptPush, 4096), (2, MsgKind::AdaptPush, 4096)],
            );
        }
        assert!(pull.stats().total_messages() > 200, "pull retries happened");
        assert!(push.stats().total_messages() > 100, "push retries happened");
        assert!(push.stats().total_messages() < pull.stats().total_messages());
        pull.assert_conserved();
        push.assert_conserved();
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
            &[
                (1, MsgKind::AdaptPush, 4096),
                (2, MsgKind::AdaptPush, 4096),
            ],
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

#[cfg(test)]
mod loss_tests {
    use super::*;

    /// A fixed traffic pattern exercising every droppable primitive.
    fn drive(n: &Net) {
        let np = n.nprocs();
        for _ in 0..4 {
            for p in 0..np {
                let q = (p + 1) % np;
                n.request_response(
                    p,
                    q,
                    MsgKind::DiffRequest,
                    16,
                    MsgKind::DiffReply,
                    4096,
                    SimTime::ZERO,
                );
            }
            n.parallel_round(
                0,
                &[(1, MsgKind::AggRequest, 8, MsgKind::AggReply, 512)],
            );
            n.push_round(1, &[(0, MsgKind::AdaptPush, 256)]);
            let arrival = n.push(0, MsgKind::Gather, 128);
            n.await_until(1, arrival);
            n.set_all_clocks(n.clock_max());
        }
    }

    fn fingerprint(n: &Net) -> (u64, u64, Vec<StallRow>) {
        (
            n.stats().total_messages(),
            n.stats().total_bytes(),
            n.stall_rows(),
        )
    }

    #[test]
    fn retry_billing_is_deterministic_per_seed() {
        let run = |seed: u64| {
            let n = lossy(4, seed, 250);
            drive(&n);
            fingerprint(&n)
        };
        assert_eq!(run(42), run(42), "same seed, same bills");
        assert_ne!(run(42), run(43), "the seed actually steers the drops");
    }

    #[test]
    fn retry_conservation_holds_across_cluster_sizes() {
        for np in [4usize, 8, 64] {
            let n = lossy(np, 9, 300);
            drive(&n);
            n.assert_conserved();
            let retry: u64 = n
                .stall_rows()
                .iter()
                .map(|r| r.get(StallCat::Retry))
                .sum();
            assert!(retry > 0, "p{np}: no retries billed at 30% loss");
        }
    }

    #[test]
    fn a_dropped_message_is_retried_exactly_once() {
        // At 1000‰ every first attempt is dropped. The model retries
        // once and the retry always lands — it is *not* re-drawn — so
        // the run terminates and bills exactly one duplicate per
        // message: 2× the loss-free traffic, with conservation intact.
        let clean = Net::new(4, CostModel::default());
        drive(&clean);
        let all_dropped = lossy(4, 7, 1000);
        drive(&all_dropped);
        all_dropped.assert_conserved();
        assert_eq!(
            all_dropped.stats().total_messages(),
            2 * clean.stats().total_messages()
        );
        assert_eq!(
            all_dropped.stats().total_bytes(),
            2 * clean.stats().total_bytes()
        );
    }

    #[test]
    fn zero_loss_is_byte_identical_to_the_no_loss_path() {
        let bare = Net::new(4, CostModel::default());
        drive(&bare);
        let zeroed = lossy(4, 12345, 0);
        drive(&zeroed);
        assert_eq!(fingerprint(&bare), fingerprint(&zeroed));
        for p in 0..4 {
            assert_eq!(bare.clock(p), zeroed.clock(p));
            assert_eq!(bare.vtime(p), zeroed.vtime(p));
        }
        assert_eq!(
            bare.stall_rows()
                .iter()
                .map(|r| r.get(StallCat::Retry))
                .sum::<u64>(),
            0
        );
    }

    #[test]
    fn reset_restarts_the_drop_stream_but_keeps_the_setting() {
        let n = lossy(2, 5, 400);
        drive(&n);
        let first = fingerprint(&n);
        n.reset();
        assert_eq!(n.reinspections(), 0);
        drive(&n);
        assert_eq!(fingerprint(&n), first, "replay after reset is identical");
    }

    #[test]
    fn reinspection_counter_counts_and_resets() {
        let n = Net::new(2, CostModel::default());
        n.add_reinspection();
        n.add_reinspection();
        assert_eq!(n.reinspections(), 2);
        n.reset();
        assert_eq!(n.reinspections(), 0);
    }
}
