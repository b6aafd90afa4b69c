//! Structured simulated-time tracing and stall attribution.
//!
//! Two layers share this module, both stamped exclusively with
//! [`SimTime`] (never wall clock):
//!
//! * **Stall attribution** is always on: every clock mutation in
//!   [`crate::Net`] also adds the same nanoseconds to one of the
//!   [`StallCat`] buckets of the processor whose clock moved, so the
//!   per-processor bucket sums equal the final clocks *exactly* — an
//!   accounting identity, not a sampling estimate. The buckets travel
//!   in [`crate::NetReport::stalls`] and merge element-wise, so the
//!   serve driver's concurrent folds preserve the conservation law.
//! * **Event tracing** is opt-in and zero-overhead when disabled: a
//!   cluster built without a sink never takes the traced branch (one
//!   predictable `bool` test per would-be event). A sink installed via
//!   [`with_trace_sink`] (or [`crate::Net::set_trace_sink`]) receives
//!   every [`TraceEvent`] from the *acting* thread, timestamped with
//!   that processor's deterministic virtual time.
//!
//! ## Determinism
//!
//! Event timestamps use the per-processor *virtual* clock — the real
//! simulated clock minus asynchronously-billed remote interrupt
//! service ([`StallCat::Handler`]), which is the one charge another
//! thread applies at a schedule-dependent instant. The virtual clock
//! re-synchronizes with the real clock at every barrier (all handler
//! charges of an interval land before its closing rendezvous), so for
//! barrier-structured programs a given seed yields byte-identical
//! traces across runs and thread schedules. Lock-ordering races are
//! inherently schedule-dependent and excluded from that claim.

use std::cell::RefCell;
use std::fmt;
use std::sync::Arc;

use crate::net::ProcId;
use crate::{MsgKind, SimTime};

/// Where a processor's simulated nanoseconds went. Every clock
/// mutation in [`crate::Net`] bills exactly one category, so the sum
/// over categories equals the final clock to the nanosecond.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum StallCat {
    /// Modeled application compute (the default; any un-scoped charge).
    Compute = 0,
    /// Demand page faults: the fetch round trip, twin creation, and
    /// diff application on the faulting processor.
    FaultStall = 1,
    /// Barrier rendezvous: the clock-synchronization jump to the
    /// barrier departure time, plus the scoped digest work around it.
    BarrierWait = 2,
    /// Lock acquisition: grant forwarding, release-time waits, and the
    /// interval close on release.
    LockWait = 3,
    /// Predicted exchanges: adaptive prefetch rounds and update-push
    /// rounds (both directions of the predicted data motion).
    PrefetchPush = 4,
    /// The CHAOS inspector: access dedup, translation, and schedule
    /// exchange.
    Inspector = 5,
    /// CHAOS executor communication: gather/scatter pack, exchange,
    /// and unpack.
    Exchange = 6,
    /// Remote interrupt service billed *to this processor by another's
    /// request* (the TreadMarks SIGIO handler cost). Kept separate so
    /// the remaining categories are deterministic per processor.
    Handler = 7,
    /// Lossy-link retransmission: the timeout + resend penalty a
    /// processor pays when the opt-in loss model
    /// ([`crate::CostModel::loss_per_mille`]) drops one of its messages.
    /// Zero on every loss-free run.
    Retry = 8,
}

impl StallCat {
    /// Number of categories (array dimension of [`StallRow::cats`]).
    pub const COUNT: usize = 9;

    /// Every category, in `repr` order.
    pub const ALL: [StallCat; StallCat::COUNT] = [
        StallCat::Compute,
        StallCat::FaultStall,
        StallCat::BarrierWait,
        StallCat::LockWait,
        StallCat::PrefetchPush,
        StallCat::Inspector,
        StallCat::Exchange,
        StallCat::Handler,
        StallCat::Retry,
    ];

    /// Stable snake_case name (used by the JSON reports).
    pub fn name(self) -> &'static str {
        match self {
            StallCat::Compute => "compute",
            StallCat::FaultStall => "fault_stall",
            StallCat::BarrierWait => "barrier_wait",
            StallCat::LockWait => "lock_wait",
            StallCat::PrefetchPush => "prefetch_push",
            StallCat::Inspector => "inspector",
            StallCat::Exchange => "exchange",
            StallCat::Handler => "handler",
            StallCat::Retry => "retry",
        }
    }

    #[inline]
    pub(crate) fn from_u8(v: u8) -> StallCat {
        // COUNT is not a power of two, so no mask trick: decode by
        // table lookup, falling back to the default category for any
        // byte that never came from a valid `StallCat as u8`.
        Self::ALL
            .get(v as usize)
            .copied()
            .unwrap_or(StallCat::Compute)
    }
}

/// One processor's stall-attribution row: nanoseconds per category
/// plus the clock they must sum to. Rows add element-wise, so folded
/// reports keep the conservation law (`total() == clock`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StallRow {
    /// Nanoseconds billed per category, indexed by `StallCat as usize`.
    pub cats: [u64; StallCat::COUNT],
    /// The processor's clock at capture, in nanoseconds.
    pub clock: u64,
}

impl StallRow {
    /// Nanoseconds in one category.
    #[inline]
    pub fn get(&self, cat: StallCat) -> u64 {
        self.cats[cat as usize]
    }

    /// Sum over all categories — equals [`StallRow::clock`] exactly
    /// for any row captured from a quiescent [`crate::Net`].
    pub fn total(&self) -> u64 {
        self.cats.iter().sum()
    }

    /// Element-wise accumulate (used by [`crate::NetReport::merge`]).
    pub fn merge(&mut self, other: &StallRow) {
        for (a, b) in self.cats.iter_mut().zip(&other.cats) {
            *a += b;
        }
        self.clock += other.clock;
    }

    /// Element-wise saturating difference (interval deltas).
    pub fn delta(&self, earlier: &StallRow) -> StallRow {
        let mut out = StallRow::default();
        for (i, o) in out.cats.iter_mut().enumerate() {
            *o = self.cats[i].saturating_sub(earlier.cats[i]);
        }
        out.clock = self.clock.saturating_sub(earlier.clock);
        out
    }
}

/// The protocol action a policy decision event reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyAct {
    /// A page's gap history locked onto a cycle; prefetching begins.
    Promote,
    /// The lock was lost; the page falls back to demand paging.
    Demote,
    /// A prediction was withheld to test whether the pattern is alive.
    Probe,
}

impl PolicyAct {
    pub fn name(self) -> &'static str {
        match self {
            PolicyAct::Promote => "promote",
            PolicyAct::Demote => "demote",
            PolicyAct::Probe => "probe",
        }
    }
}

/// How a page fetch was triggered — the DSM's fetch classes
/// (`dsm::FetchClass` is this type). The class decides which stall
/// bucket the exchange bills and which message kinds account it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FetchKind {
    /// Demand fault on a single page (base TreadMarks).
    Demand,
    /// Aggregated prefetch of a whole schedule (`Validate`).
    Aggregated,
    /// Aggregated prefetch decided by a runtime protocol policy at a
    /// barrier (no compiler hints): `AdaptRequest`/`AdaptReply`.
    Prefetch,
    /// Writer-initiated update push decided by a runtime protocol
    /// policy in push mode: the writers push their diffs in one one-way
    /// `AdaptPush` message per writer/consumer pair — the request half
    /// of the exchange does not exist on the wire. Data and application
    /// order are identical to [`FetchKind::Prefetch`].
    Push,
}

impl FetchKind {
    pub fn name(self) -> &'static str {
        match self {
            FetchKind::Demand => "demand",
            FetchKind::Aggregated => "aggregated",
            FetchKind::Prefetch => "prefetch",
            FetchKind::Push => "push",
        }
    }

    /// Who the whole exchange is attributed to: demand and
    /// compiler-aggregated fetches are fault service, predicted
    /// prefetch/push rounds are the adaptive engine's data motion.
    pub fn stall_cat(self) -> StallCat {
        match self {
            FetchKind::Demand | FetchKind::Aggregated => StallCat::FaultStall,
            FetchKind::Prefetch | FetchKind::Push => StallCat::PrefetchPush,
        }
    }

    /// The `(request, data)` message kinds one peer's share of the
    /// exchange is accounted as; a push has no request leg.
    pub fn msg_kinds(self) -> (Option<MsgKind>, MsgKind) {
        match self {
            FetchKind::Demand => (Some(MsgKind::DiffRequest), MsgKind::DiffReply),
            FetchKind::Aggregated => (Some(MsgKind::AggRequest), MsgKind::AggReply),
            FetchKind::Prefetch => (Some(MsgKind::AdaptRequest), MsgKind::AdaptReply),
            FetchKind::Push => (None, MsgKind::AdaptPush),
        }
    }
}

/// A CHAOS inspector/executor span label.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanTag {
    /// The whole inspector pass.
    Inspect,
    /// The duplicate-elimination pass inside it (the section the
    /// inspector may run on sharded worker threads; the span is one
    /// event pair per inspection regardless of the thread count, so
    /// traces stay byte-identical across `RAYON_SHIM_THREADS`).
    Dedup,
    /// The global→(owner, offset) translation batch inside it.
    Translate,
    /// Executor gather (owners push referenced elements).
    Gather,
    /// Executor scatter-add (ghost contributions return to owners).
    Scatter,
    /// A mid-run re-inspection: the amortized schedule went stale (a
    /// partition rebalance) and the inspector pass is paid again.
    Reinspect,
}

impl SpanTag {
    pub fn name(self) -> &'static str {
        match self {
            SpanTag::Inspect => "inspect",
            SpanTag::Dedup => "dedup",
            SpanTag::Translate => "translate",
            SpanTag::Gather => "gather",
            SpanTag::Scatter => "scatter",
            SpanTag::Reinspect => "reinspect",
        }
    }
}

/// One structured trace event. `Copy` on purpose: recording must not
/// allocate (the serve heap assertions run with tracing disabled, but
/// the enabled path stays allocation-free per event too — only the
/// sink's ring buffers hold memory, sized at sink construction).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceEvent {
    /// A demand fault began on `page` (`write` = write fault).
    FaultBegin { page: u32, write: bool },
    /// The fault on `page` was serviced.
    FaultEnd { page: u32 },
    /// A twin (pristine copy) of `page` was created before writing.
    TwinCreate { page: u32 },
    /// The interval close diffed `page` against its twin.
    DiffCreate { page: u32, bytes: u32 },
    /// One fetch round: `pages` pages from `peers` peers, `bytes` of
    /// diff payload, issued by the named protocol path.
    Fetch {
        class: FetchKind,
        pages: u32,
        peers: u32,
        bytes: u64,
    },
    /// This processor arrived at barrier `epoch` (site tag `phase`).
    BarrierEnter { epoch: u64, phase: u32 },
    /// The barrier leader folded `bytes` of write-notice metadata.
    BarrierNotice { epoch: u64, phase: u32, bytes: u64 },
    /// This processor departed barrier `epoch`.
    BarrierExit { epoch: u64, phase: u32 },
    /// Lock acquisition began.
    LockAcquire { lock: u32 },
    /// The lock was granted.
    LockAcquired { lock: u32 },
    /// The lock was released.
    LockRelease { lock: u32 },
    /// An adaptive-policy decision on `(page, phase)`.
    Policy { page: u32, phase: u32, act: PolicyAct },
    /// A predicted batch of `pages` pages was deferred to first fault.
    PlanDefer { phase: u32, pages: u32 },
    /// A deferred plan of `pages` pages was discarded untriggered.
    PlanQuiesce { phase: u32, pages: u32 },
    /// A named span opened on this processor.
    SpanBegin { tag: SpanTag },
    /// The most recent span with this tag closed.
    SpanEnd { tag: SpanTag },
    /// A message was sent to (`out`) or received from (`!out`) `peer`.
    Msg {
        kind: MsgKind,
        peer: u32,
        bytes: u32,
        out: bool,
    },
}

/// A trace consumer. [`crate::Net`] calls [`TraceSink::record`] from
/// the acting processor's own thread, so a sink keeping one lane per
/// processor needs no cross-lane ordering to be deterministic.
pub trait TraceSink: Send + Sync + fmt::Debug {
    /// Record `ev`, stamped with processor `p`'s virtual time `t`.
    fn record(&self, p: ProcId, t: SimTime, ev: TraceEvent);
}

thread_local! {
    /// The sink the next [`crate::Net::new`] on this thread adopts —
    /// set by [`with_trace_sink`] so harnesses can trace a run without
    /// plumbing a sink through every workload constructor.
    static PENDING_SINK: RefCell<Option<Arc<dyn TraceSink>>> =
        const { RefCell::new(None) };
}

/// Run `f` with `sink` installed as the pending trace sink: every
/// cluster *constructed on this thread* inside `f` traces into it.
/// (The DSM and CHAOS runtimes build their `Net` on the calling
/// thread, so wrapping a workload run is enough.) The previous pending
/// sink is restored on exit, even on panic.
pub fn with_trace_sink<R>(sink: Arc<dyn TraceSink>, f: impl FnOnce() -> R) -> R {
    let prev = PENDING_SINK.with(|s| s.borrow_mut().replace(sink));
    struct Restore(Option<Arc<dyn TraceSink>>);
    impl Drop for Restore {
        fn drop(&mut self) {
            let prev = self.0.take();
            PENDING_SINK.with(|s| *s.borrow_mut() = prev);
        }
    }
    let _restore = Restore(prev);
    f()
}

/// The sink [`with_trace_sink`] installed on this thread, if any.
pub(crate) fn pending_sink() -> Option<Arc<dyn TraceSink>> {
    PENDING_SINK.with(|s| s.borrow().clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    #[derive(Debug, Default)]
    struct Probe(Mutex<Vec<(ProcId, u64)>>);
    impl TraceSink for Probe {
        fn record(&self, p: ProcId, t: SimTime, _ev: TraceEvent) {
            self.0.lock().unwrap().push((p, t.as_ns()));
        }
    }

    #[test]
    fn stall_row_merge_and_delta_preserve_conservation() {
        let mut a = StallRow::default();
        a.cats[StallCat::Compute as usize] = 70;
        a.cats[StallCat::FaultStall as usize] = 30;
        a.clock = 100;
        let mut b = StallRow::default();
        b.cats[StallCat::BarrierWait as usize] = 40;
        b.clock = 40;
        assert_eq!(a.total(), a.clock);
        let snap = a;
        a.merge(&b);
        assert_eq!(a.total(), 140);
        assert_eq!(a.total(), a.clock);
        let d = a.delta(&snap);
        assert_eq!(d.get(StallCat::BarrierWait), 40);
        assert_eq!(d.total(), d.clock);
    }

    #[test]
    fn category_names_are_distinct_and_round_trip() {
        let mut names: Vec<&str> = StallCat::ALL.iter().map(|c| c.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), StallCat::COUNT);
        for cat in StallCat::ALL {
            assert_eq!(StallCat::from_u8(cat as u8), cat);
        }
    }

    #[test]
    fn with_trace_sink_scopes_the_pending_sink() {
        assert!(pending_sink().is_none());
        let probe = Arc::new(Probe::default());
        with_trace_sink(probe.clone(), || {
            let got = pending_sink().expect("sink pending inside the scope");
            got.record(1, SimTime(5), TraceEvent::FaultEnd { page: 9 });
        });
        assert!(pending_sink().is_none(), "restored on exit");
        assert_eq!(probe.0.lock().unwrap().as_slice(), &[(1, 5)]);
    }
}
