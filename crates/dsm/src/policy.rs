//! Protocol policies: the per-processor decision layer between the DSM's
//! mechanism (invalidate, fault, fetch, diff) and *when* data moves.
//!
//! Base TreadMarks is purely reactive: a write notice invalidates a page,
//! and the next access demand-fetches it — one request/reply pair per
//! page. The paper's `Validate` runtime replaces that with compiler-
//! directed aggregation. A [`ProtocolPolicy`] is the third option: a
//! runtime observer that sees every demand miss and every barrier-time
//! invalidation, and may answer a barrier epoch with a set of pages to
//! prefetch in **one aggregated exchange per peer** — the same
//! machinery `Validate` uses ([`FetchClass::Prefetch`] →
//! `AdaptRequest`/`AdaptReply` messages), but with no compiler in the
//! loop.
//!
//! A policy is a pure function of what it observed: observations in,
//! one [`EpochDecision`] out. It never touches a counter or a trace
//! sink — the protocol layer turns each decision into
//! [`simnet::PolicyStats`] counts and [`simnet::TraceEvent::Policy`]
//! events in exactly one place ([`TmkProc::barrier_tagged`]), so the
//! decision is the only record of what the policy believed.
//!
//! The policy is deliberately *mechanism-preserving*: it can only change
//! when invalid pages are brought up to date, never what data they
//! contain, so any policy produces bitwise-identical program results.
//! A processor with no policy installed (the default) is byte-for-byte
//! the original TreadMarks and never touches the policy counters. The
//! `adapt` crate provides the learning implementation.
//!
//! [`FetchClass::Prefetch`]: crate::FetchClass::Prefetch
//! [`TmkProc::barrier_tagged`]: crate::TmkProc::barrier_tagged

/// What a [`ProtocolPolicy`] decided at one barrier epoch boundary.
///
/// The default ([`EpochDecision::none`]) is plain demand paging: no
/// pages picked, nothing deferred, pull semantics, phase 0.
#[derive(Debug, Clone, Default)]
pub struct EpochDecision {
    /// Pages to bring up to date this epoch instead of leaving them to
    /// demand-fault one at a time. Pages that are not actually invalid
    /// are skipped by the protocol layer.
    pub picks: Vec<u32>,
    /// Defer the batched fetch to the epoch's *first demand fault*
    /// instead of issuing it eagerly inside the barrier. In steady
    /// state the exchange still happens once per epoch (triggered by
    /// the first touch, which also rides along); a deferred plan whose
    /// pages are re-invalidated untouched — above all one armed at the
    /// run's final barrier, whose "next iteration" never executes — is
    /// discarded and the whole exchange is saved (*quiesced*). The cost
    /// of deferring is one page-fault service time on the triggering
    /// access.
    pub defer: bool,
    /// Account the predicted exchange as **update-push**: the writers
    /// push their diffs in one one-way data message per writer/consumer
    /// pair ([`FetchClass::Push`] → `AdaptPush`), eliminating the
    /// request half of the wire pattern. Data content and application
    /// order are identical to the pull path. The subscription that
    /// teaches the writers the schedule is billed explicitly: one
    /// one-way `AdaptSub` message per serving peer whenever the phase's
    /// schedule *changes* (a stable plan subscribes once).
    ///
    /// [`FetchClass::Push`]: crate::FetchClass::Push
    pub push: bool,
    /// The phase identity (barrier-site tag) that owns this decision.
    /// The protocol layer bills the resulting prefetch/push/deferred/
    /// quiesced traffic against this plan, so multi-barrier apps see a
    /// per-site breakdown instead of one aliased stream. Policies
    /// should echo the `phase` passed to
    /// [`ProtocolPolicy::epoch_end`].
    pub phase: u32,
    /// Per-page decision records made while forming this decision
    /// (promotions, demotions, withheld probes), in decision order. The
    /// protocol layer counts each into [`simnet::PolicyStats`] and emits
    /// it as a [`simnet::TraceEvent::Policy`] event when tracing is
    /// enabled; they carry no protocol meaning. Empty for non-learning
    /// policies.
    pub events: Vec<(u32, simnet::PolicyAct)>,
}

impl EpochDecision {
    /// The demand-paging decision: nothing picked.
    pub fn none() -> Self {
        EpochDecision::default()
    }

    /// An eager pull-mode prefetch of `picks` (PR 2's behavior),
    /// attributed to phase 0.
    pub fn prefetch(picks: Vec<u32>) -> Self {
        EpochDecision {
            picks,
            defer: false,
            push: false,
            phase: 0,
            events: Vec::new(),
        }
    }
}

/// Per-processor protocol decision hooks.
///
/// One boxed policy lives inside each processor's persistent protocol
/// state once installed with [`TmkProc::set_policy`]; it survives across
/// [`Cluster::run`] calls like the page table does. All hooks default to
/// no-ops so a policy only implements what it observes.
///
/// [`TmkProc::set_policy`]: crate::TmkProc::set_policy
/// [`Cluster::run`]: crate::Cluster::run
pub trait ProtocolPolicy: Send + std::fmt::Debug {
    /// A demand fault on `page` required a fetch (the page was invalid).
    /// Not called for aggregated or prefetch fetches.
    fn note_miss(&mut self, _page: u32) {}

    /// A deferred plan owned by `phase` and covering `pages` was
    /// discarded untriggered: the plan's window closed (its pages were
    /// re-invalidated, or the run ended) without anything touching
    /// them. The protocol layer calls this *before* the discarding
    /// epoch's `epoch_end`, so a policy can treat the quiesced window
    /// as a free probe — the prediction was provably not needed, at
    /// zero wire cost — instead of letting its own (never-performed)
    /// prefetch mask the absence of a miss.
    fn note_quiesced(&mut self, _phase: u32, _pages: &[u32]) {}

    /// A barrier epoch boundary. `epoch` is the barrier sequence
    /// number; `phase` is the barrier site's stable identity (the tag
    /// passed to [`TmkProc::barrier_tagged`]; plain [`TmkProc::barrier`]
    /// is phase 0) — multi-barrier apps tag each site so a policy can
    /// keep its learned state per site instead of aliasing them;
    /// `invalidated` the pages write notices just invalidated for this
    /// processor (sorted, deduplicated). Returns an [`EpochDecision`]:
    /// which pages to bring up to date in one aggregated exchange per
    /// peer instead of leaving them to demand-fault one at a time,
    /// whether to defer that exchange to the epoch's first fault, and
    /// whether to account it as writer-initiated update-push.
    ///
    /// [`TmkProc::barrier_tagged`]: crate::TmkProc::barrier_tagged
    /// [`TmkProc::barrier`]: crate::TmkProc::barrier
    fn epoch_end(&mut self, _epoch: u64, _phase: u32, _invalidated: &[u32]) -> EpochDecision {
        EpochDecision::none()
    }
}
