//! # adapt — a runtime-adaptive aggregation engine for the DSM
//!
//! The paper's comparison is three-way: plain TreadMarks demand paging,
//! compiler-directed aggregation (`Validate` descriptors emitted by
//! `fcc`), and the CHAOS inspector/executor. The compiler path wins
//! big — but only where source-level access analysis succeeds. This
//! crate adds the fourth system: **no compiler, no inspector — the
//! runtime watches itself**.
//!
//! Follow-on work on TreadMarks-lineage systems (adaptive protocols
//! that switch pages between invalidate and update modes from runtime
//! history) showed that per-page, per-epoch statistics recover most of
//! the aggregation win with zero source access. [`AdaptivePolicy`]
//! implements that idea on the [`dsm`] crate's `ProtocolPolicy` hook:
//!
//! 1. **Observe** — every demand miss and every barrier-time
//!    invalidation lands in a per-page table, keyed by invalidation
//!    events so periodic patterns (a page touched every
//!    `nprocs + 1` barriers) are seen as stable — and keyed by the
//!    barrier's **phase identity** (`dsm::TmkProc::barrier_tagged`), so
//!    multi-barrier apps that alternate sites (coordinate pages at one
//!    barrier, force chunks at the next) keep one clean plan per site
//!    instead of one aliased global stream. A miss is attributed to the
//!    phase that most recently invalidated the page — the only phase
//!    whose prefetch could have covered it.
//! 2. **Decide** — each page's recent need *gaps* feed a bounded
//!    **gap-history predictor** that locks onto the smallest repeating
//!    gap cycle: a constant gap (nbf partner pages), a pipelined period
//!    (moldyn force chunks), or a *union of periods* whose gap sequence
//!    is itself a longer cycle (the `MultiPeriodic` synth regime).
//!    Promoted pages are fetched at exactly the predicted barrier,
//!    batched with every other prediction into **one aggregated
//!    exchange per peer** (`AdaptRequest`/`AdaptReply`) — the same wire
//!    pattern `Validate` produces from compiler hints. In update-push
//!    mode (`AdaptivePolicy::new(true)`, the `TmkPush` build) the
//!    writers push instead (one one-way `AdaptPush` message per peer —
//!    the request leg disappears, and a schedule *change* costs one
//!    one-way `AdaptSub` subscription message per affected peer). In
//!    pull mode, after two identical epochs *of one phase* the exchange
//!    is deferred to the epoch's first fault, so the run's final
//!    barrier costs nothing (the *quiesce* heuristic); push mode stays
//!    eager — a fault-triggered plan would be consumer-initiated, i.e.
//!    a pull.
//! 3. **Retreat** — every 8th prediction of a promoted page is a probe
//!    that withholds the prefetch at exactly base-TreadMarks cost; a
//!    clean probe demotes the page, so a dissolved pattern cannot keep
//!    wasting traffic.
//!
//! Both thresholds — the probe cadence of 8 and the quiesce streak of
//! 2 — are fixed constants, like the promotion rule (a verified gap
//! cycle):
//! the engine has one tuning, and the only choice a caller makes is
//! pull or push.
//!
//! The engine only moves fetches earlier (or flips who initiates the
//! wire exchange); it never changes which records a fetch applies, so
//! results are **bitwise identical** to base TreadMarks, while the
//! message count drops toward the compiler-optimized build's. The
//! engine is a pure function of what it observed: each epoch's
//! [`EpochDecision`] — picks plus the per-page promotions, demotions and
//! probes behind them — is the only record it produces. The DSM counts
//! it (`Net::policy_report`, a [`PolicyReport`]) and traces it; the
//! engine keeps no log of its own.
//!
//! ## Quickstart
//!
//! ```
//! use adapt::AdaptivePolicy;
//! use dsm::{Cluster, DsmConfig};
//!
//! let cl = Cluster::new(DsmConfig::with_nprocs(4));
//! let data = cl.alloc::<f64>(4096);
//! // Install the engine on every processor, then run the app unchanged.
//! // `true` would select update-push instead of pull.
//! cl.run(|p| p.set_policy(Box::new(AdaptivePolicy::new(false))));
//! cl.run(|p| {
//!     for _step in 0..4 {
//!         if p.rank() == 0 {
//!             for i in 0..data.len() {
//!                 p.write(&data, i, 1.0);
//!             }
//!         }
//!         p.barrier();
//!         let _ = p.read(&data, 17); // readers learn, then prefetch
//!         p.barrier();
//!     }
//! });
//! assert!(cl.net().policy_report().epochs > 0);
//! ```

#![warn(missing_docs)]

mod policy;

pub use policy::{probe_budget, AdaptivePolicy, PageMode};

pub use dsm::{EpochDecision, ProtocolPolicy};
pub use simnet::PolicyReport;
