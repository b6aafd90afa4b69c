//! # simnet — simulated cluster substrate
//!
//! The paper evaluates on an 8-processor IBM SP2 connected by the SP2
//! high-performance switch. This crate replaces that hardware with an
//! in-process model that the DSM (`dsm`), the aggregated-prefetch runtime
//! (`sdsm-core`), and the CHAOS baseline (`chaos`) all share, so the
//! comparison between systems is apples-to-apples:
//!
//! * **Simulated processors** are coroutines on the launching OS thread.
//!   Each owns a monotone *logical clock* ([`Net::clock`]) measured in
//!   nanoseconds of simulated time. They are launched by, scheduled by
//!   and meet on one host-side [`Rendezvous`] — the only thing here that
//!   concerns the host clock.
//! * **Every protocol message** is accounted — count and payload bytes —
//!   per sending processor and per [`MsgKind`]. The paper's "Messages" and
//!   "Data" columns are read directly from these counters.
//! * **Time** is charged through a [`CostModel`] (LogGP-flavoured:
//!   per-message latency, per-byte cost, interrupt-handler cost) whose
//!   default constants are calibrated against the 1997 SP2 numbers quoted
//!   in the paper (see `cost.rs`).
//!
//! Nothing in this crate knows about pages, diffs, or schedules; it only
//! moves simulated time forward and counts traffic.

mod coroutine;
mod cost;
mod net;
mod pod;
mod rendezvous;
mod stats;
mod time;
pub mod trace;

pub use cost::CostModel;
pub use net::{CatScope, Net, ProcId};
pub use pod::Pod;
pub use rendezvous::Rendezvous;
pub use stats::{MsgKind, NetReport, PhasePolicyRow, PolicyReport, PolicyStats, Stats};
pub use time::SimTime;
pub use trace::{
    with_trace_sink, FetchKind, PolicyAct, SpanTag, StallCat, StallRow, TraceEvent, TraceSink,
};
