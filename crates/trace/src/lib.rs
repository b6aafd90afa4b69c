//! # trace — deterministic simulated-time observability
//!
//! Every report the workspace produced before this crate was an
//! end-of-run aggregate: `NetReport` says *that* adaptive beat base by
//! N messages, not *where the simulated time went*. This crate adds
//! the missing attribution layer on top of `simnet`'s always-on stall
//! accounting and opt-in event hooks:
//!
//! * [`Tracer`] — a [`simnet::TraceSink`] made of bounded per-processor
//!   ring buffers. Recording never allocates (lanes are sized at
//!   construction) and never orders across lanes; [`Tracer::capture`]
//!   folds the lanes into an immutable [`Trace`].
//! * [`chrome_trace_json`] — Chrome trace-event JSON (one "thread"
//!   per simulated processor), viewable in Perfetto or
//!   `chrome://tracing`.
//! * [`check_conservation`] — the exact conservation law over
//!   [`simnet::NetReport::stalls`] (category sums equal each
//!   processor's final clock to the nanosecond), checked rather than
//!   assumed.
//! * [`ServeTrace`] — job lifecycle / steal / recycle lanes for the
//!   serve throughput driver, exported into the same JSON shape.
//! * [`json_well_formed`] — a dependency-free JSON validator so the
//!   exporters can be smoke-checked in CI without a serde stack.
//!
//! Timestamps are [`simnet::SimTime`] virtual nanoseconds throughout —
//! never wall clock — so a fixed seed yields byte-identical output for
//! barrier-structured runs regardless of host load or thread schedule.

mod chrome;
mod json;
mod serve_lane;
mod sink;
mod stall;

pub use chrome::chrome_trace_json;
pub use json::json_well_formed;
pub use serve_lane::{ServeEvent, ServeTrace};
pub use sink::{ProcLane, Trace, Tracer};
pub use stall::check_conservation;

// The event vocabulary lives in `simnet` (the `Net` hooks speak it);
// re-export it so consumers need only this crate for tracing work.
pub use simnet::{
    with_trace_sink, FetchKind, PolicyAct, SpanTag, StallCat, StallRow, TraceEvent, TraceSink,
};
