//! # serve — scenario-matrix-as-a-service
//!
//! The repo's contract check — [`apps::workload::run_matrix`] running
//! one workload as all six system variants and asserting bitwise
//! agreement — is a one-shot affair everywhere else: build the world,
//! run the matrix, print a table, exit. This crate turns it into a
//! **service**: a bounded pool of executor threads pulls cell jobs
//! (a [`synth::SynthConfig`] grid cell) from a work-stealing queue,
//! runs each through the full six-variant matrix, and keeps going —
//! for a fixed job count or a wall-clock window — while recording
//! per-job latency into a streaming histogram and folding per-variant
//! message statistics without a global lock.
//!
//! What sustained serving buys over one-shot runs:
//!
//! * **Soak coverage.** Every job re-asserts the six-way bitwise
//!   contract *and* is checked against cold-run golden message totals,
//!   so protocol state that survives a run (a stale diff log, an
//!   unreset barrier board) surfaces as a loud failure on job two.
//! * **A throughput figure.** Sustained cells/sec and p50/p95/p99
//!   latency over the grid is a single number that moves when anything
//!   in the stack — twin creation, diff encoding, barrier folding —
//!   gets slower, making it a regression canary the per-variant message
//!   counts cannot be (those are pinned exactly).
//! * **An allocation regime.** Serving the same cells repeatedly makes
//!   "zero per-job heap growth" a checkable property; the
//!   reusable-scratch path (`dsm::ClusterPool`) exists so the steady
//!   state recycles rather than reallocates.
//!
//! The moving parts, bottom-up: [`hist::Histogram`] (log-bucketed
//! mergeable latency percentiles), [`deque::JobPool`] (injector +
//! per-worker steal queues), [`budget::ThreadBudget`] (a semaphore over
//! OS-thread tokens: one per running job, no spares), and
//! [`driver::serve`] (goldens, workers, merged [`ServeOutcome`]).

pub mod alloc;
pub mod budget;
pub mod deque;
pub mod driver;
pub mod hist;

pub use budget::{BudgetGuard, ThreadBudget};
pub use deque::JobPool;
pub use driver::{serve, ServeConfig, ServeOutcome, Stop, VariantTotals};
pub use hist::Histogram;
