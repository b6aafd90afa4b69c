//! # dsm — a TreadMarks-style software distributed shared memory
//!
//! This crate reproduces the run-time protocol of TreadMarks 1.0.1 as the
//! paper describes it (§2):
//!
//! * **Lazy-invalidate release consistency**: ordinary shared accesses are
//!   distinguished from synchronization. The paper's programs synchronize
//!   only with barriers, and so does this DSM: a barrier arrival is the
//!   release and its departure the acquire. Consistency information
//!   travels only at barriers; each processor invalidates pages named in
//!   write notices of intervals it has not yet seen.
//! * **Intervals named by barrier epoch**: each processor's execution is
//!   divided into intervals closed at every barrier arrival. An interval
//!   publishes *write notices* — the pages it dirtied. TreadMarks tags
//!   them with vector timestamps; with barriers the only acquire, every
//!   processor knows exactly the intervals of the epochs before its own,
//!   so an interval is named by its writer and epoch, and the wire still
//!   bills the vector timestamp the paper's system sends.
//! * **Multiple-writer protocol**: the first write to a page in an
//!   interval makes a *twin* (a copy); at interval close the twin is
//!   compared to the page to produce a run-length-encoded *diff*.
//!   Concurrent writers to one page produce disjoint diffs that merge at
//!   the next synchronization, taming page-granularity false sharing.
//! * **Demand fetch**: the first access to an invalidated page "faults";
//!   the handler fetches the missing diffs from their writers (one
//!   request/reply pair per writer) and applies them in causal order.
//!
//! ## What is simulated, and how faithfully
//!
//! Real TreadMarks detects accesses with `mprotect` + SIGSEGV and services
//! remote requests in a SIGIO handler. Here the shared heap is a software
//! MMU ([`SharedSlice`] + the typed accessors on [`TmkProc`]): they check a
//! per-page state machine and run the identical protocol transitions
//! (fault → fetch → apply → validate). Two deliberate deviations, both
//! metric-preserving (ARCHITECTURE.md §Simulation honesty rules):
//!
//! 1. **Eager diffing at interval close** instead of lazy diffing on first
//!    request. Same diffs, same messages; only the *moment* diff-creation
//!    time is charged moves, and it is still charged to the modifier.
//! 2. **A published-record store** (`store::DiffStore`) stands in for
//!    peer-to-peer request service. Message counts/bytes are charged
//!    exactly as the real request/reply pairs would be, via [`simnet`].
//!
//! The `sdsm-core` crate layers the paper's contribution — `Validate`,
//! aggregated prefetch, twin pre-creation, `WRITE_ALL` full-page transfer
//! — on top of the hooks this crate exposes ([`TmkProc::fetch_pages`],
//! [`TmkProc::pre_twin`], [`TmkProc::mark_full_write`],
//! [`TmkProc::watch_pages`]).
//!
//! A third consumer is the runtime-adaptive engine in the `adapt` crate:
//! each processor carries a [`ProtocolPolicy`] that observes demand
//! misses and barrier-time invalidations and may answer an epoch with a
//! batched prefetch — same aggregation machinery, no compiler. With no
//! policy installed (the default) a processor is exactly base
//! TreadMarks.

#![warn(missing_docs)]

mod barrier;
mod cluster;
mod diff;
mod heap;
mod interval;
mod pagepool;
mod policy;
mod proc;
mod scratch;
mod store;

pub use cluster::{Cluster, DsmConfig};
pub use diff::{Diff, Payload, DIFF_WORD};
pub use heap::SharedSlice;
pub use interval::DENSE_VC_MAX;
pub use policy::{EpochDecision, ProtocolPolicy};
pub use proc::{PageState, ProcCounters, TmkProc};
pub use scratch::ClusterPool;

pub use simnet::{
    CostModel, FetchKind as FetchClass, MsgKind, Net, NetReport, Pod, PolicyReport, ProcId, SimTime,
};
