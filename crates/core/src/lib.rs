//! # sdsm-core — the paper's contribution: `Validate`
//!
//! This crate implements the augmented run-time interface of **Figure 3**
//! of the paper: communication aggregation and prefetching for irregular
//! accesses on top of the TreadMarks-style DSM in the [`dsm`] crate.
//!
//! A compiler front end (crate `fcc`) inserts a [`validate`] call before
//! loops with irregular accesses. Each *access descriptor* names a shared
//! data array, the section being accessed — directly, or through an
//! indirection array — and the access type:
//!
//! ```text
//! Validate(1, INDIRECT, x, interaction_list[1:2, 1:num_interactions], READ, 1)
//! ```
//!
//! At run time, `validate`:
//!
//! 1. For an `INDIRECT` descriptor whose indirection section has been
//!    **modified** since the last call (detected by write-watching the
//!    pages that hold the indirection array — both local writes and
//!    incoming write notices trip it), re-runs `Read_indices`: scan the
//!    indirection section, map every target element to its page, and
//!    cache the page set under the descriptor's schedule number.
//! 2. Collects every *invalid* page across all descriptors and fetches
//!    the missing diffs in **one aggregated request/reply exchange per
//!    peer processor** (`Fetch_diffs` + `Apply_diffs`).
//! 3. Performs consistency actions preemptively: `Create_twins` for
//!    `WRITE`/`READ&WRITE` descriptors, and for `WRITE_ALL` /
//!    `READ&WRITE_ALL` marks pages whole-page-written — no twin, no
//!    fetch (for `WRITE_ALL`), and the full page rather than a diff is
//!    shipped to the next consumer.
//!
//! The result is the paper's headline mechanism: demand paging's
//! page-at-a-time request/response traffic collapses into one exchange
//! per peer, issued *before* the loop, with no inspector.

mod descriptor;
mod validate;

pub use descriptor::{AccessType, Desc, FlatIndices, RegionRef};
pub use validate::{validate, ScheduleInfo, Validator};

pub use dsm::{
    Cluster, ClusterPool, DsmConfig, FetchClass, MsgKind, Pod, SharedSlice, SimTime, TmkProc,
    DENSE_VC_MAX,
};
pub use rsd::{Dim, Rsd};
