//! # chaos — an inspector/executor run-time library (the paper's baseline)
//!
//! A reimplementation of the CHAOS run-time system as the paper describes
//! it (§4), on the same simulated cluster (`simnet`) as the DSM, so the
//! two approaches are compared under one cost model. The three steps of
//! solving an irregular problem in CHAOS:
//!
//! 1. **Data partitioning** ([`Partition`]): the BLOCK and Recursive
//!    Coordinate Bisection partitioners the paper's programs use. RCB
//!    **renumbers** the data so each processor's elements are
//!    contiguous, so a partition is a block layout, and a **translation
//!    table** (replicated or block-distributed) answers every element's
//!    home processor and offset by arithmetic on that layout.
//! 2. **The inspector** ([`inspector`]): executed per processor, it hashes
//!    the indirection array to eliminate duplicates, consults the
//!    translation table (communicating if the table is not replicated),
//!    and builds a [`CommSchedule`] — who sends which elements to whom.
//! 3. **The executor** ([`gather`]/[`scatter_add`]): schedule-driven bulk
//!    transfers on a processor's *local array* — its owned block, then
//!    one ghost slot per off-processor element, `width` values each —
//!    where [`CommSchedule::localize`] turns every reference into one
//!    local index, as CHAOS localizes. `gather` fetches off-processor
//!    data into the ghost slots before the loop; `scatter_add` pushes
//!    accumulated contributions back to the owners after it. Each
//!    communicating pair exchanges *one* message per operation —
//!    CHAOS's advantage over demand paging.
//!
//! All data movement in all three steps is [`ChaosProc::exchange`], a
//! BSP superstep generic over [`Pod`], the wire encoding the DSM's pages
//! use: senders store values straight into each receiver's reused inbox
//! and receivers read them straight out, one message per deposit.
//!
//! The expensive part is step 2: the paper measures 4.6–9.2 s per
//! processor per inspector call on moldyn, which is why the DSM approach
//! (whose `Validate` merely rescans the indirection array) wins whenever
//! the interaction list changes often.

mod executor;
mod inspector;
mod partition;
mod ttable;
mod world;

pub use executor::{gather, scatter_add};
pub use inspector::{inspector, reinspect, CommSchedule};
pub use partition::{block_partition, rcb_partition, Partition};
pub use ttable::{TTable, TTableCache, TTableKind};
pub use world::{ChaosProc, ChaosWorld, Values};

pub use simnet::{CostModel, MsgKind, Net, NetReport, Pod, ProcId, SimTime};
