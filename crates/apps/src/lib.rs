//! # apps — the paper's two irregular applications, in six builds each
//!
//! * **moldyn** (§5.1): a CHARMM-like molecular dynamics kernel. An
//!   interaction list of all molecule pairs within a cutoff radius is the
//!   indirection array; it is rebuilt periodically as molecules move.
//! * **nbf** (§5.2): the GROMOS non-bonded-force kernel. Concatenated
//!   per-molecule partner lists form a *static* indirection array.
//!
//! A third workload, **umesh** (unstructured-mesh edge relaxation),
//! fills the remaining corner of the design space: a static *pair*
//! list.
//!
//! Each application comes as the six [`Variant`]s:
//!
//! 1. `Seq` — a **sequential** reference ([`moldyn::run_seq`],
//!    [`nbf::run_seq`], [`umesh::run_seq`]),
//! 2. `TmkBase` — plain demand-paged DSM,
//! 3. `TmkOpt` — compiler-inserted `Validate` (the descriptors come
//!    from `fcc` compiling the paper's Figure-1 sources),
//! 4. `TmkAdaptive` — the runtime-adaptive engine (`adapt` crate): no
//!    compiler hints, the protocol learns the pattern,
//! 5. `TmkPush` — the same engine in update-push mode,
//! 6. `Chaos` — hand-coded inspector/executor (`run_chaos`).
//!
//! The four Tmk builds are one SPMD program per app — `run_tmk(cfg,
//! world, variant, seq_time)` — and [`Workload::run`] is the only place
//! a variant is mapped to a kernel; [`run_variants`] / [`run_matrix`]
//! run and cross-check any subset.
//!
//! All six compute identical physics from identical seeded workloads, so
//! results cross-check to floating-point reordering tolerance (bitwise
//! among the Tmk builds), while simulated time, messages, and data
//! reproduce Tables 1 and 2.
//!
//! ## Modeled compute costs
//!
//! Real arithmetic runs at native speed; *simulated* time is charged per
//! unit of work ([`work`]), calibrated so the sequential programs land on
//! the paper's timings (moldyn ≈ 267 s at one rebuild; nbf 64×1024 ≈
//! 78 s — see `work.rs`).

pub mod harness;
pub mod moldyn;
pub mod nbf;
pub mod phases;
pub mod umesh;
pub mod report;
pub mod work;
pub mod workload;

pub use report::{RunReport, Variant};
pub use workload::{run_matrix, run_variants, CheckMode, Workload, WorkloadMatrix};
