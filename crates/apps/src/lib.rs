//! # apps — the paper's two irregular applications, in six builds each
//!
//! * **moldyn** (§5.1): a CHARMM-like molecular dynamics kernel. An
//!   interaction list of all molecule pairs within a cutoff radius is the
//!   indirection array; it is rebuilt periodically as molecules move.
//! * **nbf** (§5.2): the GROMOS non-bonded-force kernel. Concatenated
//!   per-molecule partner lists form a *static* indirection array.
//! * **umesh** (unstructured-mesh edge relaxation) fills the remaining
//!   corner of the design space: a static *pair* list.
//!
//! Two kernels run them, each in all six [`Variant`]s: moldyn and nbf
//! on [`pair`], one Newton's-third-law pair loop with a pipelined
//! owner-last reduction, and umesh (like every `synth` scenario) on
//! [`relax`], one owner-side gather–compute–scatter reduction. The
//! variants are `Seq` (the sequential reference), `TmkBase` (demand
//! paging), `TmkOpt` (compiler-inserted `Validate`, its descriptors from
//! `fcc` compiling the paper's Figure-1 sources), `TmkAdaptive` and
//! `TmkPush` (the `adapt` engine learning the pattern, pulling or
//! pushed to) and `Chaos` (the inspector/executor). [`Workload::run`] is
//! the only place a variant is mapped to a kernel; [`run_variants`] /
//! [`run_matrix`] run and cross-check any subset.
//!
//! All six compute identical physics from identical seeded workloads:
//! the five parallel builds agree bitwise, and with the sequential
//! reference to floating-point reordering tolerance (bitwise for umesh),
//! while simulated time, messages and data reproduce Tables 1 and 2.
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
pub mod pair;
pub mod phases;
pub mod relax;
pub mod report;
pub mod umesh;
pub mod work;
pub mod workload;

pub use report::{RunReport, Variant};
pub use workload::{run_matrix, run_variants, CheckMode, Workload, WorkloadMatrix};
