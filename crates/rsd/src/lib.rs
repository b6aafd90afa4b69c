//! # rsd — Regular Section Descriptors
//!
//! The paper's entire compile-time requirement is *regular section
//! analysis* (Havlak & Kennedy): array accesses in a loop nest are
//! summarized as per-dimension `lo : hi : stride` triplets. The compiler
//! (`fcc`) computes *symbolic* sections — affine expressions over loop
//! bounds and program parameters — and the run-time (`sdsm-core`)
//! evaluates them to *concrete* sections that drive `Validate`:
//!
//! * a `DIRECT` descriptor's section *is* the accessed part of shared data;
//! * an `INDIRECT` descriptor's section describes the slice of the
//!   indirection array a processor traverses (usually `lo:hi:1`), from
//!   which `Read_indices` (in `sdsm-core`) computes the actual page set.
//!
//! This crate has no dependency on the DSM. It holds the section types
//! (symbolic, and the concrete ones they evaluate to), their evaluation,
//! and the page arithmetic of a direct section ([`pages_of_section`]
//! into a sorted [`PageSet`]). The compiler merges symbolic sections with
//! its own hull; nothing at run time intersects or unions sections.

mod concrete;
mod pages;
mod sym;

pub use concrete::{Dim, Rsd};
pub use pages::{pages_of_bytes, pages_of_section, PageSet};
pub use sym::{Affine, Env, Sym, SymDim, SymRsd};
