//! Property-based acceptance of the scenario engine across the nprocs
//! scale axis: on a randomly drawn cell, **all six system variants
//! agree bitwise** — at 3 processors (dense-clock regime), 16 and 64
//! (sparse delta clocks + flat barrier digest). `run_matrix` does the
//! six-way cross-check internally; a disagreement panics with the
//! variant and scenario label.
//!
//! This is the randomized complement of `golden_counts.rs`, which pins
//! exact message/byte counts at 4/8 processors and stays byte-identical
//! across the metadata-scaling refactor.

use proptest::prelude::*;

use apps::workload::run_matrix;
use synth::{Dynamics, Prepared, Structure, SynthConfig};

fn structures() -> impl Strategy<Value = Structure> {
    prop::sample::select(vec![
        Structure::Uniform,
        Structure::PowerLaw { alpha: 2.0 },
        Structure::Banded { width: 96 },
    ])
}

fn dynamics() -> impl Strategy<Value = Dynamics> {
    prop::sample::select(vec![
        Dynamics::Static,
        Dynamics::PeriodicRemap { period: 2 },
        Dynamics::Drift { per_mille: 40 },
        Dynamics::Alternating,
    ])
}

/// The property, as shard `shard` of two: together the two test
/// functions below run exactly the cases of the one property (the
/// default 64, or `PROPTEST_CASES`), on two test threads instead of one.
fn six_variants_bitwise_equal_across_scales(shard: usize) {
    let strat = (
        structures(),
        dynamics(),
        prop::sample::select(vec![3usize, 16, 64]),
        0u64..1_000_000,
    );
    let name = "properties::six_variants_bitwise_equal_across_scales";
    proptest::run_shard(
        name,
        shard,
        2,
        &strat,
        |(structure, dynamics, nprocs, seed)| {
            let mut cfg = SynthConfig::quick(structure, dynamics);
            // Small but multi-page: 512 elements × 8 B over 64 B pages is
            // 64 pages, so even the 64-processor draw exercises remote
            // pages (and the sparse wire encoding end to end).
            cfg.n = 512;
            cfg.refs = 1024;
            cfg.iters = 4;
            cfg.page_size = 64;
            cfg.nprocs = nprocs;
            cfg.seed = seed;
            let m = run_matrix(&Prepared::new(cfg)); // asserts 6-way bitwise agreement
            prop_assert_eq!(m.runs.len(), 6);
        },
    );
}

#[test]
fn six_variants_bitwise_equal_across_scales_even_cases() {
    six_variants_bitwise_equal_across_scales(0);
}

#[test]
fn six_variants_bitwise_equal_across_scales_odd_cases() {
    six_variants_bitwise_equal_across_scales(1);
}
