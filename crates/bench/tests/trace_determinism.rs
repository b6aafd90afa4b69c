//! The two claims the trace layer ships on, tested end-to-end:
//!
//! 1. **Byte-identical determinism** — the same seed produces the same
//!    Chrome trace JSON, byte for byte, across runs and host thread
//!    schedules. Timestamps are virtual clocks, lanes are per-processor
//!    (no cross-lane ordering to race on), and cluster-wide events are
//!    pinned to a fixed lane, so the exporter output is a pure function
//!    of the workload seed.
//! 2. **Stall conservation** — every processor's per-category stall
//!    nanoseconds sum *exactly* to its final simulated clock. This is
//!    checked on deterministic pinned cells at 4, 8, and 64 processors
//!    and then soaked with proptest over random synthetic cells, so the
//!    accounting identity holds for every billing path the scenario
//!    space can reach, not just the ones the pinned cells exercise.
//!
//! Soak runs raise the proptest case count with `PROPTEST_CASES`;
//! failing draws replay via `PROPTEST_TEST`/`PROPTEST_SEED`.

use std::sync::Arc;

use apps::workload::run_matrix;
use proptest::prelude::*;
use synth::{Dynamics, Prepared, Structure, SynthConfig};
use trace::{check_conservation, chrome_trace_json, json_well_formed, with_trace_sink, Tracer};

/// A trace-test-sized cell, mirroring the merge-property sizing: the
/// 64-processor draw grows the element count so every processor still
/// owns ≥ 2 value pages and drops iterations to keep the case cheap.
fn cell(structure: Structure, dynamics: Dynamics, nprocs: usize, seed: u64) -> SynthConfig {
    let mut cfg = SynthConfig::quick(structure, dynamics);
    if nprocs == 64 {
        cfg.n = 1024; // 128 pages of 64 B → 2 per processor
        cfg.refs = 1536;
        cfg.iters = 2;
        cfg.page_size = 64;
    } else {
        cfg.n = 256; // 16 pages of 128 B → ≥ 2 per processor
        cfg.refs = 512;
        cfg.iters = 3;
        cfg.page_size = 128;
    }
    cfg.nprocs = nprocs;
    cfg.seed = seed;
    cfg
}

/// One traced matrix pass: every variant runs with its `Net` adopted by
/// a fresh ring-buffer sink, and the capture is exported to JSON.
fn traced_json(cfg: &SynthConfig) -> String {
    let tracer = Arc::new(Tracer::new(cfg.nprocs, 1 << 16));
    let _ = with_trace_sink(tracer.clone(), || run_matrix(&Prepared::new(cfg.clone())));
    chrome_trace_json(&tracer.capture())
}

#[test]
fn same_seed_twice_yields_byte_identical_trace() {
    let cfg = cell(Structure::Uniform, Dynamics::PeriodicRemap { period: 3 }, 8, 42);
    let a = traced_json(&cfg);
    let b = traced_json(&cfg);
    assert!(json_well_formed(&a), "trace JSON malformed");
    assert!(a.len() > 1024, "trace suspiciously empty ({} bytes)", a.len());
    assert_eq!(a, b, "same seed, two passes: trace JSON must be byte-identical");
}

/// The conservation identity on deterministic pinned cells, including
/// the 64-processor sparse-clock regime. Checked both through
/// [`check_conservation`] and by summing the rows by hand, so a bug in
/// the checker itself cannot vacuously pass.
#[test]
fn stall_categories_sum_to_final_clock_on_pinned_cells() {
    for &nprocs in &[4usize, 8, 64] {
        let cfg = cell(Structure::Banded { width: 16 }, Dynamics::Alternating, nprocs, 7);
        let m = run_matrix(&Prepared::new(cfg));
        let mut checked = 0;
        for run in &m.runs {
            let Some(net) = &run.report.net else { continue };
            check_conservation(net).unwrap_or_else(|e| {
                panic!("{} p{nprocs} {:?}: {e}", m.label, run.variant)
            });
            for (p, row) in net.stalls.iter().enumerate() {
                assert_eq!(
                    row.total(),
                    row.clock,
                    "{} p{nprocs} {:?} proc {p}: stall rows must sum to the clock",
                    m.label,
                    run.variant
                );
            }
            checked += 1;
        }
        assert!(checked >= 5, "only {checked} variants carried stall rows at p{nprocs}");
    }
}

fn structures() -> impl Strategy<Value = Structure> {
    proptest::sample::select(vec![
        Structure::Uniform,
        Structure::PowerLaw { alpha: 2.0 },
        Structure::Banded { width: 16 },
    ])
}

fn dynamics() -> impl Strategy<Value = Dynamics> {
    proptest::sample::select(vec![
        Dynamics::Static,
        Dynamics::PeriodicRemap { period: 2 },
        Dynamics::Alternating,
    ])
}

/// {4, 8, 64}, weighted toward the cheap draws — the 64-processor case
/// spawns 64 OS threads per parallel variant, an order of magnitude
/// more wall clock, so it gets 1/16 of the draws.
fn nprocs() -> impl Strategy<Value = usize> {
    let mut pool = vec![4, 4, 4, 4, 8, 8, 8, 8];
    pool.extend([4, 4, 4, 8, 8, 8, 8, 64]);
    proptest::sample::select(pool)
}

proptest! {
    #[test]
    fn stall_conservation_holds_on_random_cells(
        structure in structures(),
        dyn_ in dynamics(),
        np in nprocs(),
        seed in 0u64..1_000_000,
    ) {
        let cfg = cell(structure, dyn_, np, seed);
        let m = run_matrix(&Prepared::new(cfg));
        for run in &m.runs {
            if let Some(net) = &run.report.net {
                check_conservation(net).unwrap_or_else(|e| {
                    panic!("{} p{np} {:?}: {e}", m.label, run.variant)
                });
            }
        }
    }
}
