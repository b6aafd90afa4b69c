//! Property: on randomly drawn scenarios — structure × dynamics
//! (including the alternating two-phase cell) × seed — the Tmk
//! **quartet** (base / optimized / adaptive / update-push) stays
//! bitwise identical and the phase-keyed adaptive build never issues
//! more messages than base. `run_matrix` enforces the bitwise contract
//! internally (all six variants, sequential included, since every synth
//! cell is `CheckMode::Bitwise`); the message bound is asserted here.
//! Failing seeds replay via `PROPTEST_TEST`/`PROPTEST_SEED`.

use apps::workload::{run_matrix, Variant};
use proptest::prelude::*;
use synth::{Dynamics, Prepared, Structure, SynthConfig};

/// A cell small enough for property-test case counts, keeping the
/// pages-per-processor invariant (16 value pages, 8 per processor —
/// aggregation must have something to merge; see `SynthConfig::quick`)
/// and enough iterations that the steady state outweighs the learning
/// transient: the alternating cell halves each phase's epoch count, and
/// a run that ends the moment a pattern promotes pays the one eager
/// final prefetch that the (not-yet-built) quiesce streak exists to
/// remove.
fn cell(structure: Structure, dynamics: Dynamics, seed: u64) -> SynthConfig {
    let mut cfg = SynthConfig::quick(structure, dynamics);
    cfg.n = 256;
    cfg.refs = 640;
    cfg.iters = 12;
    cfg.nprocs = 2;
    cfg.page_size = 128;
    cfg.seed = seed;
    cfg
}

fn structures() -> impl Strategy<Value = Structure> {
    proptest::sample::select(vec![
        Structure::Uniform,
        Structure::PowerLaw { alpha: 2.0 },
        Structure::Banded { width: 32 },
    ])
}

fn dynamics() -> impl Strategy<Value = Dynamics> {
    proptest::sample::select(vec![
        Dynamics::Static,
        Dynamics::PeriodicRemap { period: 3 },
        Dynamics::MultiPeriodic { p1: 2, p2: 3 },
        Dynamics::Alternating,
    ])
}

proptest! {
    #[test]
    fn quartet_bitwise_and_adaptive_within_base(
        structure in structures(),
        dyn_ in dynamics(),
        seed in 0u64..1_000_000,
    ) {
        let m = run_matrix(&Prepared::new(cell(structure, dyn_.clone(), seed)));
        let base = m.get(Variant::TmkBase).report.messages;
        let ad = m.get(Variant::TmkAdaptive).report.messages;
        prop_assert!(
            ad <= base,
            "{:?}/seed {}: adaptive {} > base {}",
            dyn_,
            seed,
            ad,
            base
        );
    }
}
