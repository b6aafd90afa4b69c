//! Scenario-level integration tests: the six-variant bitwise contract
//! and the protocol-shape claims, on representative grid cells (the
//! full grid sweep lives in `bench`'s `table_synth`).

use apps::workload::{run_matrix, Variant, Workload};
use synth::{Dynamics, Prepared, Structure, SynthConfig};

/// Shrink a quick cell further so each test stays fast in debug builds.
/// The smaller page size preserves the pages-per-processor regime (16
/// value pages, 4 per processor) — see `SynthConfig::quick`.
fn tiny(structure: Structure, dynamics: Dynamics) -> SynthConfig {
    let mut cfg = SynthConfig::quick(structure, dynamics);
    cfg.n = 512;
    cfg.refs = 1536;
    cfg.iters = 8;
    cfg.page_size = 256;
    cfg
}

#[test]
fn five_variants_agree_bitwise_on_static_uniform() {
    // run_matrix asserts bitwise agreement internally (CheckMode::Bitwise).
    let m = run_matrix(&Prepared::new(tiny(Structure::Uniform, Dynamics::Static)));
    let base = &m.get(Variant::TmkBase).report;
    let opt = &m.get(Variant::TmkOpt).report;
    let chaos = &m.get(Variant::Chaos).report;
    assert!(base.messages > 0, "demand paging must communicate");
    // Paper shape: aggregation beats demand paging; CHAOS wins on a
    // static list (inspector amortized, schedule-driven transfers).
    assert!(opt.messages < base.messages);
    assert!(chaos.messages < base.messages);
    assert!(chaos.time < base.time);
}

#[test]
fn five_variants_agree_bitwise_on_remapped_powerlaw() {
    let m = run_matrix(&Prepared::new(tiny(
        Structure::PowerLaw { alpha: 2.0 },
        Dynamics::PeriodicRemap { period: 3 },
    )));
    // On a remap-heavy scenario CHAOS pays the inspector inside the
    // timed region.
    let chaos = &m.get(Variant::Chaos).report;
    assert!(chaos.inspector_s > 0.0, "in-region inspector re-runs");
}

#[test]
fn five_variants_agree_bitwise_on_drifting_banded() {
    let m = run_matrix(&Prepared::new(tiny(
        Structure::Banded { width: 32 },
        Dynamics::Drift { per_mille: 25 },
    )));
    let chaos = &m.get(Variant::Chaos).report;
    // Drift changes the list every iteration: the inspector re-runs
    // every timed iteration.
    assert!(chaos.inspector_s > 0.0);
}

#[test]
fn adaptive_never_exceeds_base_across_dynamics() {
    for dynamics in [
        Dynamics::Static,
        Dynamics::PeriodicRemap { period: 3 },
        Dynamics::Drift { per_mille: 25 },
        Dynamics::MultiPeriodic { p1: 3, p2: 5 },
        Dynamics::Alternating,
    ] {
        let m = run_matrix(&Prepared::new(tiny(Structure::Uniform, dynamics.clone())));
        let base = m.get(Variant::TmkBase).report.messages;
        let ad = m.get(Variant::TmkAdaptive).report.messages;
        assert!(
            ad <= base,
            "{:?}: adaptive sent {} > base {}",
            dynamics,
            ad,
            base
        );
    }
}

#[test]
fn multi_periodic_scenario_exercises_the_predictor() {
    // The ROADMAP's untested direction: remap period 3 interleaved with
    // period 5. The adaptive engine must stay within base's message
    // count while actually making decisions (promotions happen, and the
    // interleaved remaps force demotions/relearning).
    let mut cfg = tiny(Structure::Uniform, Dynamics::MultiPeriodic { p1: 3, p2: 5 });
    cfg.iters = 15; // a full p1×p2 cycle
    let m = run_matrix(&Prepared::new(cfg));
    let base = &m.get(Variant::TmkBase).report;
    let ad = &m.get(Variant::TmkAdaptive).report;
    assert!(ad.messages <= base.messages);
    let pol = ad.policy.as_ref().expect("adaptive policy report");
    assert!(pol.epochs > 0);
    assert!(
        pol.promotions > 0,
        "stable stretches between remaps must be learned"
    );
}

#[test]
fn quiesce_saves_the_final_barrier_prefetch_on_identical_epochs() {
    // A static cell is the "identical epochs" regime: the same page set
    // is invalidated and re-read every iteration, so the adaptive picks
    // are literally the same set each barrier. Probes are pushed out of
    // range so the pick stream is perfectly identical, isolating the
    // quiesce heuristic.
    let mut cfg = tiny(Structure::Uniform, Dynamics::Static);
    cfg.iters = 12;
    cfg.adapt.probe_every = 64;
    let mut eager_cfg = cfg.clone();
    eager_cfg.adapt.quiesce_after = 0; // PR 2 behavior: always eager
    let quiet_cell = Prepared::new(cfg);
    let (seq, _) = quiet_cell.run(Variant::Seq, simnet::SimTime::ZERO);
    let (eager, xe) = Prepared::new(eager_cfg).run(Variant::TmkAdaptive, seq.time);
    let (quiet, xq) = quiet_cell.run(Variant::TmkAdaptive, seq.time);

    assert_eq!(xq, xe, "quiesce must not change results");
    let pe = eager.policy.as_ref().expect("policy report");
    let pq = quiet.policy.as_ref().expect("policy report");
    assert_eq!(pe.deferred_plans, 0, "quiesce_after: 0 never defers");
    assert_eq!(pe.quiesced_plans, 0);
    assert!(pq.deferred_plans > 0, "identical epochs must defer");
    assert!(
        pq.quiesced_plans > 0,
        "the final-barrier plans must go untriggered"
    );
    // Zero final-barrier prefetch messages, in counter form: every
    // exchange the eager policy issued either still fires (triggered by
    // the epoch's first touch) or quiesces — and the quiesced ones are
    // exactly the final-barrier waste, so the totals drop.
    assert_eq!(
        pq.prefetch_rounds + pq.quiesced_plans,
        pe.prefetch_rounds,
        "deferred rounds must fire or quiesce, never duplicate"
    );
    assert!(
        quiet.messages < eager.messages,
        "quiesce {} !< eager {}",
        quiet.messages,
        eager.messages
    );
}

#[test]
fn alternating_two_phase_cell_quiesces_per_phase() {
    // The two-phase multi-barrier regime in isolation: iterations
    // alternate between two lists, the kernel tags its barriers by
    // parity, and each parity's picks are identical epoch over epoch —
    // so both phases build streaks, defer their steady plans, and the
    // final plans die untriggered. A globally-keyed streak provably
    // never fires here (consecutive barrier picks always differ — the
    // pinned contrast lives in crates/adapt/tests/phase_keyed.rs).
    let mut cfg = tiny(Structure::Uniform, Dynamics::Alternating);
    cfg.iters = 16; // 8 epochs per parity: promote, streak, quiesce
    let m = run_matrix(&Prepared::new(cfg));
    let base = &m.get(Variant::TmkBase).report;
    let ad = &m.get(Variant::TmkAdaptive).report;
    assert!(ad.messages <= base.messages);
    let pol = ad.policy.as_ref().expect("adaptive policy report");
    assert!(pol.deferred_plans > 0, "per-parity streaks must defer");
    assert!(
        pol.quiesced_plans > 0,
        "the final plans must die untriggered"
    );
    // The breakdown shows *both* parity phases of the iteration barrier
    // participated in the deferral (phase tags 2 and 3 = PHASE_ITER +
    // parity).
    let deferring: Vec<u32> = pol
        .per_phase
        .iter()
        .filter(|r| r.deferred_plans > 0)
        .map(|r| r.phase)
        .collect();
    assert!(
        deferring.contains(&synth::PHASE_ITER) && deferring.contains(&(synth::PHASE_ITER + 1)),
        "both parities must build streaks, got {deferring:?}"
    );
}

#[test]
fn push_beats_prefetch_on_every_dynamics() {
    // Update-push halves each predicted exchange, so wherever the
    // predictor is active at all, push-mode messages sit strictly below
    // pull-mode's — and the results stay bitwise identical (checked by
    // run_matrix across all six variants elsewhere; here we pin the
    // count ordering per dynamics).
    for dynamics in [
        Dynamics::Static,
        Dynamics::PeriodicRemap { period: 3 },
        Dynamics::MultiPeriodic { p1: 3, p2: 5 },
    ] {
        let m = run_matrix(&Prepared::new(tiny(Structure::Uniform, dynamics.clone())));
        let ad = &m.get(Variant::TmkAdaptive).report;
        let push = &m.get(Variant::TmkPush).report;
        assert!(
            push.messages < ad.messages,
            "{:?}: push {} !< adaptive {}",
            dynamics,
            push.messages,
            ad.messages
        );
        let pol = push.policy.as_ref().expect("push policy report");
        assert!(pol.push_rounds > 0);
        assert_eq!(pol.prefetch_rounds, 0, "push mode never pulls");
    }
}

#[test]
fn deterministic_across_runs() {
    let cfg = tiny(Structure::Uniform, Dynamics::PeriodicRemap { period: 3 });
    let m1 = run_matrix(&Prepared::new(cfg.clone()));
    let m2 = run_matrix(&Prepared::new(cfg));
    for v in Variant::ALL {
        let (a, b) = (m1.get(v), m2.get(v));
        assert_eq!(a.x, b.x, "{v:?} state");
        assert_eq!(a.report.messages, b.report.messages, "{v:?} messages");
        assert_eq!(a.report.bytes, b.report.bytes, "{v:?} bytes");
        assert_eq!(a.report.time, b.report.time, "{v:?} time");
    }
}

#[test]
fn static_scenarios_reward_chaos_across_structures() {
    // The paper's prediction, generalized beyond nbf: on any static
    // indirection structure, CHAOS's amortized inspector + schedule-
    // driven transfers beat demand paging.
    for structure in [
        Structure::Uniform,
        Structure::PowerLaw { alpha: 2.0 },
        Structure::Banded { width: 32 },
    ] {
        let m = run_matrix(&Prepared::new(tiny(structure.clone(), Dynamics::Static)));
        let base = &m.get(Variant::TmkBase).report;
        let chaos = &m.get(Variant::Chaos).report;
        assert!(
            chaos.messages < base.messages && chaos.time < base.time,
            "{:?}: CHAOS must win on static indirection (msgs {} vs {}, t {:?} vs {:?})",
            structure,
            chaos.messages,
            base.messages,
            chaos.time,
            base.time
        );
    }
}
