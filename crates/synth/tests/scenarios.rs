//! Scenario-level integration tests: the six-variant bitwise contract
//! and the protocol-shape claims, on representative grid cells (the
//! full grid sweep lives in `bench`'s `table_synth`), plus the golden
//! message/byte counts of the quick grid's six churn cells, the
//! adaptive builds' policy reports on the first of them, and the
//! `TmkOpt` counts and Validate scan time of its eighteen steady
//! 4-processor cells.

use apps::workload::{run_matrix, run_variants, Variant, Workload};
use synth::{scenario_grid, Dynamics, Prepared, Structure, SynthConfig};

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
    // are literally the same set each barrier. The push build of the
    // same cell runs the same predictor and never defers, so its push
    // rounds count every plan the pull build armed.
    let mut cfg = tiny(Structure::Uniform, Dynamics::Static);
    cfg.iters = 12;
    let cell = Prepared::new(cfg);
    let (seq, _) = cell.run(Variant::Seq, simnet::SimTime::ZERO);
    let (push, xp) = cell.run(Variant::TmkPush, seq.time);
    let (quiet, xq) = cell.run(Variant::TmkAdaptive, seq.time);

    assert_eq!(xq, xp, "quiesce must not change results");
    let pp = push.policy.as_ref().expect("policy report");
    let pq = quiet.policy.as_ref().expect("policy report");
    assert_eq!(pp.deferred_plans, 0, "push mode never defers");
    assert!(pq.deferred_plans > 0, "identical epochs must defer");
    assert!(
        pq.quiesced_plans > 0,
        "the final-barrier plans must go untriggered"
    );
    // Zero final-barrier prefetch messages, in counter form: every plan
    // the eager push build issued either still fires in the pull build
    // (triggered by the epoch's first touch) or quiesces — and the
    // quiesced ones are exactly the final-barrier waste.
    assert_eq!(
        pq.prefetch_rounds + pq.quiesced_plans,
        pp.push_rounds,
        "deferred rounds must fire or quiesce, never duplicate"
    );
    assert_eq!(
        (pq.prefetch_rounds, pq.deferred_plans, pq.quiesced_plans),
        (32, 28, 4)
    );
    assert_eq!(quiet.messages, 632);
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

/// The quick grid's churn cells (mid-run regime shifts and partition
/// rebalances), in grid order.
fn churn_cells() -> Vec<SynthConfig> {
    let churn: Vec<_> = scenario_grid(true)
        .into_iter()
        .filter(|cfg| cfg.dynamics.is_churn())
        .collect();
    assert_eq!(
        churn.len(),
        6,
        "the grid's churn axis is six cells (3 regime shifts, 1 multi-periodic \
         shift, 2 rebalances)"
    );
    churn
}

/// `(label, messages, bytes)`, the two arrays per parallel variant in
/// [`Variant::PARALLEL`] order: Tmk base, Tmk optimized, Tmk adaptive,
/// Tmk push, CHAOS.
type ChurnGolden = (&'static str, [u64; 5], [u64; 5]);

/// What a mid-run regime break, rebalance, or multi-periodic shift
/// costs each variant on the quick grid — counted in-simulation, so
/// exact. The message rows are the ones the retired benchmark snapshot
/// gated; the byte rows were captured from the same build. A protocol
/// change that legitimately moves a row updates it here, in the same
/// commit, and says why. `banded128/rebal5/p4`'s `TmkOpt` row fell from
/// 210 messages and 70 764 bytes when `Validate` lost its incremental
/// rescan: after the re-cut, that rescan's page set was stale (it kept
/// the share of indirection pages that had left the section and skipped
/// the entries on pages that had entered it).
const CHURN_GOLDEN: [ChurnGolden; 6] = [
    (
        "uniform/shift5:static>remap3/p4",
        [1080, 336, 524, 456, 222],
        [288_296, 261_308, 283_848, 260_636, 219_740],
    ),
    (
        "powerlaw2/shift5:remap3>static/p4",
        [1016, 320, 512, 440, 210],
        [264_608, 257_972, 260_576, 256_928, 199_584],
    ),
    (
        "banded128/shift5:static>static/p4",
        [304, 196, 220, 184, 132],
        [69_948, 68_740, 69_276, 68_076, 44_132],
    ),
    (
        "uniform/shift5:multi3x5>remap2/p4",
        [1082, 338, 526, 458, 234],
        [289_396, 262_540, 284_948, 261_748, 230_268],
    ),
    (
        "uniform/rebal5/p4",
        [1024, 312, 534, 475, 201],
        [270_388, 255_672, 266_468, 266_232, 195_912],
    ),
    (
        "banded128/rebal5/p4",
        [326, 200, 284, 272, 135],
        [77_492, 70_684, 87_796, 98_464, 49_412],
    ),
];

#[test]
fn churn_cells_reproduce_golden_counts() {
    for (cfg, (label, messages, bytes)) in churn_cells().into_iter().zip(CHURN_GOLDEN) {
        assert_eq!(cfg.label(), label, "the grid's churn cells moved");
        let m = run_matrix(&Prepared::new(cfg)); // asserts 6-way bitwise
        let got = Variant::PARALLEL.map(|v| &m.get(v).report);
        assert_eq!(got.map(|r| r.messages), messages, "{label}: messages moved");
        assert_eq!(got.map(|r| r.bytes), bytes, "{label}: bytes moved");
    }
}

/// `(label, messages, bytes, time ns, validate_scan ns)` of the `TmkOpt`
/// build on each of the quick grid's eighteen steady 4-processor cells,
/// in grid order — the cells the benchmark's `steady4` workload serves.
/// The scan column is `RunReport::validate_scan_s` (per processor,
/// averaged) rounded to the nanosecond. Captured before `Read_indices`
/// became a single walk over the section: the drift and alternating
/// cells rescan on most iterations, so a scan rewrite that charges one
/// entry more or less, or reorders a fault, moves a row here. Deleting
/// the incremental rescan moved the scan column of the twelve remapping,
/// multi-periodic, alternating and drift rows it had wrongly shortened,
/// and the time column of six of them (+118 800 ns together); no message
/// or byte count moved.
#[rustfmt::skip]
const OPT_GOLDEN: [(&str, u64, u64, u64, u64); 18] = [
    ("uniform/static/p4", 306, 254_496, 357_112_200, 917_400),
    ("uniform/remap3/p4", 330, 260_564, 376_544_160, 3_672_900),
    ("uniform/remap5/p4", 336, 261_196, 358_789_560, 1_837_200),
    ("uniform/drift25/p4", 392, 271_672, 426_801_280, 9_189_000),
    ("uniform/multi3x5/p4", 396, 273_716, 392_753_680, 4_595_100),
    ("uniform/alt2/p4", 378, 270_612, 423_723_960, 9_180_000),
    ("powerlaw2/static/p4", 308, 255_056, 504_808_320, 915_300),
    ("powerlaw2/remap3/p4", 326, 259_448, 522_228_720, 3_654_900),
    ("powerlaw2/remap5/p4", 316, 257_084, 512_095_240, 1_833_000),
    ("powerlaw2/drift25/p4", 396, 270_824, 590_614_440, 9_153_000),
    ("powerlaw2/multi3x5/p4", 342, 262_688, 540_967_000, 4_577_700),
    ("powerlaw2/alt2/p4", 398, 272_244, 592_600_120, 9_159_000),
    ("banded128/static/p4", 190, 67_264, 358_756_200, 907_800),
    ("banded128/remap3/p4", 208, 71_608, 390_456_200, 3_631_500),
    ("banded128/remap5/p4", 196, 68_728, 391_106_800, 1_821_600),
    ("banded128/drift25/p4", 244, 80_284, 437_776_000, 9_110_400),
    ("banded128/multi3x5/p4", 214, 73_048, 397_299_600, 4_553_700),
    ("banded128/alt2/p4", 244, 80_248, 443_210_800, 9_091_500),
];

#[test]
fn steady_cells_reproduce_opt_golden_counts() {
    let steady = scenario_grid(true)
        .into_iter()
        .filter(|cfg| cfg.nprocs == 4 && !cfg.dynamics.is_churn());
    let mut cells = 0;
    for (cfg, (label, messages, bytes, time, scan)) in steady.zip(OPT_GOLDEN) {
        assert_eq!(cfg.label(), label, "the grid's steady cells moved");
        let (r, _) = Prepared::new(cfg).run(Variant::TmkOpt, simnet::SimTime::ZERO);
        let got_scan = (r.validate_scan_s * 1e9).round() as u64;
        assert_eq!(
            (r.messages, r.bytes, r.time.as_ns(), got_scan),
            (messages, bytes, time, scan),
            "{label}: TmkOpt (messages, bytes, time, scan) moved"
        );
        cells += 1;
    }
    assert_eq!(
        cells,
        OPT_GOLDEN.len(),
        "the grid has 18 steady 4-proc cells"
    );
}

/// The first churn cell's full `PolicyReport` under the adaptive and
/// push builds, in `apps/tests/golden_counts.rs`'s `POLICY_GOLDEN` form
/// (twelve totals in field order, then `[phase, nine counters]` rows) —
/// the cell that adds probes to what the moldyn/nbf rows there pin.
/// Captured from the build before `dsm` became the only writer of
/// `PolicyStats`.
const CHURN_POLICY_GOLDEN: [(Variant, [u64; 12], [[u64; 10]; 3]); 2] = [
    (
        Variant::TmkAdaptive,
        [60, 29, 337, 0, 0, 20, 0, 0, 0, 49, 0, 48],
        [
            [0, 8, 0, 0, 0, 0, 0, 0, 0, 0],
            [2, 40, 28, 336, 0, 0, 20, 0, 0, 0],
            [4, 12, 1, 1, 0, 0, 0, 0, 0, 0],
        ],
    ),
    (
        Variant::TmkPush,
        [60, 0, 0, 29, 337, 0, 0, 0, 13, 49, 0, 48],
        [
            [0, 8, 0, 0, 0, 0, 0, 0, 0, 0],
            [2, 40, 0, 0, 28, 336, 0, 0, 0, 12],
            [4, 12, 0, 0, 1, 1, 0, 0, 0, 1],
        ],
    ),
];

#[test]
fn first_churn_cell_policy_reports_are_pinned() {
    let cell = Prepared::new(churn_cells().swap_remove(0));
    let m = run_variants(&cell, &CHURN_POLICY_GOLDEN.map(|(v, ..)| v));
    for (v, totals, per_phase) in CHURN_POLICY_GOLDEN {
        let r = m.get(v).report.policy.as_ref().expect("policy report");
        let got_totals = [
            r.epochs,
            r.prefetch_rounds,
            r.prefetch_pages,
            r.push_rounds,
            r.push_pages,
            r.deferred_plans,
            r.quiesced_plans,
            r.quiesced_pages,
            r.subscriptions,
            r.promotions,
            r.demotions,
            r.probes,
        ];
        let got_phases: Vec<[u64; 10]> = r
            .per_phase
            .iter()
            .map(|p| {
                [
                    u64::from(p.phase),
                    p.epochs,
                    p.prefetch_rounds,
                    p.prefetch_pages,
                    p.push_rounds,
                    p.push_pages,
                    p.deferred_plans,
                    p.quiesced_plans,
                    p.quiesced_pages,
                    p.subscriptions,
                ]
            })
            .collect();
        assert_eq!(
            (got_totals, got_phases),
            (totals, per_phase.to_vec()),
            "{v:?}: policy report moved"
        );
    }
}
