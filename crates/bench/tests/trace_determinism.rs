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
//! 3. **Pinned fault order on the applications** — the golden counts
//!    survive a reordering of faults, trace bytes do not, so the Tmk
//!    builds of moldyn, nbf and umesh, and of the relaxation kernel on
//!    four synth cells, have their trace digests pinned.
//!
//! Soak runs raise the proptest case count with `PROPTEST_CASES`;
//! failing draws replay via `PROPTEST_TEST`/`PROPTEST_SEED`.

use std::sync::Arc;

use apps::moldyn::MoldynConfig;
use apps::nbf::NbfConfig;
use apps::umesh::UmeshConfig;
use apps::workload::{run_matrix, MoldynWorkload, NbfWorkload, UmeshWorkload};
use apps::{Variant, Workload};
use proptest::prelude::*;
use simnet::SimTime;
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
    let cfg = cell(
        Structure::Uniform,
        Dynamics::PeriodicRemap { period: 3 },
        8,
        42,
    );
    let a = traced_json(&cfg);
    let b = traced_json(&cfg);
    assert!(json_well_formed(&a), "trace JSON malformed");
    assert!(
        a.len() > 1024,
        "trace suspiciously empty ({} bytes)",
        a.len()
    );
    assert_eq!(
        a, b,
        "same seed, two passes: trace JSON must be byte-identical"
    );
}

/// FNV-1a 64 over the bytes of `s`.
fn fnv1a(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// One variant of `w` under a sink that drops nothing, as Chrome trace
/// JSON.
fn app_trace(w: &dyn Workload, nprocs: usize, v: Variant) -> String {
    let tracer = Arc::new(Tracer::new(nprocs, 1 << 16));
    let _ = with_trace_sink(tracer.clone(), || w.run(v, SimTime::ZERO));
    let trace = tracer.capture();
    assert_eq!(
        trace.dropped(),
        0,
        "{} {v:?}: the sink dropped events",
        w.label()
    );
    chrome_trace_json(&trace)
}

/// Run each `(workload, nprocs, variant, digest)` and name every run
/// whose trace digest moved.
fn assert_digests<'w>(golden: impl IntoIterator<Item = (&'w dyn Workload, usize, Variant, u64)>) {
    let mut moved = Vec::new();
    for (w, nprocs, v, pinned) in golden {
        let digest = fnv1a(&app_trace(w, nprocs, v));
        if digest != pinned {
            moved.push(format!(
                "{} {v:?}: {digest:#018x} (pinned {pinned:#018x})",
                w.label()
            ));
        }
    }
    assert!(
        moved.is_empty(),
        "trace digests moved:\n{}",
        moved.join("\n")
    );
}

/// Every fault, fetch, twin, message and barrier of the Tmk builds of
/// moldyn and nbf (base, optimized, adaptive, push) and of umesh (base), in
/// order and with its virtual timestamp: a change to how the kernels
/// touch shared memory that moves one fault moves a digest.
#[test]
fn app_trace_digests_are_pinned() {
    let moldyn = MoldynWorkload::new(MoldynConfig::small());
    let nbf = NbfWorkload::new(NbfConfig::small());
    let umesh = UmeshWorkload::new(UmeshConfig::small());
    let (base, opt, adaptive) = (Variant::TmkBase, Variant::TmkOpt, Variant::TmkAdaptive);
    let push = Variant::TmkPush;
    let golden: [(&dyn Workload, usize, Variant, u64); 9] = [
        (&moldyn, moldyn.cfg.nprocs, base, 0x9e32_edc4_2f12_e578),
        (&moldyn, moldyn.cfg.nprocs, opt, 0xe49a_e41d_be03_8ed7),
        (&moldyn, moldyn.cfg.nprocs, adaptive, 0x4e19_9a46_5034_169d),
        (&moldyn, moldyn.cfg.nprocs, push, 0xcd13_c9f6_5db5_25e4),
        (&nbf, nbf.cfg.nprocs, base, 0x3369_7697_efdd_dea4),
        (&nbf, nbf.cfg.nprocs, opt, 0xc20e_dab2_ea7b_b676),
        (&nbf, nbf.cfg.nprocs, adaptive, 0x4621_82e6_ef16_f84b),
        (&nbf, nbf.cfg.nprocs, push, 0x5506_e3f2_08f1_3d02),
        (&umesh, umesh.cfg.nprocs, base, 0x8748_64be_4be6_7b51),
    ];
    assert_digests(golden);
}

/// The Tmk builds of the relaxation kernel (`apps::relax`) on umesh and
/// on synth cells of [`cell`]'s sizing. Small pages keep the page runs
/// of the shared pair list short, so a change to how the kernel writes
/// or reads its section moves a fault across a run boundary and a
/// digest with it: the static cells write the list once, at init; the
/// remap cell rewrites it inside the loop; the rebalance cell re-cuts
/// every owned range mid-run; and the 64-processor cell gives each rank
/// a section of a page or two.
#[test]
fn relax_trace_digests_are_pinned() {
    let umesh = UmeshWorkload::new(UmeshConfig::small());
    let (static_, remap) = (Dynamics::Static, Dynamics::PeriodicRemap { period: 2 });
    let rebalance = Dynamics::Rebalance { at: 1 };
    let cells = [
        cell(Structure::Uniform, static_.clone(), 4, 7),
        cell(Structure::Uniform, remap, 4, 7),
        cell(Structure::Banded { width: 16 }, rebalance, 4, 7),
        cell(Structure::Uniform, static_, 64, 7),
    ];
    let prepared: Vec<_> = cells.iter().cloned().map(Prepared::new).collect();
    let mut golden: Vec<(&dyn Workload, usize, Variant, u64)> = vec![
        (
            &umesh,
            umesh.cfg.nprocs,
            Variant::TmkOpt,
            0x4e98_ee8a_23e9_b836,
        ),
        (
            &umesh,
            umesh.cfg.nprocs,
            Variant::TmkAdaptive,
            0xada3_1a4d_6100_af3b,
        ),
        (
            &umesh,
            umesh.cfg.nprocs,
            Variant::TmkPush,
            0x3f90_8c88_45c2_4461,
        ),
    ];
    // Per cell, in `Variant::TMK` order (base, optimized, adaptive,
    // push). Two or three iterations leave the adaptive engine nothing
    // to promote on the rebalance and 64-processor cells, so there its
    // builds trace exactly as the base build does.
    let pins: [[u64; 4]; 4] = [
        [
            0x689d_d59e_46eb_4ab9,
            0x88e4_68fc_4e88_71b2,
            0x7f92_5b14_7e8d_6329,
            0x7aac_5b20_f37d_f8bf,
        ],
        [
            0x0751_19ce_ee7b_109f,
            0x7bb0_b861_c2fd_3ba3,
            0x698f_d7b3_5172_612e,
            0xfd68_3c35_89df_943f,
        ],
        [
            0x5d1a_0c33_ed82_e57a,
            0x56dd_4c8d_7876_6aca,
            0x5d1a_0c33_ed82_e57a,
            0x5d1a_0c33_ed82_e57a,
        ],
        [
            0xe1e8_501b_21cd_5935,
            0x515c_2941_0534_53a0,
            0xe1e8_501b_21cd_5935,
            0xe1e8_501b_21cd_5935,
        ],
    ];
    for ((cfg, w), row) in cells.iter().zip(&prepared).zip(pins) {
        for (v, pinned) in Variant::TMK.into_iter().zip(row) {
            golden.push((w, cfg.nprocs, v, pinned));
        }
    }
    assert_digests(golden);
}

/// The base build of the benchmark's own moldyn cell (`apps_quick`'s:
/// table1 `--quick` sizing, 2048 molecules on 4 KiB pages, rebuilt every
/// 15 steps, 8 processors). Its 24-byte triples straddle pages, which
/// `MoldynConfig::small`'s 1 KiB pages also do, but here every processor
/// reads hundreds of remote triples per step.
#[test]
fn moldyn_benchmark_cell_trace_digest_is_pinned() {
    let mut cfg = MoldynConfig::paper(15);
    cfg.n = 2048;
    cfg.cutoff_frac = 0.2;
    let moldyn = MoldynWorkload::new(cfg);
    let digest = fnv1a(&app_trace(&moldyn, moldyn.cfg.nprocs, Variant::TmkBase));
    assert_eq!(
        digest,
        0x144a_8aea_937c_dc14,
        "{}: trace digest moved: {digest:#018x}",
        moldyn.label()
    );
}

/// The conservation identity on deterministic pinned cells, including
/// the 64-processor sparse-clock regime. Checked both through
/// [`check_conservation`] and by summing the rows by hand, so a bug in
/// the checker itself cannot vacuously pass.
#[test]
fn stall_categories_sum_to_final_clock_on_pinned_cells() {
    for &nprocs in &[4usize, 8, 64] {
        let cfg = cell(
            Structure::Banded { width: 16 },
            Dynamics::Alternating,
            nprocs,
            7,
        );
        let m = run_matrix(&Prepared::new(cfg));
        let mut checked = 0;
        for run in &m.runs {
            let Some(net) = &run.report.net else { continue };
            check_conservation(net)
                .unwrap_or_else(|e| panic!("{} p{nprocs} {:?}: {e}", m.label, run.variant));
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
        assert!(
            checked >= 5,
            "only {checked} variants carried stall rows at p{nprocs}"
        );
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
