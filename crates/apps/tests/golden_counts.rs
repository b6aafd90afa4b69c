//! Golden message/byte counts of the three classic applications at test
//! scale, asserted **through the `Workload` trait harness**. The numbers
//! were captured from the pre-refactor per-app harnesses (PR 2 state);
//! the trait runner must reproduce them exactly — the refactor moved
//! report bookkeeping only, never protocol behavior. The simulation is
//! deterministic, so these are equalities, not tolerances.
//!
//! PR 4 added the update-push variant (`TmkPush`): the same adaptive
//! predictor with each predicted exchange a single one-way writer push
//! instead of a request/reply pair, so its rows sit strictly below the
//! pull-mode adaptive rows on both messages and bytes.
//!
//! PR 5 keyed the adaptive engine by **barrier phase** and added the
//! explicit **push-subscription cost model**, which legitimately shifts
//! exactly the `TmkAdaptive` and `TmkPush` rows (the protocol layers
//! with a policy in the loop) and nothing else:
//!
//! * `TmkAdaptive`: per-(page, phase) event axes move a handful of
//!   learning-transient predictions at this tiny scale (moldyn
//!   990 → 974: the phase-clean axes predict slightly better across its
//!   rebuilds; nbf 576 → 580: the 4-step run ends inside the learning
//!   transient, one exchange lands differently; umesh is single-phase
//!   and stays exactly 218). The quiesce streak (the phase-keyed win)
//!   needs more epochs than these configs run — the quick-scale
//!   `table_adapt` asserts it fires there.
//! * `TmkPush`: same prediction shifts, plus the one-way `AdaptSub`
//!   subscription messages that PR 4 modeled as free riding (umesh
//!   194 → 206 is exactly its 12 subscription messages; moldyn and nbf
//!   add their prediction shifts on top).
//!
//! PR 6 flattened the O(nprocs) metadata layers (sparse delta clocks on
//! the wire, the flat barrier notice digest, page-indexed stores) for
//! 64–256-processor runs. At these 4/8-processor scales every clock
//! still travels in the dense encoding — billed exactly as before by
//! construction — so **every row here stays byte-identical**; the
//! sparse regime is covered by the `nprocs ∈ {16, 64}` properties in
//! `synth/tests/properties.rs` and the `table_synth` scale cells.
//!
//! The churn axis (mid-run regime breaks and partition rebalances)
//! changes **no row** here — asserted first, before anything
//! churn-specific: the break detector demotes a page on its first
//! clean probe, the demotion these rows always had; and the rebalance
//! machinery only engages on `Dynamics::Rebalance` scenarios, which no
//! classic app uses. A diff in any row below means churn machinery
//! leaked into the steady-state path.
//!
//! PR 15 retired the committed benchmark snapshot; the one exact
//! section of it that nothing else asserted — where the adaptive
//! build's processors spend their *simulated* time on moldyn and nbf —
//! is pinned here beside each app's count table, as the cluster-wide
//! sum of the per-processor stall rows (clock + nine categories, in
//! nanoseconds, values unchanged from the snapshot).
//!
//! PR 23 made the adaptive engine's `EpochDecision` the one record of
//! what it decided (`dsm` counts and traces it; the policy holds no
//! counters and no log). `POLICY_GOLDEN` below pins every
//! [`PolicyReport`] field of the adaptive and push builds on moldyn and
//! nbf, captured from the build before that refactor.
//!
//! Each app's `TmkOpt` row also pins its simulated `Validate` scan time
//! (`RunReport::validate_scan_s`, in nanoseconds), captured before
//! `Read_indices` became a single walk over the section: a faster scan
//! on the host must charge the simulation exactly the same entries.
//!
//! umesh additionally pins every variant's simulated `time`, its
//! adaptive and push builds' `PolicyReport`s and its adaptive stall
//! total, captured before umesh's own seq / Tmk / CHAOS runners were
//! replaced by the owner-side relaxation kernel synth's cells run: the
//! move must reproduce umesh to the nanosecond, not only its counts.
//!
//! If a *protocol* change legitimately shifts these numbers, update the
//! table below in the same commit and say why in its message.

use apps::moldyn::MoldynConfig;
use apps::nbf::NbfConfig;
use apps::umesh::UmeshConfig;
use apps::workload::{
    run_matrix, run_variants, MoldynWorkload, NbfWorkload, UmeshWorkload, Variant, Workload,
};
use simnet::{PolicyReport, StallCat, StallRow};

/// `(variant, messages, bytes)` — the four classic rows captured from
/// the direct per-app calls before the `Workload` refactor, plus the
/// update-push row captured when the variant was introduced (PR 4).
type Golden = [(Variant, u64, u64); 5];

/// `opt_scan_ns` pins the `TmkOpt` row's `validate_scan_s` — simulated
/// `Read_indices` time per processor, averaged, rounded to the
/// nanosecond — so a rewrite of the scan must charge exactly the same
/// entries.
fn assert_golden(w: &dyn Workload, golden: &Golden, opt_scan_ns: u64) {
    let m = run_matrix(w);
    for &(v, messages, bytes) in golden {
        let r = &m.get(v).report;
        assert_eq!(
            (r.messages, r.bytes),
            (messages, bytes),
            "{} {:?}: pre-refactor counts not reproduced",
            m.label,
            v
        );
    }
    let scan = m.get(Variant::TmkOpt).report.validate_scan_s;
    assert_eq!(
        (scan * 1e9).round() as u64,
        opt_scan_ns,
        "{}: TmkOpt Validate scan time moved",
        m.label
    );
}

/// Variant `v`'s per-processor stall rows, summed over the cluster,
/// must equal `clock` and `cats` exactly (categories not listed must be
/// zero) — and each row must conserve (categories sum to the clock), so
/// the pinned total cannot be met by two errors cancelling across
/// processors.
fn assert_stall_total(w: &dyn Workload, v: Variant, clock: u64, cats: &[(StallCat, u64)]) {
    let mut want = StallRow {
        clock,
        ..StallRow::default()
    };
    for &(cat, ns) in cats {
        want.cats[cat as usize] = ns;
    }
    let m = run_variants(w, &[v]);
    let net = m.get(v).report.net.as_ref();
    let net = net.expect("a parallel build carries a net report");
    let mut total = StallRow::default();
    for (p, row) in net.stalls.iter().enumerate() {
        assert_eq!(
            row.total(),
            row.clock,
            "{} proc {p}: stall row does not conserve",
            m.label
        );
        total.merge(row);
    }
    assert_eq!(total, want, "{} {v:?}: stall attribution moved", m.label);
}

#[test]
fn moldyn_small_reproduces_pre_refactor_counts() {
    assert_golden(
        &MoldynWorkload::new(MoldynConfig::small()),
        &[
            (Variant::TmkBase, 1250, 617_796),
            (Variant::TmkOpt, 414, 338_596),
            (Variant::TmkAdaptive, 974, 655_284),
            (Variant::TmkPush, 930, 704_048),
            (Variant::Chaos, 180, 167_120),
        ],
        3_100_050,
    );
}

#[test]
fn moldyn_small_adaptive_stall_total_is_pinned() {
    // Barrier wait is moldyn's largest bucket (346 of 1143 ms).
    assert_stall_total(
        &MoldynWorkload::new(MoldynConfig::small()),
        Variant::TmkAdaptive,
        1_143_093_312,
        &[
            (StallCat::Compute, 335_239_512),
            (StallCat::FaultStall, 323_365_520),
            (StallCat::BarrierWait, 346_118_360),
            (StallCat::PrefetchPush, 79_719_920),
            (StallCat::Handler, 58_650_000),
        ],
    );
}

#[test]
fn nbf_small_reproduces_pre_refactor_counts() {
    assert_golden(
        &NbfWorkload::new(NbfConfig::small()),
        &[
            (Variant::TmkBase, 624, 326_016),
            (Variant::TmkOpt, 240, 150_816),
            (Variant::TmkAdaptive, 580, 389_696),
            (Variant::TmkPush, 568, 388_600),
            (Variant::Chaos, 96, 129_216),
        ],
        921_600,
    );
}

#[test]
fn nbf_small_adaptive_stall_total_is_pinned() {
    assert_stall_total(
        &NbfWorkload::new(NbfConfig::small()),
        Variant::TmkAdaptive,
        405_916_224,
        &[
            (StallCat::Compute, 44_427_264),
            (StallCat::FaultStall, 187_292_160),
            (StallCat::BarrierWait, 95_322_400),
            (StallCat::PrefetchPush, 42_574_400),
            (StallCat::Handler, 36_300_000),
        ],
    );
}

/// The CHAOS builds' simulated time, and moldyn's CHAOS stall total.
/// moldyn's coordinate triples go through the same `chaos::gather` /
/// `scatter_add` as nbf's scalars (width 3 against width 1), so its
/// executor bills the `Exchange` category and unpacks the bytes it
/// received, not the bytes it sent.
#[test]
fn moldyn_and_nbf_small_chaos_times_are_pinned() {
    let moldyn = MoldynWorkload::new(MoldynConfig::small());
    let nbf = NbfWorkload::new(NbfConfig::small());
    for (w, ns) in [(&moldyn as &dyn Workload, 189_664_650), (&nbf, 27_159_232)] {
        let m = run_variants(w, &[Variant::Chaos]);
        let time = m.get(Variant::Chaos).report.time.as_ns();
        assert_eq!(time, ns, "{} CHAOS: simulated time moved", m.label);
    }
    assert_stall_total(
        &moldyn,
        Variant::Chaos,
        758_658_600,
        &[
            (StallCat::Compute, 342_487_800),
            (StallCat::BarrierWait, 50_052_352),
            (StallCat::Inspector, 218_613_350),
            (StallCat::Exchange, 147_505_098),
        ],
    );
}

/// FNV-1a 64 over each value's `to_bits().to_le_bytes()`, in order: a
/// digest of a run's final state, bit for bit.
fn digest(x: &[f64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in x.iter().flat_map(|v| v.to_bits().to_le_bytes()) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// `(variant, simulated ns, final-state digest)` for every variant.
type TimeGolden = [(Variant, u64, u64); 6];

fn assert_times_and_bits(w: &dyn Workload, golden: &TimeGolden) {
    let m = run_matrix(w);
    for &(v, ns, bits) in golden {
        let r = m.get(v);
        assert_eq!(
            r.report.time.as_ns(),
            ns,
            "{} {v:?}: simulated time moved",
            m.label
        );
        assert_eq!(digest(&r.x), bits, "{} {v:?}: final state moved", m.label);
    }
}

/// Every variant's simulated time and final-state bits on moldyn and
/// nbf, captured before both apps' runners became one pair-force
/// kernel: the move must reproduce each run to the nanosecond and the
/// bit. On nbf the pipelined Tmk reduction reassociates the sequential
/// sums, so seq has a digest of its own; CHAOS's scatter reduces in the
/// pipeline's order, so CHAOS shares the Tmk builds' digest (it had a
/// third one before `chaos::scatter_add` replayed that order).
#[test]
fn moldyn_and_nbf_small_times_and_result_bits_are_pinned() {
    assert_times_and_bits(
        &MoldynWorkload::new(MoldynConfig::small()),
        &[
            (Variant::Seq, 335_018_328, 0x3eb7_a695_9cc7_273a),
            (Variant::TmkBase, 332_472_888, 0x3eb7_a695_9cc7_273a),
            (Variant::TmkOpt, 185_969_688, 0x3eb7_a695_9cc7_273a),
            (Variant::TmkAdaptive, 285_773_328, 0x3eb7_a695_9cc7_273a),
            (Variant::TmkPush, 287_187_288, 0x3eb7_a695_9cc7_273a),
            (Variant::Chaos, 189_664_650, 0x3eb7_a695_9cc7_273a),
        ],
    );
    assert_times_and_bits(
        &NbfWorkload::new(NbfConfig::small()),
        &[
            (Variant::Seq, 44_353_536, 0x2369_62e7_446f_bb90),
            (Variant::TmkBase, 110_571_216, 0xe7c8_2a9e_5113_b0a2),
            (Variant::TmkOpt, 53_395_456, 0xe7c8_2a9e_5113_b0a2),
            (Variant::TmkAdaptive, 101_505_456, 0xe7c8_2a9e_5113_b0a2),
            (Variant::TmkPush, 104_491_256, 0xe7c8_2a9e_5113_b0a2),
            (Variant::Chaos, 27_159_232, 0xe7c8_2a9e_5113_b0a2),
        ],
    );
}

#[test]
fn umesh_small_reproduces_pre_refactor_counts() {
    assert_golden(
        &UmeshWorkload::new(UmeshConfig::small()),
        &[
            (Variant::TmkBase, 218, 101_536),
            (Variant::TmkOpt, 134, 100_576),
            (Variant::TmkAdaptive, 218, 126_592),
            (Variant::TmkPush, 206, 126_112),
            (Variant::Chaos, 78, 11_344),
        ],
        624_900,
    );
}

#[test]
fn umesh_small_simulated_times_are_pinned() {
    let m = run_matrix(&UmeshWorkload::new(UmeshConfig::small()));
    for (v, ns) in [
        (Variant::Seq, 208_365_536),
        (Variant::TmkBase, 154_084_384),
        (Variant::TmkOpt, 125_589_384),
        (Variant::TmkAdaptive, 148_459_744),
        (Variant::TmkPush, 148_603_744),
        (Variant::Chaos, 118_816_832),
    ] {
        assert_eq!(
            m.get(v).report.time.as_ns(),
            ns,
            "{} {v:?}: simulated time moved",
            m.label
        );
    }
}

#[test]
fn umesh_small_adaptive_stall_total_is_pinned() {
    assert_stall_total(
        &UmeshWorkload::new(UmeshConfig::small()),
        Variant::TmkAdaptive,
        593_838_976,
        &[
            (StallCat::Compute, 416_665_536),
            (StallCat::FaultStall, 110_134_880),
            (StallCat::BarrierWait, 39_116_480),
            (StallCat::PrefetchPush, 13_822_080),
            (StallCat::Handler, 14_100_000),
        ],
    );
}

/// One adaptive build's full [`PolicyReport`], flattened: the twelve
/// whole-run totals in field order (`epochs`, `prefetch_rounds`,
/// `prefetch_pages`, `push_rounds`, `push_pages`, `deferred_plans`,
/// `quiesced_plans`, `quiesced_pages`, `subscriptions`, `promotions`,
/// `demotions`, `probes`), then one row per phase: the tag followed by
/// the same first nine counters.
type PolicyGolden = (Variant, [u64; 12], &'static [[u64; 10]]);

fn flatten(r: &PolicyReport) -> ([u64; 12], Vec<[u64; 10]>) {
    let totals = [
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
    let per_phase = r.per_phase.iter().map(|p| {
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
    });
    (totals, per_phase.collect())
}

/// Every decision counter of the adaptive and push builds, per-phase
/// rows included — moldyn's and nbf's captured from the build *before*
/// `epoch_end` became a pure function and `dsm` the only writer of
/// `PolicyStats`, umesh's before its runners moved onto the shared
/// relaxation kernel. No other
/// test compares a `PolicyReport` by equality; this table (with its
/// churn-cell sibling in `synth/tests/scenarios.rs`, which adds
/// demotions and probes) is what says the single record of the engine's
/// decisions equals the four it replaced.
const POLICY_GOLDEN: [(&str, [PolicyGolden; 2]); 3] = [
    (
        "moldyn",
        [
            (
                Variant::TmkAdaptive,
                [132, 45, 174, 0, 0, 16, 7, 26, 0, 62, 0, 0],
                &[
                    [0, 8, 0, 0, 0, 0, 0, 0, 0, 0],
                    [1, 24, 9, 42, 0, 0, 6, 3, 14, 0],
                    [2, 4, 0, 0, 0, 0, 0, 0, 0, 0],
                    [8, 24, 12, 76, 0, 0, 0, 0, 0, 0],
                    [9, 24, 9, 18, 0, 0, 3, 0, 0, 0],
                    [10, 24, 3, 6, 0, 0, 1, 0, 0, 0],
                    [11, 24, 12, 32, 0, 0, 6, 4, 12, 0],
                ],
            ),
            (
                Variant::TmkPush,
                [132, 0, 0, 52, 200, 0, 0, 0, 52, 62, 0, 0],
                &[
                    [0, 8, 0, 0, 0, 0, 0, 0, 0, 0],
                    [1, 24, 0, 0, 12, 56, 0, 0, 0, 7],
                    [2, 4, 0, 0, 0, 0, 0, 0, 0, 0],
                    [8, 24, 0, 0, 12, 76, 0, 0, 0, 21],
                    [9, 24, 0, 0, 9, 18, 0, 0, 0, 8],
                    [10, 24, 0, 0, 3, 6, 0, 0, 0, 3],
                    [11, 24, 0, 0, 16, 44, 0, 0, 0, 13],
                ],
            ),
        ],
    ),
    (
        "nbf",
        [
            (
                Variant::TmkAdaptive,
                [68, 24, 80, 0, 0, 0, 0, 0, 0, 56, 0, 0],
                &[
                    [0, 8, 0, 0, 0, 0, 0, 0, 0, 0],
                    [1, 12, 8, 48, 0, 0, 0, 0, 0, 0],
                    [8, 12, 4, 8, 0, 0, 0, 0, 0, 0],
                    [9, 12, 4, 8, 0, 0, 0, 0, 0, 0],
                    [10, 12, 4, 8, 0, 0, 0, 0, 0, 0],
                    [11, 12, 4, 8, 0, 0, 0, 0, 0, 0],
                ],
            ),
            (
                Variant::TmkPush,
                [68, 0, 0, 24, 80, 0, 0, 0, 50, 56, 0, 0],
                &[
                    [0, 8, 0, 0, 0, 0, 0, 0, 0, 0],
                    [1, 12, 0, 0, 8, 48, 0, 0, 0, 12],
                    [8, 12, 0, 0, 4, 8, 0, 0, 0, 8],
                    [9, 12, 0, 0, 4, 8, 0, 0, 0, 10],
                    [10, 12, 0, 0, 4, 8, 0, 0, 0, 10],
                    [11, 12, 0, 0, 4, 8, 0, 0, 0, 10],
                ],
            ),
        ],
    ),
    (
        "umesh",
        [
            (
                Variant::TmkAdaptive,
                [24, 8, 48, 0, 0, 0, 0, 0, 0, 24, 0, 0],
                &[
                    [0, 8, 0, 0, 0, 0, 0, 0, 0, 0],
                    [1, 16, 8, 48, 0, 0, 0, 0, 0, 0],
                ],
            ),
            (
                Variant::TmkPush,
                [24, 0, 0, 8, 48, 0, 0, 0, 12, 24, 0, 0],
                &[
                    [0, 8, 0, 0, 0, 0, 0, 0, 0, 0],
                    [1, 16, 0, 0, 8, 48, 0, 0, 0, 12],
                ],
            ),
        ],
    ),
];

fn assert_policy_golden(w: &dyn Workload, (app, rows): (&str, [PolicyGolden; 2])) {
    let m = run_variants(w, &rows.map(|(v, ..)| v));
    for (v, totals, per_phase) in rows {
        let got = m.get(v).report.policy.as_ref();
        let got = flatten(got.expect("adaptive builds carry a policy report"));
        assert_eq!(
            got,
            (totals, per_phase.to_vec()),
            "{app} {v:?}: policy report moved"
        );
    }
}

#[test]
fn moldyn_and_nbf_small_policy_reports_are_pinned() {
    assert_policy_golden(
        &MoldynWorkload::new(MoldynConfig::small()),
        POLICY_GOLDEN[0],
    );
    assert_policy_golden(&NbfWorkload::new(NbfConfig::small()), POLICY_GOLDEN[1]);
}

#[test]
fn umesh_small_policy_reports_are_pinned() {
    assert_policy_golden(&UmeshWorkload::new(UmeshConfig::small()), POLICY_GOLDEN[2]);
}
