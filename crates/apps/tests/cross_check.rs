//! Cross-variant verification: all builds of each application must
//! compute the same physics — to floating-point reordering tolerance
//! against the sequential reference (whose accumulation order the
//! pipelined reduction reassociates), and **bitwise** among the DSM
//! builds (base / optimized / adaptive / push run the same program; the
//! protocol layers only move data earlier or later). `run_variants`
//! asserts exactly that contract on every run it returns, so each test
//! here starts from a cross-checked matrix and pins the protocol-level
//! shape of the paper's comparison, which must hold even at test scale:
//! aggregation cuts messages, demand paging inflates them.

use std::sync::LazyLock;

use apps::moldyn::MoldynConfig;
use apps::nbf::NbfConfig;
use apps::umesh::UmeshConfig;
use apps::workload::{
    run_matrix, run_variants, MoldynWorkload, NbfWorkload, UmeshWorkload, Variant, Workload,
    WorkloadMatrix,
};
use apps::RunReport;

/// One app at its `small()` size with its full six-variant matrix, run
/// once and shared by the tests below.
struct Checked<W> {
    w: W,
    m: WorkloadMatrix,
}

impl<W: Workload> Checked<W> {
    fn new(w: W) -> Self {
        let m = run_matrix(&w);
        Checked { w, m }
    }

    fn report(&self, v: Variant) -> &RunReport {
        &self.m.get(v).report
    }

    /// A fresh run of `v` must reproduce the shared matrix's run of it
    /// exactly: results, traffic, simulated time, policy decisions.
    fn assert_deterministic(&self, v: Variant) {
        let first = self.m.get(v);
        let (again, x) = self.w.run(v, self.report(Variant::Seq).time);
        assert_eq!(x, first.x, "{v:?}: bitwise-identical results");
        assert_eq!(again.messages, first.report.messages, "{v:?}");
        assert_eq!(again.bytes, first.report.bytes, "{v:?}");
        assert_eq!(again.time, first.report.time, "{v:?}");
        assert_eq!(again.policy, first.report.policy, "{v:?}: decision stream");
    }
}

static MOLDYN: LazyLock<Checked<MoldynWorkload>> =
    LazyLock::new(|| Checked::new(MoldynWorkload::new(MoldynConfig::small())));
static NBF: LazyLock<Checked<NbfWorkload>> =
    LazyLock::new(|| Checked::new(NbfWorkload::new(NbfConfig::small())));
static UMESH: LazyLock<Checked<UmeshWorkload>> =
    LazyLock::new(|| Checked::new(UmeshWorkload::new(UmeshConfig::small())));

#[test]
fn moldyn_all_variants_agree_with_sequential() {
    let [base, opt, chaos] =
        [Variant::TmkBase, Variant::TmkOpt, Variant::Chaos].map(|v| MOLDYN.report(v));
    // Paper shape: aggregation cuts DSM messages well below demand paging.
    assert!(
        opt.messages < base.messages,
        "opt {} !< base {}",
        opt.messages,
        base.messages
    );
    // CHAOS schedule-driven transfers use few messages.
    assert!(chaos.messages < base.messages);
    // The optimized build is the fastest DSM build.
    assert!(opt.time < base.time);
    // Everyone actually communicated.
    assert!(base.messages > 0 && chaos.messages > 0);
}

#[test]
fn nbf_all_variants_agree_with_sequential() {
    let [base, opt, chaos] =
        [Variant::TmkBase, Variant::TmkOpt, Variant::Chaos].map(|v| NBF.report(v));
    assert!(opt.messages < base.messages);
    assert!(opt.time < base.time);
    assert!(chaos.messages < base.messages);
}

#[test]
fn moldyn_adaptive_agrees_bitwise_and_cuts_messages() {
    // The adaptive engine only moves fetches to the barrier; every DSM
    // build computes in the identical order, so agreement across them
    // is bitwise (asserted by the runner) — and still within tolerance
    // of the sequential reference like every other build.
    let [base, opt, ad] =
        [Variant::TmkBase, Variant::TmkOpt, Variant::TmkAdaptive].map(|v| MOLDYN.report(v));
    // The learned aggregation must pay off, and must never cost more
    // than demand paging.
    assert!(
        ad.messages < base.messages,
        "adaptive {} !< base {}",
        ad.messages,
        base.messages
    );
    assert!(ad.time < base.time);
    let pol = ad.policy.as_ref().expect("adaptive policy report");
    assert!(pol.promotions > 0 && pol.prefetch_rounds > 0);
    // The compiler path still knows more than the runtime can learn.
    assert!(opt.messages <= ad.messages);
}

#[test]
fn nbf_adaptive_agrees_bitwise_and_cuts_messages() {
    let (base, ad) = (
        NBF.report(Variant::TmkBase),
        NBF.report(Variant::TmkAdaptive),
    );
    assert!(ad.messages < base.messages);
    assert!(ad.time < base.time);
    let pol = ad.policy.as_ref().expect("adaptive policy report");
    assert!(pol.promotions > 0 && pol.prefetch_pages > 0);
    assert_eq!(pol.demotions, 0, "a static partner list never demotes");
}

#[test]
fn umesh_adaptive_agrees_bitwise_with_sequential() {
    // With the fixed-order owner-side reduction, umesh's contract is
    // the strongest: `UmeshWorkload::check_mode` is `Bitwise`, so the
    // runner held the adaptive build bitwise-equal to the sequential
    // program itself, not just to the other DSM builds.
    let x = |v| &UMESH.m.get(v).x;
    assert_eq!(x(Variant::TmkAdaptive), x(Variant::Seq));
    let ad = UMESH.report(Variant::TmkAdaptive);
    assert!(ad.messages <= UMESH.report(Variant::TmkBase).messages);
    assert!(ad.policy.as_ref().expect("adaptive policy report").epochs > 0);
}

#[test]
fn adaptive_never_sends_more_than_base_on_any_app() {
    // The ISSUE-level guarantee, at test scale, across all three apps.
    for (app, m) in [("moldyn", &MOLDYN.m), ("nbf", &NBF.m), ("umesh", &UMESH.m)] {
        let (ad, base) = (
            m.get(Variant::TmkAdaptive).report.messages,
            m.get(Variant::TmkBase).report.messages,
        );
        assert!(ad <= base, "{app}: {ad} > {base}");
    }
}

#[test]
fn moldyn_results_deterministic_across_runs() {
    MOLDYN.assert_deterministic(Variant::TmkOpt);
    MOLDYN.assert_deterministic(Variant::TmkAdaptive);
}

#[test]
fn nbf_deterministic_across_runs() {
    NBF.assert_deterministic(Variant::Chaos);
}

#[test]
fn moldyn_update_frequency_hurts_chaos_more() {
    // The paper's headline: as the list changes more often, the DSM
    // approach gains on CHAOS because the inspector re-runs (in the
    // timed region) while Validate merely rescans.
    let at_interval = |update_interval| {
        let w = MoldynWorkload {
            cfg: MoldynConfig {
                update_interval,
                ..MoldynConfig::small()
            },
            world: MOLDYN.w.world.clone(),
        };
        run_variants(&w, &[Variant::Chaos, Variant::TmkOpt])
    };
    let rare = at_interval(5); // 1 rebuild over 6 steps
    let often = at_interval(2); // 2 rebuilds
    let (c_rare, c_often) = (
        &rare.get(Variant::Chaos).report,
        &often.get(Variant::Chaos).report,
    );
    let (o_rare, o_often) = (
        &rare.get(Variant::TmkOpt).report,
        &often.get(Variant::TmkOpt).report,
    );

    // CHAOS pays the inspector inside the loop; Validate pays a rescan.
    assert!(c_often.inspector_s > c_rare.inspector_s);
    let chaos_delta = c_often.time.as_secs_f64() - c_rare.time.as_secs_f64();
    let opt_delta = o_often.time.as_secs_f64() - o_rare.time.as_secs_f64();
    assert!(
        chaos_delta > opt_delta,
        "chaos Δ {chaos_delta} must exceed opt Δ {opt_delta}"
    );
}

#[test]
fn nbf_one_processor_matches_sequential_closely() {
    // Paper §5: "The single-processor TreadMarks execution time is almost
    // identical to that of the sequential program."
    let mut cfg = NbfConfig::small();
    cfg.nprocs = 1;
    let m = run_variants(
        &NbfWorkload::new(cfg),
        &[Variant::TmkOpt, Variant::TmkAdaptive],
    );
    let [seq, opt, ad] = [0, 1, 2].map(|i| &m.runs[i].report);
    assert_eq!(opt.messages, 0, "one processor never communicates");
    let ratio = opt.time.as_secs_f64() / seq.time.as_secs_f64();
    assert!(
        (0.95..1.15).contains(&ratio),
        "1-proc DSM ≈ sequential, ratio {ratio}"
    );
    // Nor does the adaptive engine: nothing is ever invalidated, so
    // there is nothing to predict.
    assert_eq!(ad.messages, 0);
    let pol = ad.policy.as_ref().expect("adaptive policy report");
    assert_eq!(pol.prefetch_rounds, 0);
}

#[test]
fn validate_scan_time_is_reported() {
    let (opt, chaos) = (
        MOLDYN.report(Variant::TmkOpt),
        MOLDYN.report(Variant::Chaos),
    );
    assert!(opt.validate_scan_s > 0.0);
    assert!(chaos.untimed_inspector_s > 0.0);
    // The paper's asymmetry: inspector work dwarfs the Validate scan.
    assert!(chaos.untimed_inspector_s + chaos.inspector_s > opt.validate_scan_s);
}
