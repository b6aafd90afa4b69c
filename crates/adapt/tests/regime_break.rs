//! Regime breaks: the pattern the predictor locked onto **dies or
//! changes mid-run**, at an event no learner was told about. The
//! engine's answer is the probe cadence — every 8th
//! prediction is withheld at base cost, and the first clean probe
//! declares the pattern dead — which makes the damage a
//! stale plan can do *bounded*, and the bound falsifiable:
//!
//! * at policy level, a dead pattern is demoted within one probe
//!   interval (≤ 8 predictions, ≤ `period · 8` epochs), wasting fewer
//!   than 8 prefetches on the way,
//!   and a *new* pattern on the same page re-earns promotion;
//! * at protocol level, across random break points and regime pairs
//!   (`Dynamics::RegimeShift`) and random rebalance points
//!   (`Dynamics::Rebalance`), every variant stays bitwise-identical
//!   and adaptive/push message counts stay within
//!   `base + probe_budget(pages, epochs)` — the bound
//!   [`adapt::probe_budget`] derives from first principles.
//!
//! The proptests run 64 cases under `cargo test` and scale to a soak
//! via `PROPTEST_CASES` (the `make soak` target runs ≥ 512).

use adapt::{probe_budget, AdaptivePolicy, PageMode, PolicyReport, ProtocolPolicy};
use apps::workload::{run_matrix, Variant};
use proptest::prelude::*;
use simnet::PolicyStats;
use synth::{Dynamics, Prepared, Structure, SynthConfig};

/// The engine's probe cadence: every 8th prediction of a promoted page
/// is withheld.
const PROBE_EVERY: u64 = 8;

/// One phase-0 epoch, driven the way `dsm::TmkProc::barrier_tagged`
/// does: the decision counted into `stats`.
fn drive(p: &mut AdaptivePolicy, stats: &PolicyStats, inv: &[u32]) -> Vec<u32> {
    let dec = p.epoch_end(0, inv);
    stats.record_epoch(0, 0, &dec.events);
    dec.picks
}

/// Teach the policy a `period`-gap pattern on `page` until it promotes;
/// returns the epoch counter (continues from wherever `p` already is).
fn learn(p: &mut AdaptivePolicy, stats: &PolicyStats, page: u32, period: u64, t0: &mut u64) {
    for _ in 0..(period * 12) {
        *t0 += 1;
        let picks = drive(p, stats, &[page]);
        if *t0 % period == 1 && !picks.contains(&page) {
            p.note_miss(page);
        }
    }
    assert_eq!(
        p.page_mode(page),
        PageMode::Prefetch,
        "a clean period-{period} pattern must promote while it lives"
    );
}

#[test]
fn dead_pattern_demotes_within_one_probe_interval() {
    let period = 3u64;
    let stats = PolicyStats::new(1);
    let mut p = AdaptivePolicy::new(false);
    let mut t = 0u64;
    learn(&mut p, &stats, 1, period, &mut t);

    // The break: the page is never needed again. Predictions keep
    // firing on the learned cadence until a probe lands in a window
    // with no demand miss, and that first contradicting probe demotes.
    // The probe cadence guarantees one within `PROBE_EVERY` predictions,
    // i.e. `period · PROBE_EVERY` epochs; every prediction before it
    // wastes at most one prefetch.
    let mut wasted = 0u64;
    let mut demoted_after = None;
    for k in 1..=(period * PROBE_EVERY + period) {
        let picks = drive(&mut p, &stats, &[1]);
        wasted += u64::from(picks.contains(&1));
        if p.page_mode(1) == PageMode::Demand {
            demoted_after = Some(k);
            break;
        }
    }
    let k = demoted_after.expect("stale promotion outlived the probe cadence");
    assert!(
        k <= period * PROBE_EVERY,
        "demotion took {k} epochs, bound is period·PROBE_EVERY = {}",
        period * PROBE_EVERY
    );
    assert!(
        wasted < PROBE_EVERY,
        "a dead pattern wasted {wasted} prefetches; the probe cadence \
         bounds it below PROBE_EVERY = {PROBE_EVERY}"
    );
    let rep = PolicyReport::capture(&stats);
    assert!(rep.demotions >= 1, "the break must show up as a demotion");
    assert!(rep.probes >= 1, "only a probe can witness a dead pattern");
}

#[test]
fn new_pattern_on_the_same_page_re_earns_promotion() {
    let stats = PolicyStats::new(1);
    let mut p = AdaptivePolicy::new(false);
    let mut t = 0u64;
    learn(&mut p, &stats, 5, 3, &mut t);

    // Break: silence until the probe cadence demotes (full reset).
    for _ in 0..40 {
        drive(&mut p, &stats, &[5]);
        if p.page_mode(5) == PageMode::Demand {
            break;
        }
    }
    assert_eq!(p.page_mode(5), PageMode::Demand, "dead pattern not demoted");

    // The regime after the break: same page, period 4. The reset means
    // promotion is re-earned from live misses alone — no leftover gap
    // history from the old life can pollute the new lock.
    let mut misses_late = 0u64;
    for k in 1..=48u64 {
        t += 1;
        let picks = drive(&mut p, &stats, &[5]);
        if t % 4 == 1 && !picks.contains(&5) {
            p.note_miss(5);
            if k > 24 {
                misses_late += 1;
            }
        }
    }
    assert_eq!(
        p.page_mode(5),
        PageMode::Prefetch,
        "the post-break pattern must re-promote"
    );
    assert_eq!(p.page_gap(5), Some(4), "the new period, not the old one");
    // Once re-locked, only the probe cadence may miss: ≤ 1 per
    // `PROBE_EVERY` predictions over the last 24 epochs (6 needs).
    assert!(
        misses_late <= 1,
        "re-promoted page still missed {misses_late}× in steady state"
    );
}

// ---------------------------------------------------------------------------
// Protocol level: full six-variant runs through the synth matrix.

/// Small cell: 8 value pages on 4 processors, 8 epochs — big enough to
/// promote and break, small enough for a 512-case soak.
fn small(dynamics: Dynamics) -> SynthConfig {
    let mut cfg = SynthConfig::quick(Structure::Uniform, dynamics);
    cfg.n = 512;
    cfg.refs = 1024;
    cfg.iters = 8;
    cfg
}

/// The probe-budget page basis: value-array pages × nprocs (each
/// processor can hold a stale plan per shared page; ilist sections are
/// per-proc private and never demand-fault remotely).
fn pages(cfg: &SynthConfig) -> u64 {
    ((cfg.n * 8).div_ceil(cfg.page_size) * cfg.nprocs) as u64
}

/// Runs the full matrix (which itself asserts all six variants
/// bitwise-identical) and checks the message-count budget bound.
fn check_budget(cfg: SynthConfig) {
    let budget = probe_budget(pages(&cfg), cfg.iters as u64);
    let m = run_matrix(&Prepared::new(cfg));
    let base = m.get(Variant::TmkBase).report.messages;
    for v in [Variant::TmkAdaptive, Variant::TmkPush] {
        let got = m.get(v).report.messages;
        assert!(
            got <= base + budget,
            "{}/{v:?}: {got} msgs > base {base} + probe budget {budget}",
            m.label
        );
    }
}

#[test]
fn regime_shift_is_bitwise_and_within_budget() {
    check_budget(small(Dynamics::RegimeShift {
        at: 4,
        from: Box::new(Dynamics::Static),
        to: Box::new(Dynamics::PeriodicRemap { period: 3 }),
    }));
}

#[test]
fn rebalance_is_bitwise_and_within_budget() {
    check_budget(small(Dynamics::Rebalance { at: 4 }));
}

/// Plain (non-churn) regimes a `RegimeShift` may switch between.
fn plain_dynamics() -> Vec<Dynamics> {
    vec![
        Dynamics::Static,
        Dynamics::PeriodicRemap { period: 2 },
        Dynamics::PeriodicRemap { period: 3 },
        Dynamics::PeriodicRemap { period: 4 },
        Dynamics::MultiPeriodic { p1: 3, p2: 5 },
        Dynamics::Drift { per_mille: 100 },
        Dynamics::Drift { per_mille: 250 },
    ]
}

proptest! {
    /// Any regime pair, broken at any iteration: results never move
    /// (asserted six ways inside `run_matrix`), and the stale-plan cost
    /// stays under the probe budget. 64 cases by default; `make soak`
    /// raises `PROPTEST_CASES` to ≥ 512.
    #[test]
    fn random_breaks_stay_bitwise_and_within_budget(
        at in 1u32..8,
        from in prop::sample::select(plain_dynamics()),
        to in prop::sample::select(plain_dynamics()),
    ) {
        check_budget(small(Dynamics::RegimeShift {
            at,
            from: Box::new(from),
            to: Box::new(to),
        }));
    }

    /// A rebalance at any iteration: same claim.
    #[test]
    fn random_rebalance_points_stay_bitwise_and_within_budget(at in 1u32..8) {
        check_budget(small(Dynamics::Rebalance { at }));
    }
}
