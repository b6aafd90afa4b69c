//! Multi-periodic need-gap coverage: patterns with more than one period
//! in play (a remap-3 stream interleaved with a remap-5 stream, as the
//! synth engine's `MultiPeriodic { p1: 3, p2: 5 }` scenarios generate).
//! The end-to-end protocol-level version lives in `synth`'s scenario
//! tests; these tests pin down the *predictor's* behavior on the same
//! shapes. PR 3 pinned the one-gap predictor's provable degradation on
//! a union of periods; the gap-history predictor flips that test to
//! positive capture.

use adapt::{AdaptConfig, AdaptivePolicy, PageMode, ProtocolPolicy};
use simnet::{PolicyReport, PolicyStats};

/// One phase-0 epoch, driven the way `dsm::TmkProc::barrier_tagged`
/// does: numbered by the epochs `stats` has counted, the decision
/// counted into `stats`.
fn drive(p: &mut AdaptivePolicy, stats: &PolicyStats, inv: &[u32]) -> Vec<u32> {
    let epoch = PolicyReport::capture(stats).epochs + 1;
    let dec = p.epoch_end(epoch, 0, inv);
    stats.record_epoch(0, 0, &dec.events);
    dec.picks
}

#[test]
fn two_pages_with_distinct_periods_are_both_captured() {
    // Page 1 is needed every 3rd invalidation, page 2 every 5th — the
    // per-page gap histories are independent, so both patterns lock.
    let stats = PolicyStats::new(1);
    let mut p = AdaptivePolicy::new(AdaptConfig::default());
    let mut misses = [0u32; 2];
    let mut wasted = [0u32; 2];
    for t in 1u64..=60 {
        let picks = drive(&mut p, &stats, &[1, 2]);
        for (slot, (page, period)) in [(1u32, 3u64), (2, 5)].into_iter().enumerate() {
            let used = t % period == 1;
            let prefetched = picks.contains(&page);
            if used && !prefetched {
                p.note_miss(page);
                misses[slot] += 1;
            }
            if !used && prefetched {
                wasted[slot] += 1;
            }
        }
    }
    assert_eq!(p.page_mode(1), PageMode::Prefetch);
    assert_eq!(p.page_mode(2), PageMode::Prefetch);
    assert_eq!(p.page_gap(1), Some(3));
    assert_eq!(p.page_gap(2), Some(5));
    // Demand misses: learning (3 needs per page) plus the probe cadence
    // (every 8th prediction withheld at base cost).
    assert!(misses[0] <= 6, "page 1 missed {} times", misses[0]);
    assert!(misses[1] <= 6, "page 2 missed {} times", misses[1]);
    // The phase-aware predictor never prefetches off-phase.
    assert_eq!(wasted, [0, 0], "off-phase prefetches");
    let rep = PolicyReport::capture(&stats);
    assert!(rep.promotions >= 2);
}

#[test]
fn union_of_two_periods_on_one_page_is_captured_with_zero_waste() {
    // One page needed at every multiple of 3 OR 5 — a truly
    // multi-periodic single-page stream, whose gap sequence is itself
    // periodic: 2,1,3,1,2,3,3 repeating (seven needs per lcm(3,5)=15
    // events). PR 3's one-gap predictor provably degraded here to
    // exactly demand-paging cost (zero waste, zero capture — this test
    // used to pin that limit). The gap-history predictor verifies the
    // length-7 cycle once it has seen it twice (14 gaps ≈ 30 events)
    // and captures every following need. The early spurious 1-cycle
    // locks on the "3,3" runs still never cost anything: the period-5
    // need always lands one event before their prediction would fire,
    // breaking the lock just in time — so waste stays exactly zero.
    let stats = PolicyStats::new(1);
    let mut p = AdaptivePolicy::new(AdaptConfig::default());
    let mut misses = 0u32;
    let mut covered = 0u32;
    let mut wasted = 0u32;
    for t in 1u64..=60 {
        let picks = drive(&mut p, &stats, &[7]);
        let used = t % 3 == 0 || t % 5 == 0;
        let prefetched = !picks.is_empty();
        match (used, prefetched) {
            (true, true) => covered += 1,
            (true, false) => {
                p.note_miss(7);
                misses += 1;
            }
            (false, true) => wasted += 1,
            (false, false) => {}
        }
    }
    // Never worse than demand paging: a wasted prefetch is the only way
    // to exceed base traffic, and none fire off-need.
    assert_eq!(wasted, 0, "prefetched windows that were never needed");
    // The flip: the union is captured, not degraded. 28 needs in 60
    // events; learning takes two full cycles, then predictions cover
    // the rest (minus the probe cadence).
    assert!(covered >= 10, "union captured only {covered} needs");
    assert!(
        misses < 28,
        "gap-history predictor must beat pure demand paging"
    );
    assert_eq!(misses + covered, 28, "every need is a miss or a capture");
    assert_eq!(p.page_mode(7), PageMode::Prefetch);
    assert_eq!(p.page_period(7), Some(7), "the 3∪5 union is a 7-cycle");
    let rep = PolicyReport::capture(&stats);
    assert!(rep.promotions >= 1, "promotions: {}", rep.promotions);
}

#[test]
fn interleaved_remap_shifts_keep_probe_economy() {
    // A page whose need phase re-randomizes every 15 events (the lcm of
    // 3 and 5 — what a MultiPeriodic remap does to a page's read set).
    // The predictor must bound its waste: mispredictions self-correct
    // through gap instability, so off-need prefetches stay rare.
    let stats = PolicyStats::new(1);
    let mut p = AdaptivePolicy::new(AdaptConfig::default());
    let mut wasted = 0u32;
    for t in 1u64..=90 {
        let picks = drive(&mut p, &stats, &[9]);
        // Phase shifts at every multiple of 15: need offset cycles 1→2→0.
        let phase = (t / 15) % 3;
        let used = t % 3 == phase;
        if used && picks.is_empty() {
            p.note_miss(9);
        } else if !used && !picks.is_empty() {
            wasted += 1;
        }
    }
    // 90 events, 30 needs; one misprediction per phase shift (6 shifts)
    // is the self-correction cost.
    assert!(
        wasted <= 6,
        "wasted {wasted} prefetches across phase shifts"
    );
}
