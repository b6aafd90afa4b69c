//! Phase-keyed prediction: the deterministic pins for the multi-barrier
//! regime. An app that alternates two barrier sites (coordinate pages
//! at one, force chunks at the other) produces *alternating pick sets*
//! on the raw barrier stream — so PR 4's globally-keyed quiesce streak
//! ("consecutive identical non-empty picks") provably never fires.
//! Keyed per phase, each site's picks are identical epoch over epoch
//! and both sites quiesce. Both behaviors are pinned here: the global
//! one by driving the same event stream through phase 0 alone, the
//! phase-keyed one by tagging the two sites.

use adapt::{AdaptivePolicy, PageMode, ProtocolPolicy};
use simnet::PolicyStats;

const A: u32 = 1;
const B: u32 = 2;

/// Drive one epoch at `phase` the way `dsm::TmkProc::barrier_tagged`
/// does — the decision counted into `stats` — returning the full
/// decision.
fn epoch(
    p: &mut AdaptivePolicy,
    stats: &PolicyStats,
    phase: u32,
    inv: &[u32],
) -> dsm::EpochDecision {
    let dec = p.epoch_end(phase, inv);
    stats.record_epoch(0, phase, &dec.events);
    dec
}

/// The two-site app shape: site A invalidates (and the epoch then
/// reads) page 1; site B invalidates and reads page 2; the sites
/// strictly alternate. `phases` maps the two sites to the tags the
/// barriers carry — `(A, B)` for a phase-aware app, `(0, 0)` for the
/// PR 4 global keying.
fn run_alternating(phases: (u32, u32), cycles: usize) -> (Vec<bool>, Vec<bool>, AdaptivePolicy) {
    let stats = PolicyStats::new(1);
    let mut p = AdaptivePolicy::new(false);
    let mut defers_a = Vec::new();
    let mut defers_b = Vec::new();
    for _ in 0..cycles {
        let dec = epoch(&mut p, &stats, phases.0, &[1]);
        if dec.picks.is_empty() {
            p.note_miss(1); // not covered: the read demand-faults
        }
        if !dec.picks.is_empty() {
            defers_a.push(dec.defer);
        }
        let dec = epoch(&mut p, &stats, phases.1, &[2]);
        if dec.picks.is_empty() {
            p.note_miss(2);
        }
        if !dec.picks.is_empty() {
            defers_b.push(dec.defer);
        }
    }
    (defers_a, defers_b, p)
}

#[test]
fn global_streak_provably_never_fires_on_alternating_sites() {
    // Pin of the PR 4 behavior: every barrier is phase 0, so the pick
    // stream alternates [1], [2], [1], [2], … and the identical-picks
    // streak resets at every single epoch. Prediction still works
    // (both pages promote, picks fire) — but nothing ever defers, so
    // nothing can ever quiesce: the final-barrier exchange is wasted
    // forever, no matter how long the app runs.
    let (defers_a, defers_b, p) = run_alternating((0, 0), 32);
    assert_eq!(p.page_mode(1), PageMode::Prefetch, "prediction still locks");
    assert_eq!(p.page_mode(2), PageMode::Prefetch);
    assert!(
        !defers_a.is_empty() && !defers_b.is_empty(),
        "both pages' picks fire"
    );
    assert!(
        defers_a.iter().chain(&defers_b).all(|&d| !d),
        "globally keyed: the alternating picks reset the streak every epoch"
    );
    assert_eq!(p.phases_seen(), vec![0]);
}

#[test]
fn phase_keyed_streaks_build_and_quiesce_both_sites() {
    // The same event stream, with the two sites tagged: each phase sees
    // only its own picks ([1] at every A epoch, [2] at every B epoch),
    // the streaks build independently, and both defer from the third
    // pick onward (two identical epochs confirm a streak) — including
    // the run's final barrier, which is where the deferred plan dies
    // untriggered and the exchange is saved.
    let (defers_a, defers_b, p) = run_alternating((A, B), 32);
    assert_eq!(p.page_mode_in(1, A), PageMode::Prefetch);
    assert_eq!(p.page_mode_in(2, B), PageMode::Prefetch);
    assert_eq!(
        p.page_mode_in(1, B),
        PageMode::Demand,
        "no cross-phase bleed"
    );
    assert_eq!(p.page_mode_in(2, A), PageMode::Demand);
    // A streak of 2: picks at epochs k, k+1 confirm; k+2 defers.
    for (site, defers) in [("A", &defers_a), ("B", &defers_b)] {
        assert!(
            defers.len() >= 6,
            "site {site}: expected a long pick stream, got {}",
            defers.len()
        );
        assert_eq!(
            &defers[..2],
            &[false, false],
            "site {site}: the streak needs two confirmations"
        );
        assert!(
            defers[2..].iter().all(|&d| d),
            "site {site}: every steady-state pick defers"
        );
    }
    assert_eq!(p.phases_seen(), vec![A, B]);
}

#[test]
fn deferred_final_plans_quiesce_per_phase() {
    // End-to-end check of the billing: after the streaks are steady,
    // the protocol layer arms one deferred plan per site; the plans of
    // the final epoch are reported back per phase (note_quiesced) and
    // the engine stops predicting the affected pages — the free-probe
    // feedback, now phase-scoped.
    let stats = PolicyStats::new(1);
    let mut p = AdaptivePolicy::new(false);
    for _ in 0..8 {
        if epoch(&mut p, &stats, A, &[1]).picks.is_empty() {
            p.note_miss(1);
        }
        if epoch(&mut p, &stats, B, &[2]).picks.is_empty() {
            p.note_miss(2);
        }
    }
    // Both sites now defer; the run ends and both plans die untouched.
    p.note_quiesced(A, &[1]);
    p.note_quiesced(B, &[2]);
    // The quiesce feedback cleared the covered-need marks: the next
    // window of each phase closes as a non-need and prediction stops —
    // but only in the owning phase.
    for _ in 0..6 {
        assert!(epoch(&mut p, &stats, A, &[1]).picks.is_empty());
        assert!(epoch(&mut p, &stats, B, &[2]).picks.is_empty());
    }
}
