//! The adaptive policy: learn, per page **and per barrier phase**,
//! *when* demand misses follow invalidations, and batch the fetches it
//! can predict.
//!
//! ## The gap-history predictor
//!
//! Every page's life is measured on its **invalidation axis**: event
//! `t` is the page's `t`-th invalidation, and window `W_t` is the epoch
//! span from event `t` to event `t+1`. A *need* is a window that
//! contained a demand miss (or was covered by one of our prefetches).
//! The predictor keeps a bounded ring of the **gaps** between
//! consecutive needs, in invalidation events:
//!
//! * a page read every time it is invalidated (nbf's partner pages,
//!   umesh ghost pages, moldyn's coordinate array) has gap history
//!   `1, 1, 1, …`;
//! * a page touched once per period of a pipelined reduction (moldyn's
//!   force chunks) has gap history `p, p, p, …` for a stable `p`;
//! * a page needed on a **union of periods** — the `MultiPeriodic`
//!   synth regime, e.g. every multiple of 3 *or* 5 — has a gap history
//!   that is itself periodic with a longer cycle
//!   (`2, 1, 3, 1, 2, 3, 3` repeating for the 3∪5 union).
//!
//! The predictor promotes a page when its gap history locks onto the
//! **smallest period `L`** whose last full cycle is verified: the
//! trailing `L` gaps each match the gap `L` positions earlier (so a
//! constant gap locks once two consecutive gaps agree, after the third
//! need). `L = 1` reproduces PR 2's one-gap predictor
//! exactly; larger `L` captures unions of periods the one-gap predictor
//! provably degraded on (`crates/adapt/tests/multi_periodic.rs`). The
//! predicted next gap is the one `L` positions back, so prefetches fire
//! **only at the predicted event** — all predictions that fire at one
//! barrier share a single aggregated exchange per peer.
//!
//! A mispredicted phase self-corrects: the true miss lands in a later
//! window, the observed gap breaks the cycle match, the lock is lost,
//! and the page falls back to demand paging until the history
//! re-stabilizes. Pages that stop being used entirely are caught by
//! probes (`PROBE_EVERY`): every 8th prediction is withheld at exactly
//! base-TreadMarks cost, and the first clean probe resets the predictor.
//!
//! ## Phase identity
//!
//! Multi-barrier apps alternate barrier *sites*: moldyn invalidates its
//! coordinate pages at the position-update barrier and its force chunks
//! at each pipelined-reduction barrier. Keying everything on the raw
//! barrier stream aliases those plans — consecutive barriers pick
//! different page sets, so a "consecutive identical picks" quiesce
//! streak never builds, and a single global history interleaves
//! unrelated event axes. The engine therefore keys **all** learned
//! state by the phase tag the barrier carries
//! ([`dsm::TmkProc::barrier_tagged`]; plain `barrier()` is phase 0):
//!
//! * each `(page, phase)` pair has its own invalidation-event axis,
//!   gap ring, and promotion state — the axis counts only the phase's
//!   own invalidations of the page;
//! * a demand miss is attributed to the phase that **most recently
//!   invalidated** the faulted page — the only phase whose prefetch
//!   could have covered it (an earlier phase's prefetch would have been
//!   destroyed by that later invalidation);
//! * the quiesce streak is per phase, so moldyn's x-pages plan at the
//!   update barrier and each pipeline round's chunk plan build streaks
//!   independently and all quiesce at the run's end.
//!
//! Untagged programs put every barrier in phase 0 and get exactly the
//! PR 4 behavior.
//!
//! ## Quiesce and update-push
//!
//! Two protocol refinements ride on the same decision stream:
//!
//! * **Quiesce** (`QUIESCE_AFTER`, 2): after that many
//!   consecutive epochs of one phase with *identical* picks, the
//!   batched fetch is deferred to the epoch's first demand fault
//!   instead of issued eagerly inside the barrier. Steady-state epochs
//!   still pay exactly one exchange per peer (the first touch triggers
//!   it, and the touching page rides along); a plan whose pages are
//!   re-invalidated untouched — above all one armed at the run's
//!   **final barrier** — pays nothing at all. A discarded plan doubles
//!   as a free probe (see `note_quiesced`).
//! * **Update-push** (`AdaptivePolicy::new(true)`): the predicted
//!   exchange is accounted as writer-initiated — one one-way
//!   `AdaptPush` data message per writer/consumer pair instead of a
//!   request/reply pair, halving the remaining predicted messages. The consumer-side
//!   predictor still decides *what* moves; the subscription that
//!   teaches writers the consumer's schedule is billed explicitly by
//!   the protocol layer as one one-way `AdaptSub` message per peer per
//!   *changed* per-phase schedule (see `dsm::FetchClass::Push`).

use dsm::{EpochDecision, ProtocolPolicy};
use simnet::PolicyAct;

/// "No phase has invalidated this page yet."
const NO_PHASE: u32 = u32::MAX;

/// Per-(page, phase) gap-history depth. The longest recognizable
/// need-period cycle is half this (a cycle must be seen twice to be
/// verified).
const HISTORY_WINDOW: usize = 16;

/// Every `PROBE_EVERY`-th prediction of a promoted page is a *probe*:
/// the prefetch is withheld, and a window with no demand miss resets
/// the predictor. A stale plan's prefetches mask every would-be miss, so
/// the probe is the only honest death signal, at exactly base-TreadMarks
/// cost. Pinned by `clean_probe_resets_a_dead_pattern`,
/// `probe_miss_keeps_the_page_promoted`, `tests/regime_break.rs` and
/// the probe counts in `apps`' `POLICY_GOLDEN`.
const PROBE_EVERY: u64 = 8;

// A probe on every prediction would withhold them all.
const _: () = assert!(PROBE_EVERY >= 2);

/// Consecutive identical-plan epochs *of one phase* before a pull-mode
/// batched fetch is deferred to the epoch's first demand fault, which
/// saves the exchange of the run's final barrier (its "next iteration"
/// never faults). Pinned by `quiesce_defers_after_identical_epochs`,
/// `tests/phase_keyed.rs` and `synth`'s
/// `quiesce_saves_the_final_barrier_prefetch_on_identical_epochs`.
const QUIESCE_AFTER: u32 = 2;

/// Worst-case extra messages the adaptive engine can spend, over plain
/// demand paging, on plans a mid-run regime break turned stale — the
/// falsifiable bound the churn test suite asserts.
///
/// The argument: a broken plan's prefetches *mask* the misses that
/// would expose it, so the only honest death signal is a probe, and the
/// probe cadence guarantees one within `PROBE_EVERY` (8) predictions,
/// and the first clean probe demotes. Until then each
/// stale promoted page wastes at most one prefetch exchange per epoch,
/// and one wasted page-exchange costs at most 2 messages (a
/// request/reply pull; a push costs 1).
/// A run of `epochs` epochs cannot waste more epochs than it has, so
/// each of the `pages` ever-promoted pages wastes at most
/// `min(PROBE_EVERY, epochs)` exchanges:
///
/// `budget = 2 × pages × min(PROBE_EVERY, epochs)`
///
/// The bound is deliberately loose (it ignores that probes themselves
/// cost base price, that re-promotion needs three live needs, and that
/// quiesced plans die free) — loose enough to be stable across cost
/// models, tight enough to fail if demotion ever stops working.
pub fn probe_budget(pages: u64, epochs: u64) -> u64 {
    2 * pages * PROBE_EVERY.min(epochs)
}

/// Which way a page's data currently moves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageMode {
    /// Invalidate on notice, fetch on fault (base TreadMarks).
    Demand,
    /// Promoted in at least one phase: fetched at the predicted
    /// barrier, batched with every other prediction into one exchange
    /// per peer.
    Prefetch,
}

/// The smallest verified need-period cycle in `gaps`, if any.
///
/// A period `L` is verified when the trailing `L` gaps each equal the
/// gap `L` positions earlier — i.e. the last full cycle repeats the one
/// before it. Smallest `L` wins: the most
/// parsimonious explanation of the history is the one predicted from,
/// and `L = 1` (a constant gap) reproduces the PR 2 one-gap predictor.
fn locked_period(gaps: &[u32]) -> Option<usize> {
    let n = gaps.len();
    (1..=n / 2).find(|&l| (0..l).all(|i| gaps[n - 1 - i] == gaps[n - 1 - i - l]))
}

#[derive(Debug, Clone)]
struct PageEntry {
    /// Demand miss attributed to this phase since the page's last
    /// invalidation at this phase.
    missed: bool,
    /// The current window was covered by one of this phase's
    /// prefetches.
    prefetched: bool,
    /// The current window is a probe (prediction withheld).
    probing: bool,
    /// Invalidation events seen (on this phase's axis).
    invs: u64,
    /// Event at which the last need was recorded (0 = none).
    last_need: u64,
    /// Bounded ring of recent need gaps, oldest first.
    gaps: Vec<u32>,
    /// Predictions issued (drives the probe cadence).
    predictions: u64,
    /// Currently promoted? (tracked to count mode flips)
    promoted: bool,
}

impl PageEntry {
    fn new() -> Self {
        PageEntry {
            missed: false,
            prefetched: false,
            probing: false,
            invs: 0,
            last_need: 0,
            gaps: Vec::new(),
            predictions: 0,
            promoted: false,
        }
    }
}

/// One phase's (barrier site's) learned state: its own per-page event
/// tables and its own quiesce streak.
///
/// Scaling contract (see ARCHITECTURE.md): `table` is a dense
/// page-indexed vector — no hashing, nothing keyed by peer processor —
/// so `epoch_end` at 256 processors walks only the pages this barrier
/// invalidated, never a per-peer structure. The only bounded shifts are
/// the per-page gap ring (≤ [`HISTORY_WINDOW`] entries).
#[derive(Debug, Clone)]
struct PhaseState {
    phase: u32,
    table: Vec<PageEntry>,
    /// The planned set (picks plus probe-withheld pages) of this
    /// phase's previous planning epoch — the quiesce-identity check
    /// compares plans, so a probe thinning one epoch's picks does not
    /// read as the plan having changed.
    last_picks: Vec<u32>,
    /// Consecutive epochs of this phase whose picks matched the
    /// previous ones.
    identical_epochs: u32,
}

impl PhaseState {
    fn new(phase: u32) -> Self {
        PhaseState {
            phase,
            table: Vec::new(),
            last_picks: Vec::new(),
            identical_epochs: 0,
        }
    }

    fn entry(&self, page: u32) -> Option<&PageEntry> {
        self.table.get(page as usize)
    }

    fn entry_mut(&mut self, page: u32) -> &mut PageEntry {
        let idx = page as usize;
        if idx >= self.table.len() {
            self.table.resize(idx + 1, PageEntry::new());
        }
        &mut self.table[idx]
    }
}

/// The runtime-adaptive protocol engine (one per processor).
///
/// See `adapt/src/policy.rs`'s module docs for the prediction model
/// and the phase keying. The engine never changes what data a page holds — only when
/// it is fetched — so program results are bitwise identical to base
/// TreadMarks in pull and update-push mode alike.
#[derive(Debug)]
pub struct AdaptivePolicy {
    /// Update-push mode (see [`AdaptivePolicy::new`]).
    push: bool,
    /// Per-phase learned state, in first-seen order (few phases; linear
    /// scans are cheaper than hashing).
    phases: Vec<PhaseState>,
    /// Per page: the phase whose barrier most recently invalidated it —
    /// the phase any demand miss on the page is attributed to.
    last_inv: Vec<u32>,
    /// Demand miss seen before the page's first-ever invalidation
    /// (consumed by whichever phase invalidates it first).
    cold_miss: Vec<bool>,
}

impl AdaptivePolicy {
    /// Build an engine. With `push`, predicted exchanges are accounted
    /// as writer-initiated update-push (one one-way data message per
    /// peer) instead of request/reply pulls; results are bitwise
    /// identical either way. Push mode never defers: a plan triggered by
    /// the consumer's own fault would be a pull, so the writers push
    /// eagerly at every predicted barrier, the run's last included.
    pub fn new(push: bool) -> Self {
        AdaptivePolicy {
            push,
            phases: Vec::new(),
            last_inv: Vec::new(),
            cold_miss: Vec::new(),
        }
    }

    /// Phase tags this engine has seen, in first-seen order.
    pub fn phases_seen(&self) -> Vec<u32> {
        self.phases.iter().map(|st| st.phase).collect()
    }

    fn phase_pos(&self, phase: u32) -> Option<usize> {
        self.phases.iter().position(|st| st.phase == phase)
    }

    fn ensure_phase(&mut self, phase: u32) -> usize {
        match self.phase_pos(phase) {
            Some(i) => i,
            None => {
                self.phases.push(PhaseState::new(phase));
                self.phases.len() - 1
            }
        }
    }

    fn ensure_page(&mut self, page: u32) {
        let idx = page as usize;
        if idx >= self.last_inv.len() {
            self.last_inv.resize(idx + 1, NO_PHASE);
            self.cold_miss.resize(idx + 1, false);
        }
    }

    fn gap_of(e: &PageEntry) -> Option<u32> {
        if !e.promoted {
            return None;
        }
        locked_period(&e.gaps).map(|l| e.gaps[e.gaps.len() - l])
    }

    /// Current mode of `page` across all phases (pages never seen are
    /// `Demand`).
    pub fn page_mode(&self, page: u32) -> PageMode {
        if self
            .phases
            .iter()
            .any(|st| st.entry(page).is_some_and(|e| e.promoted))
        {
            PageMode::Prefetch
        } else {
            PageMode::Demand
        }
    }

    /// Current mode of `page` within `phase` alone.
    pub fn page_mode_in(&self, page: u32, phase: u32) -> PageMode {
        match self
            .phase_pos(phase)
            .and_then(|i| self.phases[i].entry(page))
        {
            Some(e) if e.promoted => PageMode::Prefetch,
            _ => PageMode::Demand,
        }
    }

    /// The page's predicted next need gap in the first (oldest-seen)
    /// phase that promoted it, if any.
    pub fn page_gap(&self, page: u32) -> Option<u32> {
        self.phases
            .iter()
            .find_map(|st| st.entry(page).and_then(Self::gap_of))
    }

    /// The page's predicted next need gap within `phase`, if promoted
    /// there.
    pub fn page_gap_in(&self, page: u32, phase: u32) -> Option<u32> {
        self.phase_pos(phase)
            .and_then(|i| self.phases[i].entry(page))
            .and_then(Self::gap_of)
    }

    /// The page's locked need-period cycle length in the first phase
    /// that promoted it: 1 for a constant gap, longer for a union of
    /// periods.
    pub fn page_period(&self, page: u32) -> Option<u32> {
        self.phases.iter().find_map(|st| {
            st.entry(page)
                .filter(|e| e.promoted)
                .and_then(|e| locked_period(&e.gaps).map(|l| l as u32))
        })
    }
}

impl ProtocolPolicy for AdaptivePolicy {
    fn note_miss(&mut self, page: u32) {
        self.ensure_page(page);
        match self.last_inv[page as usize] {
            NO_PHASE => self.cold_miss[page as usize] = true,
            ph => {
                let i = self.phase_pos(ph).expect("attributing phase was seen");
                self.phases[i].entry_mut(page).missed = true;
            }
        }
    }

    fn note_quiesced(&mut self, phase: u32, pages: &[u32]) {
        // The deferred plan was discarded untriggered: the window
        // provably did not need these pages. Clearing the owning
        // phase's covered-need mark turns the quiesced window into a
        // free probe — it closes as a non-need, predictions stop, and a
        // dissolved pattern dies at zero wire cost instead of being
        // masked until the probe cadence catches it.
        if let Some(i) = self.phase_pos(phase) {
            for &page in pages {
                self.phases[i].entry_mut(page).prefetched = false;
            }
        }
    }

    fn epoch_end(&mut self, phase: u32, invalidated: &[u32]) -> EpochDecision {
        let pi = self.ensure_phase(phase);
        if let Some(&max) = invalidated.iter().max() {
            self.ensure_page(max);
        }

        let mut picks = Vec::new();
        // The picks plus any probe-withheld pages: the quiesce streak
        // compares *plans*, and a probe deliberately thinning one epoch
        // must not read as the plan having changed (it would break the
        // streak twice — once thinning, once restoring).
        let mut planned = Vec::new();
        // Per-page decision records, in decision order — the one account
        // of what this epoch promoted, demoted and probed; the DSM
        // counts and traces them.
        let mut events: Vec<(u32, PolicyAct)> = Vec::new();
        for &page in invalidated {
            let idx = page as usize;
            // A page's first-ever invalidation consumes its cold mark
            // (a miss before any phase owned the page).
            let cold_m = self.last_inv[idx] == NO_PHASE && std::mem::take(&mut self.cold_miss[idx]);
            // From here on, misses on this page belong to this phase:
            // only this phase's prefetch could cover them.
            self.last_inv[idx] = phase;

            let e = self.phases[pi].entry_mut(page);
            e.missed |= cold_m;
            e.invs += 1;
            let t = e.invs;

            // Close window W_{t-1}: did the page turn out to be needed?
            let need = e.missed || e.prefetched;
            let was_probe = e.probing;
            if need {
                if e.last_need > 0 {
                    let g = (t - e.last_need).min(u32::MAX as u64) as u32;
                    if e.gaps.len() == HISTORY_WINDOW {
                        e.gaps.remove(0);
                    }
                    e.gaps.push(g);
                }
                e.last_need = t;
            } else if was_probe {
                // Clean probe: the withheld prefetch was contradicted,
                // so the pattern is declared dead: full reset — the
                // page must re-earn promotion from live misses.
                e.gaps.clear();
                e.last_need = 0;
                e.predictions = 0;
            }
            e.probing = false;
            e.missed = false;
            e.prefetched = false;

            // Promotion state: does the gap history lock onto a cycle?
            let locked = locked_period(&e.gaps);
            let now_promoted = locked.is_some();
            if now_promoted != e.promoted {
                e.promoted = now_promoted;
                let act = if now_promoted {
                    PolicyAct::Promote
                } else {
                    PolicyAct::Demote
                };
                events.push((page, act));
            }

            // Predict: the cycle says the next need gap is the one L
            // positions back; window W_t is the one that need falls in
            // iff last_need + gap == t + 1. Only then is prefetching
            // now cheaper than demand-faulting later.
            if let Some(l) = locked {
                let gap = e.gaps[e.gaps.len() - l] as u64;
                if e.last_need + gap == t + 1 {
                    e.predictions += 1;
                    planned.push(page);
                    if e.predictions % PROBE_EVERY == 0 {
                        e.probing = true;
                        events.push((page, PolicyAct::Probe));
                    } else {
                        e.prefetched = true;
                        picks.push(page);
                    }
                }
            }
        }

        // Quiesce heuristic: after `QUIESCE_AFTER` consecutive epochs
        // of THIS phase with identical picks, steady state is assumed
        // and the batch is deferred to the epoch's first fault — so the
        // run's final barrier (whose window never faults) costs
        // nothing. Epochs of this phase that pick nothing neither
        // confirm nor break the streak: the steadiness signal is "the
        // same plan keeps being issued", not "every single barrier
        // issues it". Other phases' barriers are invisible here — that
        // is the whole point: interleaved sites no longer reset each
        // other's streaks. Push mode never defers (a fault-triggered
        // plan is a pull — see `AdaptivePolicy::new`).
        let st = &mut self.phases[pi];
        let defer = if !self.push && !picks.is_empty() {
            if planned == st.last_picks {
                st.identical_epochs = st.identical_epochs.saturating_add(1);
            } else {
                st.identical_epochs = 0;
                st.last_picks = planned;
            }
            st.identical_epochs >= QUIESCE_AFTER
        } else {
            false
        };

        EpochDecision {
            picks,
            defer,
            push: self.push,
            events,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// What the protocol layer would have counted from the decisions
    /// driven so far (it owns the real counters; the engine only
    /// returns decisions).
    #[derive(Default)]
    struct Tally {
        epochs: u64,
        promotions: u64,
        demotions: u64,
        probes: u64,
    }

    /// One barrier epoch of phase 0: the picks.
    fn drive(p: &mut AdaptivePolicy, tally: &mut Tally, inv: &[u32]) -> Vec<u32> {
        decide(p, tally, 0, inv).picks
    }

    /// One barrier epoch of `phase`, numbered and tallied the way
    /// `dsm::TmkProc::barrier_tagged` would.
    fn decide(p: &mut AdaptivePolicy, tally: &mut Tally, phase: u32, inv: &[u32]) -> EpochDecision {
        tally.epochs += 1;
        let dec = p.epoch_end(phase, inv);
        for &(_, act) in &dec.events {
            match act {
                PolicyAct::Promote => tally.promotions += 1,
                PolicyAct::Demote => tally.demotions += 1,
                PolicyAct::Probe => tally.probes += 1,
            }
        }
        dec
    }

    #[test]
    fn gap1_pattern_promotes_after_three_confirmed_needs() {
        let mut tally = Tally::default();
        let mut p = AdaptivePolicy::new(false);

        // Needs at events 1, 2, 3 → gap 1 confirmed twice at event 3.
        p.note_miss(7);
        assert!(drive(&mut p, &mut tally, &[7]).is_empty()); // first need: no gap yet
        p.note_miss(7);
        assert!(drive(&mut p, &mut tally, &[7]).is_empty()); // gap=1, unconfirmed
        p.note_miss(7);
        let picks = drive(&mut p, &mut tally, &[7]); // gap=1 again → stable → predict
        assert_eq!(p.page_mode(7), PageMode::Prefetch);
        assert_eq!(p.page_gap(7), Some(1));
        assert_eq!(p.page_period(7), Some(1));
        assert_eq!(
            picks,
            vec![7],
            "promoted and prefetched for the next window"
        );

        // Steady state: keeps prefetching with no further misses (the
        // prefetch itself counts as the predicted need).
        for _ in 0..5 {
            assert_eq!(drive(&mut p, &mut tally, &[7]), vec![7]);
        }
        assert_eq!(tally.promotions, 1);
        assert_eq!(tally.demotions, 0);
    }

    #[test]
    fn periodic_pattern_prefetches_only_at_the_predicted_phase() {
        // A pipelined-reduction page: invalidated every event, needed
        // every 4th event. Blind prefetch would fetch 4x too often.
        let mut tally = Tally::default();
        let mut p = AdaptivePolicy::new(false);
        let mut prefetches = Vec::new();
        let mut misses = 0;
        for t in 1u64..=40 {
            // The app misses in window W_t iff t % 4 == 1 and the page
            // was not prefetched for that window.
            let picks = drive(&mut p, &mut tally, &[5]);
            if !picks.is_empty() {
                prefetches.push(t);
            } else if t % 4 == 1 {
                p.note_miss(5);
                misses += 1;
            }
        }
        // Misses in W_1, W_5, W_9 are recorded at window close (events
        // 2, 6, 10) → gap 4 is stable at event 10; the first prediction
        // fires at t = 13 (covering W_13, whose need closes at 14),
        // then every 4 events — and nowhere else.
        assert_eq!(prefetches, vec![13, 17, 21, 25, 29, 33, 37]);
        assert!(misses <= 3, "only the learning needs demand-fault");
        assert_eq!(p.page_gap(5), Some(4));
        assert_eq!(p.page_period(5), Some(1), "a constant gap is a 1-cycle");
    }

    #[test]
    fn unaccessed_pages_are_never_prefetched() {
        let mut tally = Tally::default();
        let mut p = AdaptivePolicy::new(false);
        for _ in 0..20 {
            // Invalidated every epoch but never missed on.
            assert!(drive(&mut p, &mut tally, &[3]).is_empty());
        }
        assert_eq!(p.page_mode(3), PageMode::Demand);
        assert_eq!(tally.promotions, 0, "nothing was ever decided");
    }

    #[test]
    fn phase_shift_self_corrects_via_gap_instability() {
        // A periodic page whose phase slips by one event (moldyn's
        // rebuild barriers do exactly this): the mispredicted prefetch
        // registers a virtual need at the wrong event, the real miss
        // lands one event later, the observed gap breaks the cycle
        // match, the lock is lost, and the predictor re-learns the
        // shifted phase — all without waiting for a probe.
        let mut tally = Tally::default();
        let mut p = AdaptivePolicy::new(false);
        let mut wasted = 0;
        let mut demand_misses = 0;
        for t in 1u64..=60 {
            let picks = drive(&mut p, &mut tally, &[6]);
            // Phase slips at t=30: needs move from W_{t: t%4==1} to
            // W_{t: t%4==2}.
            let used = if t < 30 { t % 4 == 1 } else { t % 4 == 2 };
            match (used, picks.is_empty()) {
                (true, true) => {
                    p.note_miss(6);
                    demand_misses += 1;
                }
                (false, false) => wasted += 1,
                _ => {}
            }
        }
        // The shifted phase is re-locked and predicted again.
        assert_eq!(p.page_mode(6), PageMode::Prefetch);
        assert_eq!(p.page_gap(6), Some(4));
        assert!(wasted <= 2, "one misprediction per shift, got {wasted}");
        // Learning (3 needs) + re-learning (3 needs) demand-fault; the
        // rest is prefetched.
        assert!((5..=8).contains(&demand_misses), "got {demand_misses}");
    }

    #[test]
    fn clean_probe_resets_a_dead_pattern() {
        let mut tally = Tally::default();
        let mut p = AdaptivePolicy::new(false);
        // Gap-1 pattern, promoted at event 3 (prediction #1).
        for _ in 0..3 {
            p.note_miss(9);
            drive(&mut p, &mut tally, &[9]);
        }
        // The program stops touching the page; writers keep writing.
        // Predictions 2..=7 prefetch; prediction 8 is the probe; the
        // clean probe window resets the predictor.
        for prediction in 2..PROBE_EVERY {
            assert_eq!(
                drive(&mut p, &mut tally, &[9]),
                vec![9],
                "prediction {prediction}"
            );
        }
        assert!(drive(&mut p, &mut tally, &[9]).is_empty()); // prediction 8 = probe
        assert_eq!(tally.probes, 1);
        assert!(drive(&mut p, &mut tally, &[9]).is_empty()); // clean → reset
        assert_eq!(p.page_mode(9), PageMode::Demand);
        assert!(tally.demotions >= 1);
        // And it stays quiet afterwards.
        for _ in 0..8 {
            assert!(drive(&mut p, &mut tally, &[9]).is_empty());
        }
    }

    #[test]
    fn probe_budget_formula() {
        // Bounded by the probe cadence...
        assert_eq!(probe_budget(3, 100), 2 * 3 * PROBE_EVERY);
        // ...or by the run length, whichever is shorter.
        assert_eq!(probe_budget(3, 5), 2 * 3 * 5);
        assert_eq!(probe_budget(0, 10), 0);
    }

    #[test]
    fn probe_miss_keeps_the_page_promoted() {
        let mut tally = Tally::default();
        let mut p = AdaptivePolicy::new(false);
        for _ in 0..3 {
            p.note_miss(5);
            drive(&mut p, &mut tally, &[5]);
        }
        // Predictions 2..=7 prefetch while the page stays live.
        for _ in 2..PROBE_EVERY {
            assert_eq!(drive(&mut p, &mut tally, &[5]), vec![5]);
        }
        // Prediction #8 is a probe; the page is still live, so the
        // probe demand-faults and the pattern survives.
        assert!(drive(&mut p, &mut tally, &[5]).is_empty()); // probe
        p.note_miss(5);
        assert_eq!(drive(&mut p, &mut tally, &[5]), vec![5]); // prediction 9
        assert_eq!(p.page_mode(5), PageMode::Prefetch);
        assert_eq!(tally.probes, 1);
        assert_eq!(tally.demotions, 0);
    }

    #[test]
    fn locked_period_prefers_the_smallest_cycle() {
        // A constant tail is a 1-cycle even when longer cycles also fit.
        assert_eq!(locked_period(&[4, 4, 4, 4]), Some(1));
        // One deviation breaks every cycle the window can verify.
        assert_eq!(locked_period(&[4, 4, 4, 5]), None);
        // The 3∪5 union's gap cycle locks at length 7 once seen twice
        // (at a tail position where no shorter cycle fits).
        let cycle = [2u32, 1, 3, 1, 2, 3, 3];
        let mut twice: Vec<u32> = cycle.iter().chain(cycle.iter()).copied().collect();
        twice.push(2); // one step into the third cycle: tail ...3,3,2
        assert_eq!(locked_period(&twice), Some(7));
        // One repetition is not verification (tail chosen so the
        // harmless "3,3" 1-cycle doesn't fire either).
        assert_eq!(locked_period(&[2, 1, 3, 1, 2]), None);
        // The trailing "3,3" run *does* lock a 1-cycle — the spurious
        // lock the union stream tolerates because the period-5 need
        // breaks it one event before its prediction would fire.
        assert_eq!(locked_period(&cycle), Some(1));
    }

    #[test]
    fn quiesce_defers_after_identical_epochs() {
        let mut tally = Tally::default();
        let mut p = AdaptivePolicy::new(false);
        // Promote page 7 (gap 1): three confirmed needs.
        for _ in 0..3 {
            p.note_miss(7);
            drive(&mut p, &mut tally, &[7]);
        }
        // Identical picks [7] accumulate; `QUIESCE_AFTER` (2) identical
        // epochs tip the decision to deferred.
        let mut defers = Vec::new();
        for _ in 0..4 {
            let dec = decide(&mut p, &mut tally, 0, &[7]);
            assert_eq!(dec.picks, vec![7]);
            defers.push(dec.defer);
        }
        assert_eq!(defers, vec![false, true, true, true]);
    }

    #[test]
    fn quiesced_plan_acts_as_a_free_probe() {
        let mut tally = Tally::default();
        let mut p = AdaptivePolicy::new(false);
        // Promote page 7 (gap 1), then run a steady predicted stretch.
        for _ in 0..3 {
            p.note_miss(7);
            drive(&mut p, &mut tally, &[7]);
        }
        for _ in 0..3 {
            assert_eq!(drive(&mut p, &mut tally, &[7]), vec![7]);
        }
        // The protocol layer discarded the deferred plan untriggered
        // and reports it: the covered-need mark is cleared, the next
        // window closes as a non-need, and predictions stop instantly
        // — without this hook the never-performed prefetch would mask
        // the dead pattern until the probe cadence caught it.
        p.note_quiesced(0, &[7]);
        for _ in 0..6 {
            assert!(drive(&mut p, &mut tally, &[7]).is_empty());
        }
    }

    #[test]
    fn push_mode_never_defers() {
        let mut tally = Tally::default();
        let mut p = AdaptivePolicy::new(true);
        for _ in 0..3 {
            p.note_miss(4);
            drive(&mut p, &mut tally, &[4]);
        }
        // Long identical streak — pull mode would defer from the third
        // identical epoch; push mode must stay eager (a fault-triggered
        // plan would be a pull and forfeit the one-way billing).
        for _ in 0..6 {
            let dec = decide(&mut p, &mut tally, 0, &[4]);
            assert_eq!(dec.picks, vec![4]);
            assert!(dec.push);
            assert!(!dec.defer, "push plans are always eager");
        }
    }

    #[test]
    fn push_mode_predicts_what_pull_mode_predicts() {
        // The flag changes who initiates the exchange, never what the
        // predictor picks or records.
        let (mut pull_tally, mut push_tally) = (Tally::default(), Tally::default());
        let (mut pull, mut push) = (AdaptivePolicy::new(false), AdaptivePolicy::new(true));
        for t in 0..12 {
            if t < 3 || t % 3 == 0 {
                pull.note_miss(2);
                push.note_miss(2);
            }
            let a = decide(&mut pull, &mut pull_tally, 0, &[2]);
            let b = decide(&mut push, &mut push_tally, 0, &[2]);
            assert_eq!(a.picks, b.picks, "epoch {t}");
            assert_eq!(a.events, b.events, "epoch {t}");
            assert!(!a.push && b.push, "the flag rides every decision");
        }
        assert!(push_tally.promotions > 0);
    }

    #[test]
    fn phases_learn_independently_and_misses_attribute_to_the_invalidator() {
        // One page, two interleaved barrier sites: phase 1 invalidates
        // and the page is read right after (a need); phase 2 also
        // invalidates it but the read never happens in its window.
        // Phase 1 must lock and prefetch; phase 2 must stay silent —
        // under a single global axis the interleaving would read as a
        // gap-2 pattern and *both* barriers' epochs would share it.
        let mut tally = Tally::default();
        let mut p = AdaptivePolicy::new(false);
        for _ in 0..8 {
            let picks1 = decide(&mut p, &mut tally, 1, &[3]).picks;
            if picks1.is_empty() {
                p.note_miss(3); // read lands while phase 1 owns the page
            }
            let picks2 = decide(&mut p, &mut tally, 2, &[3]).picks;
            assert!(picks2.is_empty(), "phase 2 never sees a need");
        }
        assert_eq!(p.page_mode_in(3, 1), PageMode::Prefetch);
        assert_eq!(p.page_gap_in(3, 1), Some(1), "every phase-1 event needs");
        assert_eq!(p.page_mode_in(3, 2), PageMode::Demand);
        assert_eq!(p.phases_seen(), vec![1, 2]);
    }

    #[test]
    fn untagged_stream_is_single_phase() {
        let mut tally = Tally::default();
        let mut p = AdaptivePolicy::new(false);
        for _ in 0..4 {
            p.note_miss(1);
            drive(&mut p, &mut tally, &[1]);
        }
        assert_eq!(p.phases_seen(), vec![0]);
        assert_eq!(p.page_mode_in(1, 0), p.page_mode(1));
    }
}
