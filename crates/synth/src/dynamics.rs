//! Indirection-array dynamics: *when and how* the interaction list
//! changes over the run. This axis is what separates the paper's three
//! kernels (nbf: static; moldyn: periodic wholesale rebuild) and what
//! the adaptive engine's need-gap predictor feeds on — including the
//! multi-periodic interleavings no fixed app exercises.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::structure::Structure;

/// How the indirection array evolves across iterations.
#[derive(Debug, Clone, PartialEq)]
pub enum Dynamics {
    /// The list never changes (nbf's regime: inspector amortizes
    /// perfectly, CHAOS should win).
    Static,
    /// The whole list is regenerated every `period` iterations
    /// (moldyn's regime, parameterized).
    PeriodicRemap { period: usize },
    /// Incremental drift: every iteration, `per_mille`/1000 of the raw
    /// candidate pairs are rewritten — the list is never stable, but
    /// most of it survives each step.
    Drift { per_mille: u32 },
    /// Two halves of the list remapping on different periods — the
    /// multi-periodic need-gap pattern from the ROADMAP's untested
    /// adaptive directions (e.g. period 3 interleaved with period 5).
    MultiPeriodic { p1: usize, p2: usize },
    /// Iterations alternate between two fixed lists: A, B, A, B, … —
    /// the **two-phase multi-barrier regime** of the classic apps
    /// (coordinate pages at one barrier, force chunks at the next) in
    /// isolation. Each parity reads a different page set, so
    /// consecutive barrier picks always differ and a globally-keyed
    /// quiesce streak provably never fires; the kernel tags its
    /// barriers per parity, and the phase-keyed engine locks both.
    Alternating,
    /// A **regime break**: the run follows `from` strictly before
    /// iteration `at`, then switches to `to` (with a salted seed, so
    /// the list changes at the break even when both sides name the
    /// same regime) — at an iteration no learner was told about. This
    /// is the churn axis the adaptive engine's probe budget bounds.
    /// Sides must be plain regimes (no nesting, no [`Dynamics::Rebalance`],
    /// and no [`Dynamics::Alternating`] — parity phase tagging is a
    /// whole-run property).
    RegimeShift {
        /// First iteration governed by `to`.
        at: u32,
        /// Regime in force for iterations `0..at`.
        from: Box<Dynamics>,
        /// Regime in force from iteration `at` on.
        to: Box<Dynamics>,
    },
    /// A mid-run **partition rebalance**: the list itself is static,
    /// but at iteration `at` every element's owner is re-cut (the
    /// block partition rotates by one processor). The list versions
    /// never change, so CHAOS's amortized `Partition`/`CommSchedule`
    /// goes stale silently — it must detect that, migrate owned data,
    /// and re-pay inspection; the Tmk variants just write/fetch their
    /// new sections through the DSM.
    Rebalance {
        /// First iteration under the re-cut partition.
        at: u32,
    },
}

impl Dynamics {
    /// Short tag for scenario labels.
    pub fn tag(&self) -> String {
        match self {
            Dynamics::Static => "static".into(),
            Dynamics::PeriodicRemap { period } => format!("remap{period}"),
            Dynamics::Drift { per_mille } => format!("drift{per_mille}"),
            Dynamics::MultiPeriodic { p1, p2 } => format!("multi{p1}x{p2}"),
            Dynamics::Alternating => "alt2".into(),
            Dynamics::RegimeShift { at, from, to } => {
                format!("shift{at}:{}>{}", from.tag(), to.tag())
            }
            Dynamics::Rebalance { at } => format!("rebal{at}"),
        }
    }

    /// A value that changes exactly when the effective list changes.
    /// Iterations are 0-based; iteration 0 always has version
    /// `self.version(0)` built untimed during initialization.
    pub fn version(&self, iter: usize) -> u64 {
        match self {
            Dynamics::Static => 0,
            Dynamics::PeriodicRemap { period } => (iter / period) as u64,
            Dynamics::Drift { .. } => iter as u64,
            Dynamics::MultiPeriodic { p1, p2 } => (((iter / p1) as u64) << 32) | (iter / p2) as u64,
            Dynamics::Alternating => (iter % 2) as u64,
            // The high bit separates the two sides' version spaces, so
            // the break is a version change even when `to` restarts its
            // own numbering at 0 (side versions stay below 2^63: packed
            // iteration counters, never full-width hashes).
            Dynamics::RegimeShift { at, from, to } => {
                if iter < *at as usize {
                    from.version(iter)
                } else {
                    (1 << 63) | to.version(iter)
                }
            }
            Dynamics::Rebalance { .. } => 0,
        }
    }

    /// Does the list change at (the start of) `iter`, relative to
    /// `iter - 1`? Iteration 0 is the untimed initial build.
    #[cfg(test)]
    fn remaps_at(&self, iter: usize) -> bool {
        iter > 0 && self.version(iter) != self.version(iter - 1)
    }

    /// The partition epoch in force at `iter`: 0 until a
    /// [`Dynamics::Rebalance`] re-cut fires, 1 after. Every other
    /// regime keeps a single partition for the whole run.
    pub fn partition_epoch(&self, iter: usize) -> usize {
        match self {
            Dynamics::Rebalance { at } => usize::from(iter >= *at as usize),
            _ => 0,
        }
    }

    /// Number of distinct partition epochs a run of `iters` iterations
    /// sees (2 iff a rebalance actually fires inside the run).
    pub fn partition_epochs(&self, iters: usize) -> usize {
        match self {
            Dynamics::Rebalance { at } if (*at as usize) < iters => 2,
            _ => 1,
        }
    }

    /// Is this one of the churn regimes (a mid-run break no learner
    /// was told about)? Steady-state acceptance bars (adaptive ≤ base
    /// per cell) relax to the probe-budget bound exactly here.
    pub fn is_churn(&self) -> bool {
        matches!(
            self,
            Dynamics::RegimeShift { .. } | Dynamics::Rebalance { .. }
        )
    }

    /// Panic on regimes the kernel cannot schedule: `RegimeShift`
    /// sides must be plain (nesting would need recursive version
    /// salting, and `Alternating` drives whole-run parity phase tags).
    pub fn validate(&self) {
        if let Dynamics::RegimeShift { from, to, .. } = self {
            for side in [from.as_ref(), to.as_ref()] {
                assert!(
                    !matches!(
                        side,
                        Dynamics::RegimeShift { .. }
                            | Dynamics::Rebalance { .. }
                            | Dynamics::Alternating
                    ),
                    "RegimeShift sides must be plain regimes, got {}",
                    side.tag()
                );
            }
        }
    }
}

/// SplitMix-style mixer for deriving per-version generator seeds.
pub(crate) fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The raw candidate list in force at `iter` (before [`normalize`]):
/// a pure function of `(structure, dynamics, n, refs, seed, iter)`, so
/// every variant sees the identical structure with no shared state.
///
/// [`normalize`]: crate::structure::normalize
pub fn raw_for_iter(
    structure: &Structure,
    dynamics: &Dynamics,
    n: usize,
    refs: usize,
    seed: u64,
    iter: usize,
) -> Vec<(u32, u32)> {
    match dynamics {
        Dynamics::Static => structure.gen_raw(n, refs, seed),
        Dynamics::PeriodicRemap { period } => {
            structure.gen_raw(n, refs, mix(seed, (iter / period) as u64))
        }
        Dynamics::Drift { per_mille } => {
            let mut raw = structure.gen_raw(n, refs, seed);
            for round in 1..=iter {
                drift_round(structure, &mut raw, n, seed, round, *per_mille);
            }
            raw
        }
        Dynamics::MultiPeriodic { p1, p2 } => {
            let half = refs / 2;
            let mut raw = structure.gen_raw(n, half, mix(seed ^ 0x5150, (iter / p1) as u64));
            raw.extend(structure.gen_raw(n, refs - half, mix(seed ^ 0xA0A0, (iter / p2) as u64)));
            raw
        }
        Dynamics::Alternating => structure.gen_raw(n, refs, mix(seed ^ 0xA172, (iter % 2) as u64)),
        Dynamics::RegimeShift { at, from, to } => {
            if iter < *at as usize {
                raw_for_iter(structure, from, n, refs, seed, iter)
            } else {
                // The salted seed makes the break a real list change
                // even for `from == to` (e.g. static → static), and
                // keeps the post-break regime blind to pre-break state.
                raw_for_iter(structure, to, n, refs, mix(seed, 0x5117_F00D), iter)
            }
        }
        Dynamics::Rebalance { .. } => structure.gen_raw(n, refs, seed),
    }
}

/// One drift round applied in place: rewrite `per_mille`/1000 of the
/// raw candidates, deterministically in `(seed, round)`. Exposed so
/// `gen_world` can evolve a drift list incrementally — round `r` builds
/// on round `r-1` — instead of replaying every round from scratch per
/// iteration (which made setup quadratic in iteration count).
pub fn drift_round(
    structure: &Structure,
    raw: &mut [(u32, u32)],
    n: usize,
    seed: u64,
    round: usize,
    per_mille: u32,
) {
    let refs = raw.len();
    let k = (refs * per_mille as usize / 1000).max(1);
    let mut rng = StdRng::seed_from_u64(mix(seed, round as u64));
    for _ in 0..k {
        let at = rng.gen_range(0..refs);
        raw[at] = structure.gen_pair(n, &mut rng);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::structure::normalize;

    const S: Structure = Structure::Uniform;

    #[test]
    fn version_schedules() {
        let d = Dynamics::PeriodicRemap { period: 3 };
        let versions: Vec<u64> = (0..10).map(|i| d.version(i)).collect();
        assert_eq!(versions, vec![0, 0, 0, 1, 1, 1, 2, 2, 2, 3]);
        assert!(!d.remaps_at(0));
        assert!(d.remaps_at(3) && d.remaps_at(6) && d.remaps_at(9));
        assert!(!d.remaps_at(4));

        assert_eq!(Dynamics::Static.version(99), 0);
        assert!(Dynamics::Drift { per_mille: 10 }.remaps_at(1));
    }

    #[test]
    fn multi_periodic_changes_on_either_period() {
        let d = Dynamics::MultiPeriodic { p1: 3, p2: 5 };
        let remaps: Vec<usize> = (1..16).filter(|&i| d.remaps_at(i)).collect();
        assert_eq!(remaps, vec![3, 5, 6, 9, 10, 12, 15]);
    }

    #[test]
    fn static_list_is_constant_and_remap_changes_it() {
        let a = raw_for_iter(&S, &Dynamics::Static, 256, 512, 1, 0);
        let b = raw_for_iter(&S, &Dynamics::Static, 256, 512, 1, 7);
        assert_eq!(a, b);
        let d = Dynamics::PeriodicRemap { period: 2 };
        let v0 = raw_for_iter(&S, &d, 256, 512, 1, 1);
        let v1 = raw_for_iter(&S, &d, 256, 512, 1, 2);
        assert_ne!(v0, v1);
        assert_eq!(v1, raw_for_iter(&S, &d, 256, 512, 1, 3));
    }

    #[test]
    fn drift_changes_little_per_iteration() {
        let d = Dynamics::Drift { per_mille: 20 };
        let a = raw_for_iter(&S, &d, 256, 1000, 1, 4);
        let b = raw_for_iter(&S, &d, 256, 1000, 1, 5);
        let changed = a.iter().zip(&b).filter(|(x, y)| x != y).count();
        assert!(changed > 0, "drift must change something");
        assert!(changed <= 20, "drift changed {changed} > 2% of refs");
        // Cumulative application is deterministic.
        assert_eq!(b, raw_for_iter(&S, &d, 256, 1000, 1, 5));
    }

    #[test]
    fn multi_periodic_halves_move_independently() {
        let d = Dynamics::MultiPeriodic { p1: 3, p2: 5 };
        let half = 500;
        // Iter 3: p1 half remapped, p2 half unchanged (vs iter 2).
        let a = raw_for_iter(&S, &d, 256, 1000, 1, 2);
        let b = raw_for_iter(&S, &d, 256, 1000, 1, 3);
        assert_ne!(a[..half], b[..half]);
        assert_eq!(a[half..], b[half..]);
        // Iter 5: p2 half remapped, p1 half unchanged (vs iter 4).
        let c = raw_for_iter(&S, &d, 256, 1000, 1, 4);
        let e = raw_for_iter(&S, &d, 256, 1000, 1, 5);
        assert_eq!(c[..half], e[..half]);
        assert_ne!(c[half..], e[half..]);
    }

    #[test]
    fn alternating_reuses_exactly_two_lists() {
        let d = Dynamics::Alternating;
        let versions: Vec<u64> = (0..8).map(|i| d.version(i)).collect();
        assert_eq!(versions, vec![0, 1, 0, 1, 0, 1, 0, 1]);
        assert!((1..8).all(|i| d.remaps_at(i)), "every iteration flips");
        let a0 = raw_for_iter(&S, &d, 256, 512, 1, 0);
        let b1 = raw_for_iter(&S, &d, 256, 512, 1, 1);
        assert_ne!(a0, b1, "the two lists differ");
        assert_eq!(a0, raw_for_iter(&S, &d, 256, 512, 1, 2), "A repeats");
        assert_eq!(b1, raw_for_iter(&S, &d, 256, 512, 1, 3), "B repeats");
    }

    #[test]
    fn normalized_lists_nonempty_for_all_dynamics() {
        for d in [
            Dynamics::Static,
            Dynamics::PeriodicRemap { period: 3 },
            Dynamics::Drift { per_mille: 10 },
            Dynamics::MultiPeriodic { p1: 3, p2: 5 },
            Dynamics::Alternating,
            Dynamics::RegimeShift {
                at: 4,
                from: Box::new(Dynamics::Static),
                to: Box::new(Dynamics::PeriodicRemap { period: 2 }),
            },
            Dynamics::Rebalance { at: 4 },
        ] {
            for it in 0..8 {
                assert!(!normalize(&raw_for_iter(&S, &d, 128, 400, 9, it)).is_empty());
            }
        }
    }

    #[test]
    fn regime_shift_breaks_exactly_once_even_static_to_static() {
        let d = Dynamics::RegimeShift {
            at: 5,
            from: Box::new(Dynamics::Static),
            to: Box::new(Dynamics::Static),
        };
        d.validate();
        assert_eq!(d.tag(), "shift5:static>static");
        let remaps: Vec<usize> = (1..10).filter(|&i| d.remaps_at(i)).collect();
        assert_eq!(remaps, vec![5], "one break, at the shift point");
        // The break is a real list change: the to-side seed is salted.
        let pre = raw_for_iter(&S, &d, 256, 512, 1, 4);
        let post = raw_for_iter(&S, &d, 256, 512, 1, 5);
        assert_ne!(pre, post);
        assert_eq!(pre, raw_for_iter(&S, &d, 256, 512, 1, 0));
        assert_eq!(post, raw_for_iter(&S, &d, 256, 512, 1, 9));
        // No partition churn on this axis.
        assert_eq!(d.partition_epochs(10), 1);
        assert!(d.is_churn());
    }

    #[test]
    fn regime_shift_delegates_version_schedules_to_both_sides() {
        let d = Dynamics::RegimeShift {
            at: 5,
            from: Box::new(Dynamics::PeriodicRemap { period: 2 }),
            to: Box::new(Dynamics::PeriodicRemap { period: 3 }),
        };
        let remaps: Vec<usize> = (1..12).filter(|&i| d.remaps_at(i)).collect();
        // From-side remaps at 2, 4; the break at 5; to-side at 6, 9.
        assert_eq!(remaps, vec![2, 4, 5, 6, 9]);
        // Side version spaces never collide (high bit separates them).
        for pre in 0..5 {
            for post in 5..12 {
                assert_ne!(d.version(pre), d.version(post));
            }
        }
    }

    #[test]
    fn rebalance_keeps_the_list_but_recuts_the_partition() {
        let d = Dynamics::Rebalance { at: 4 };
        assert_eq!(d.tag(), "rebal4");
        assert!((1..10).all(|i| !d.remaps_at(i)), "the list is static");
        assert_eq!(
            raw_for_iter(&S, &d, 256, 512, 1, 0),
            raw_for_iter(&S, &d, 256, 512, 1, 9)
        );
        let epochs: Vec<usize> = (0..8).map(|i| d.partition_epoch(i)).collect();
        assert_eq!(epochs, vec![0, 0, 0, 0, 1, 1, 1, 1]);
        assert_eq!(d.partition_epochs(10), 2);
        assert_eq!(d.partition_epochs(4), 1, "break past the run is inert");
        assert!(d.is_churn());
        assert!(!Dynamics::Static.is_churn());
    }

    #[test]
    #[should_panic(expected = "plain regimes")]
    fn nested_regime_shift_is_rejected() {
        Dynamics::RegimeShift {
            at: 3,
            from: Box::new(Dynamics::Alternating),
            to: Box::new(Dynamics::Static),
        }
        .validate();
    }
}
