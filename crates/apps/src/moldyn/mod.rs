//! moldyn — molecular dynamics with a periodically rebuilt interaction
//! list (paper §5.1, Figure 1, Table 1). Every variant runs on
//! [`crate::pair`], with [`crate::workload::MoldynWorkload::new`]'s data.

mod geometry;

pub use geometry::{build_interaction_list_for, gen_positions, pair_force, MoldynWorld};

use simnet::CostModel;

/// [`pair_force`] with its squared cutoff: the pair kernel's law.
pub struct Force(pub f64);

impl crate::pair::Law<3> for Force {
    fn force(&self, xi: &[f64; 3], xj: &[f64; 3]) -> [f64; 3] {
        pair_force(xi, xj, self.0)
    }
}

/// Integration step size: small enough that the stale interaction list
/// stays physically sensible between rebuilds, large enough that every
/// position changes every step (so x pages really invalidate, as in the
/// paper's runs).
pub const DT: f64 = 1e-3;

/// Configuration of one moldyn experiment.
#[derive(Debug, Clone)]
pub struct MoldynConfig {
    /// Number of molecules (paper: 16384).
    pub n: usize,
    /// Simulation steps (paper: 40).
    pub steps: usize,
    /// Rebuild the interaction list when `(step-1) % update_interval == 0`
    /// (steps count from 1; the initial build is untimed initialization).
    /// Paper Table 1: 20, 15, 11 → 1, 2, 3 timed rebuilds over 40 steps.
    pub update_interval: usize,
    pub nprocs: usize,
    /// Cutoff radius as a fraction of the box edge. 1/8 reproduces the
    /// paper's workload character: each processor's interaction
    /// neighbourhood reaches 30–50% of all molecules (§5.1: "between 31%
    /// and 53% of the molecules interact"), and every processor
    /// contributes to every RCB octant's force pages.
    pub cutoff_frac: f64,
    pub seed: u64,
    pub page_size: usize,
    pub cost: CostModel,
}

impl MoldynConfig {
    /// The paper's Table 1 configuration.
    pub fn paper(update_interval: usize) -> Self {
        MoldynConfig {
            n: 16384,
            steps: 40,
            update_interval,
            nprocs: 8,
            cutoff_frac: 0.125,
            seed: 42,
            page_size: 4096,
            cost: CostModel::default(),
        }
    }

    /// A laptop-scale configuration for tests (same structure, ~1s).
    pub fn small() -> Self {
        MoldynConfig {
            n: 512,
            steps: 6,
            update_interval: 3,
            nprocs: 4,
            cutoff_frac: 0.3,
            seed: 7,
            page_size: 1024,
            cost: CostModel::default(),
        }
    }

    /// Steps at which the list is rebuilt (timed region).
    pub fn rebuild_steps(&self) -> Vec<usize> {
        (1..=self.steps)
            .filter(|&s| s > 1 && (s - 1) % self.update_interval == 0)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{MoldynWorkload, Variant, Workload};
    use simnet::SimTime;

    fn seq(cfg: MoldynConfig) -> (crate::RunReport, Vec<f64>) {
        MoldynWorkload::new(cfg).run(Variant::Seq, SimTime::ZERO)
    }

    #[test]
    fn sequential_is_deterministic() {
        let (a, xa) = seq(MoldynConfig::small());
        let (b, xb) = seq(MoldynConfig::small());
        assert_eq!(xa, xb);
        assert_eq!(a.time, b.time);
        assert!(a.checksum > 0.0);
    }

    #[test]
    fn molecules_actually_move() {
        let cfg = MoldynConfig::small();
        let pos = gen_positions(&cfg).pos;
        let (_, x) = seq(cfg.clone());
        let moved = x.chunks_exact(3).zip(&pos).filter(|(a, b)| a != b).count();
        assert!(
            moved > cfg.n / 2,
            "most molecules must move ({moved}/{})",
            cfg.n
        );
    }

    #[test]
    fn more_rebuilds_cost_more_time() {
        let at_interval = |update_interval| MoldynConfig {
            update_interval,
            ..MoldynConfig::small()
        };
        let t1 = seq(at_interval(5)).0.time; // 1 rebuild over 6 steps
        let t3 = seq(at_interval(2)).0.time; // rebuilds at 3, 5
        assert!(t3 > t1);
    }

    #[test]
    fn paper_scale_sequential_time() {
        // The time formula is exact (counts × constants), so the model's
        // composition is checked at small scale.
        let (r, _) = seq(MoldynConfig::small());
        assert!(r.time > SimTime::ZERO);
        assert_eq!(r.messages, 0);
    }

    #[test]
    fn rebuild_schedule_matches_table1() {
        // "varying the number of times the interaction list is updated
        //  from 1 through 3" over 40 steps at intervals 20/15/11.
        assert_eq!(MoldynConfig::paper(20).rebuild_steps(), vec![21]);
        assert_eq!(MoldynConfig::paper(15).rebuild_steps(), vec![16, 31]);
        assert_eq!(MoldynConfig::paper(11).rebuild_steps(), vec![12, 23, 34]);
    }
}
