//! nbf — the GROMOS non-bonded-force kernel (paper §5.2, Table 2).
//!
//! "Instead of keeping a list of pairs of interacting molecules like
//! moldyn, nbf keeps a list of interacting partners for each molecule.
//! The lists of partners are concatenated together, with a per molecule
//! list pointing to the end of each molecule's partners in the partner
//! list." The partner list is *static*; each molecule has ~100 partners
//! spread evenly over about 2/3 of the total space, so "a simple BLOCK
//! partition suffices to balance the load."

mod chaos_run;
mod seq;
mod tmk;

pub use chaos_run::run_chaos;
pub use seq::run_seq;
pub use tmk::run_tmk;

use simnet::CostModel;

/// Integration step size (keeps values bounded over the 10 paper steps).
pub const DT: f64 = 0.01;

/// Configuration of one nbf experiment.
#[derive(Debug, Clone)]
pub struct NbfConfig {
    /// Number of molecules. Paper: 64×1024 = 65536, 64×1000 = 64000
    /// (the partition/page misalignment case), 32×1024 = 32768.
    pub n: usize,
    /// Partners per molecule (paper: 100).
    pub partners: usize,
    /// Timed steps (paper: "the test runs for 11 iterations, of which
    /// the last 10 iterations are timed").
    pub steps: usize,
    /// Untimed warm-up steps before the timed region (paper: 1).
    pub warmup: usize,
    pub nprocs: usize,
    pub seed: u64,
    pub page_size: usize,
    pub cost: CostModel,
}

impl NbfConfig {
    /// A paper Table-2 configuration (`n` ∈ {65536, 64000, 32768}).
    pub fn paper(n: usize) -> Self {
        NbfConfig {
            n,
            partners: 100,
            steps: 10,
            warmup: 1,
            nprocs: 8,
            seed: 1234,
            page_size: 4096,
            cost: CostModel::default(),
        }
    }

    /// Laptop-scale test configuration.
    pub fn small() -> Self {
        NbfConfig {
            n: 1024,
            partners: 12,
            steps: 3,
            warmup: 1,
            nprocs: 4,
            seed: 5,
            page_size: 1024,
            cost: CostModel::default(),
        }
    }
}

/// The generated workload: initial values and the partner structure.
#[derive(Debug, Clone)]
pub struct NbfWorld {
    /// Initial coordinate of each molecule ("Each molecule is
    /// represented by a double precision floating point number").
    pub x0: Vec<f64>,
    /// Concatenated partner lists, 1-based molecule ids (Fortran-style).
    pub partners: Vec<i32>,
    /// `last[i]` = end offset (exclusive, 0-based) of molecule i-1's
    /// partners; `last[0] = 0` — the paper's per-molecule end-pointer
    /// array, with the conventional 0 sentinel.
    pub last: Vec<i32>,
}

/// Build the partner structure: molecule `i`'s k-th partner is
/// `(i + (k+1)·stride) mod n` with `stride ≈ 2n/(3·partners)` — partners
/// spread evenly over about 2/3 of the space, matching §5.2 ("the
/// partners of each molecule spread evenly in about 2/3 of the total
/// space"; "the distance between two adjacent partners of a molecule is
/// about 4% molecules" holds at the paper's 16-molecule-per-page scale).
pub fn gen_world(cfg: &NbfConfig) -> NbfWorld {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let n = cfg.n;
    let stride = (2 * n / (3 * cfg.partners)).max(1);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let x0: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let mut partners = Vec::with_capacity(n * cfg.partners);
    let mut last = Vec::with_capacity(n + 1);
    last.push(0);
    for i in 0..n {
        for k in 0..cfg.partners {
            let j = (i + (k + 1) * stride) % n;
            partners.push(j as i32 + 1); // 1-based
        }
        last.push(partners.len() as i32);
    }
    NbfWorld { x0, partners, last }
}

/// The pair kernel, identical in every build: a bounded deterministic
/// stand-in for the GROMOS non-bonded force.
#[inline]
pub fn nbf_force(xi: f64, xj: f64) -> f64 {
    (xi - xj) * 1e-4
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn world_structure() {
        let cfg = NbfConfig::small();
        let w = gen_world(&cfg);
        assert_eq!(w.partners.len(), cfg.n * cfg.partners);
        assert_eq!(w.last.len(), cfg.n + 1);
        assert_eq!(w.last[0], 0);
        assert_eq!(*w.last.last().unwrap() as usize, w.partners.len());
        // Every molecule's list has exactly `partners` entries.
        for i in 0..cfg.n {
            assert_eq!(w.last[i + 1] - w.last[i], cfg.partners as i32);
        }
        // Partner ids are valid and 1-based.
        assert!(w.partners.iter().all(|&p| p >= 1 && p <= cfg.n as i32));
    }

    #[test]
    fn partners_span_two_thirds() {
        let cfg = NbfConfig::paper(65536);
        let w = gen_world(&cfg);
        // Molecule 0's farthest partner ≈ 2n/3 away.
        let far = w.partners[..cfg.partners]
            .iter()
            .map(|&p| p as usize - 1)
            .max()
            .unwrap();
        let frac = far as f64 / cfg.n as f64;
        assert!((0.55..0.75).contains(&frac), "{frac}");
    }

    #[test]
    fn generation_deterministic() {
        let cfg = NbfConfig::small();
        assert_eq!(gen_world(&cfg).x0, gen_world(&cfg).x0);
    }
}
