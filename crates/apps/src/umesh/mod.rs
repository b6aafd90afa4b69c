//! umesh — unstructured-mesh edge relaxation, the third classic irregular
//! workload (the paper's related work compares on "unstructured"; its
//! introduction motivates exactly this class of code).
//!
//! A static mesh: `n` nodes on a jittered 2-D grid, edges = 4-neighbour
//! grid links plus a seeded sprinkle of long-range links. Each sweep
//! computes a flux per edge from the endpoint values — through the edge
//! list as indirection array — accumulates into both endpoints, and
//! relaxes the node values. Structure-wise this is nbf with a *pair*
//! list (like moldyn) but a *static* one (like nbf), so it exercises the
//! remaining corner of the design space.
//!
//! umesh keeps only the mesh: [`gen_mesh`] builds it, and
//! [`crate::workload::UmeshWorkload`] runs it, as a one-version world,
//! on the owner-side relaxation kernel every `synth` scenario runs
//! ([`crate::relax`]). Nodes are BLOCK-partitioned by grid row (spatial
//! locality), and every build accumulates a node's fluxes on the node's
//! owner in global edge order, so seq, the four Tmk builds and CHAOS
//! agree bitwise — the one bitwise contract of the three classic
//! workloads. Each sweep closes on the [`crate::phases::UPDATE`]
//! barrier. The mesh is static: CHAOS inspects once, `Validate` scans
//! the edge list once, and the adaptive builds promote the whole
//! ghost-page set from the second sweep on, collapsing the per-sweep
//! demand traffic into one exchange per neighbouring partition. A
//! static mesh cannot dissolve that pattern, so probes are pure
//! re-validation and the default [`adapt::AdaptConfig`] is fine.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simnet::CostModel;

/// Relaxation weight per sweep.
pub const KAPPA: f64 = 0.05;

/// Modeled cost of one edge-flux evaluation. Mesh kernels of this era
/// computed a nontrivial per-edge stencil (upwinding, limiters); 25 µs
/// keeps the workload compute-bound at the 1997 cost scale, like the
/// paper's two applications. Charged per *incident visit* — the
/// owner-side reduction evaluates an edge once per distinct endpoint
/// owner, so cross-partition edges cost it twice.
pub const EDGE_US: f64 = 25.0;

#[derive(Debug, Clone)]
pub struct UmeshConfig {
    /// Grid side (nodes = side²).
    pub side: usize,
    /// Extra long-range edges as a fraction of grid edges.
    pub longrange_frac: f64,
    pub sweeps: usize,
    pub nprocs: usize,
    pub seed: u64,
    pub page_size: usize,
    pub cost: CostModel,
}

impl UmeshConfig {
    pub fn small() -> Self {
        UmeshConfig {
            side: 32,
            longrange_frac: 0.05,
            sweeps: 4,
            nprocs: 4,
            seed: 11,
            page_size: 1024,
            cost: CostModel::default(),
        }
    }

    pub fn medium() -> Self {
        UmeshConfig {
            side: 128,
            longrange_frac: 0.05,
            sweeps: 10,
            nprocs: 8,
            seed: 11,
            page_size: 4096,
            cost: CostModel::default(),
        }
    }

    pub fn n(&self) -> usize {
        self.side * self.side
    }
}

/// The generated mesh: initial node values and the edge list (0-based
/// endpoint pairs, `a < b`, sorted — deterministic for a given seed).
#[derive(Debug, Clone)]
pub struct Mesh {
    pub x0: Vec<f64>,
    pub edges: Vec<(u32, u32)>,
}

pub fn gen_mesh(cfg: &UmeshConfig) -> Mesh {
    let side = cfg.side;
    let n = cfg.n();
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let x0: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..100.0)).collect();
    let mut edges = Vec::new();
    for r in 0..side {
        for c in 0..side {
            let a = (r * side + c) as u32;
            if c + 1 < side {
                edges.push((a, a + 1));
            }
            if r + 1 < side {
                edges.push((a, a + side as u32));
            }
        }
    }
    let extra = (edges.len() as f64 * cfg.longrange_frac) as usize;
    for _ in 0..extra {
        let a = rng.gen_range(0..n as u32);
        let b = rng.gen_range(0..n as u32);
        if a != b {
            edges.push((a.min(b), a.max(b)));
        }
    }
    edges.sort_unstable();
    edges.dedup();
    Mesh { x0, edges }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{UmeshWorkload, Variant, Workload};
    use simnet::SimTime;

    #[test]
    fn mesh_generation_structure() {
        let cfg = UmeshConfig::small();
        let m = gen_mesh(&cfg);
        assert_eq!(m.x0.len(), 1024);
        // Grid edges: 2·side·(side-1) = 1984, plus some long-range.
        assert!(m.edges.len() >= 1984);
        for &(a, b) in &m.edges {
            assert!(a < b, "edges normalized");
            assert!((b as usize) < cfg.n());
        }
        // Deterministic.
        assert_eq!(gen_mesh(&cfg).edges, m.edges);
    }

    #[test]
    fn static_mesh_schedule_computed_once() {
        let w = UmeshWorkload::new(UmeshConfig::small());
        let (seq, _) = w.run(Variant::Seq, SimTime::ZERO);
        let (rep, _) = w.run(Variant::TmkOpt, seq.time);
        // The edge list never changes: one Read_indices pass total, so
        // the per-processor scan time is tiny relative to the sweep work.
        assert!(rep.validate_scan_s < seq.time.as_secs_f64() / 10.0);
    }

    #[test]
    fn zero_sweeps_leave_the_initial_values() {
        let mut cfg = UmeshConfig::small();
        cfg.sweeps = 0;
        let x0 = gen_mesh(&cfg).x0;
        let m = crate::workload::run_matrix(&UmeshWorkload::new(cfg));
        assert!(m.runs.iter().all(|r| r.x == x0));
    }

    #[test]
    fn relaxation_converges() {
        // Diffusion must shrink the value spread monotonically-ish.
        let mut cfg = UmeshConfig::small();
        cfg.sweeps = 30;
        let x0 = gen_mesh(&cfg).x0;
        let (_, x) = UmeshWorkload::new(cfg).run(Variant::Seq, SimTime::ZERO);
        let spread = |v: &[f64]| {
            let mx = v.iter().cloned().fold(f64::MIN, f64::max);
            let mn = v.iter().cloned().fold(f64::MAX, f64::min);
            mx - mn
        };
        assert!(spread(&x) < spread(&x0) * 0.9);
    }
}
