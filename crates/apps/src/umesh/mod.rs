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
//! ## Deterministic reduction: fixed-order owner-side accumulation
//!
//! Every parallel build accumulates a node's fluxes **on the node's
//! owner, in global edge order**: the owner of node `i` walks `i`'s
//! incident edges (sorted as the global edge list is sorted), computes
//! each flux itself from the coherent start-of-sweep values, and applies
//! the contributions in exactly the order the sequential sweep does.
//! Each edge is therefore computed by up to two processors — a modest
//! compute duplication that buys a *bitwise* contract: seq, Tmk base,
//! Tmk optimized, Tmk adaptive, and CHAOS all produce identical bit
//! patterns, extending the bitwise cross-check to the third workload.
//! (The earlier owner-last pipelined reduction merged per-processor
//! partial sums, which reassociates floating-point addition and only
//! agreed to 1e-9.)

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rsd::{Dim, Rsd};
use sdsm_core::{validate, AccessType, Cluster, Desc, DsmConfig, RegionRef, Validator};
use simnet::{CostModel, SimTime};

use chaos::{block_partition, gather, inspector, ChaosWorld, Ghosted, TTable, TTableCache, TTableKind};

use crate::harness::{install_policy, Capture};
use crate::report::{RunReport, Variant};
use crate::work;

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

/// Per-node incident edges, in global (sorted) edge order — the order in
/// which the sequential sweep touches each node's accumulator. This is
/// the fixed order every owner-side reduction replays.
fn incident_lists(n: usize, edges: &[(u32, u32)]) -> Vec<Vec<(u32, u32)>> {
    let mut inc: Vec<Vec<(u32, u32)>> = vec![Vec::new(); n];
    for &(a, b) in edges {
        inc[a as usize].push((a, b));
        inc[b as usize].push((a, b));
    }
    inc
}

/// One node's contribution from one incident edge, exactly as the
/// sequential sweep applies it.
#[inline]
fn accumulate(acc: &mut f64, node: u32, a: u32, flux: f64) {
    if node == a {
        *acc -= flux;
    } else {
        *acc += flux;
    }
}

/// One relaxation sweep over plain slices (the shared physics kernel).
fn sweep(x: &[f64], edges: &[(u32, u32)], acc: &mut [f64]) {
    acc.iter_mut().for_each(|a| *a = 0.0);
    for &(a, b) in edges {
        let flux = (x[a as usize] - x[b as usize]) * KAPPA;
        acc[a as usize] -= flux;
        acc[b as usize] += flux;
    }
}

pub struct SeqResult {
    pub report: RunReport,
    pub x: Vec<f64>,
}

pub fn run_seq(cfg: &UmeshConfig, mesh: &Mesh) -> SeqResult {
    let n = cfg.n();
    let mut x = mesh.x0.clone();
    let mut acc = vec![0.0f64; n];
    let mut time = SimTime::ZERO;
    for _ in 0..cfg.sweeps {
        sweep(&x, &mesh.edges, &mut acc);
        for (xi, a) in x.iter_mut().zip(&acc) {
            *xi += a;
        }
        time += work::t(EDGE_US, mesh.edges.len()) + work::t(work::ZERO_US, 2 * n);
    }
    let checksum = x.iter().map(|v| v.abs()).sum();
    SeqResult {
        report: RunReport::sequential(time, checksum),
        x,
    }
}

/// umesh on the DSM as one of the [`Variant::TMK`] builds. Nodes are
/// BLOCK-partitioned by grid row (spatial locality); each sweep, every
/// processor reads its nodes' incident endpoints through the shared
/// edge list, accumulates owner-side in global edge order, and updates
/// only its own block — one barrier per sweep, bitwise-equal results.
///
/// Under the adaptive builds the "invalidate → fault" pattern is
/// perfectly periodic from the second sweep on (the mesh is static and
/// the owner-side reduction reads the same remote endpoint pages every
/// sweep): the engine promotes the whole ghost-page set and the
/// per-sweep demand traffic collapses into one exchange per
/// neighbouring partition — CHAOS's gather shape, discovered without an
/// inspector. A static mesh cannot dissolve the pattern, so probes are
/// pure re-validation and the default [`adapt::AdaptConfig`] is fine.
pub fn run_tmk(
    cfg: &UmeshConfig,
    mesh: &Mesh,
    variant: Variant,
    seq_time: SimTime,
) -> (RunReport, Vec<f64>) {
    variant.expect_tmk("umesh::run_tmk");
    let n = cfg.n();
    let nprocs = cfg.nprocs;
    let part = block_partition(n, nprocs);
    let incident = incident_lists(n, &mesh.edges);

    // Per-processor incident sections: Σ deg(i) entries over owned nodes.
    let flat_counts: Vec<usize> = (0..nprocs)
        .map(|q| part.range_of(q).map(|i| incident[i].len()).sum())
        .collect();
    let cap_pp = flat_counts.iter().copied().max().unwrap() + 1;

    let cl = Cluster::new(DsmConfig {
        nprocs,
        page_size: cfg.page_size,
        cost: cfg.cost.clone(),
    });
    let x = cl.alloc::<f64>(n);
    let ilist = cl.alloc::<i32>(2 * cap_pp * nprocs);

    let ranks = cl.run(|p| {
        install_policy(p, variant, &adapt::AdaptConfig::default());
        let me = p.rank();
        let my = part.range_of(me);
        let my_flat = flat_counts[me];
        let my_start = me * cap_pp;
        let mut v = if variant == Variant::TmkOpt {
            Validator::incremental()
        } else {
            Validator::new()
        };
        let mut acc = vec![0.0f64; my.len()];

        // untimed init: own block of x, own incident section of the list
        for i in my.clone() {
            p.write(&x, i, mesh.x0[i]);
        }
        let mut k = my_start;
        for i in my.clone() {
            for &(a, b) in &incident[i] {
                p.write(&ilist, 2 * k, a as i32 + 1);
                p.write(&ilist, 2 * k + 1, b as i32 + 1);
                k += 1;
            }
        }
        // The init barrier is the first invalidation of the same pages
        // the sweep barrier re-invalidates every iteration — same site,
        // same tag, so the phase's event axis starts here (exactly the
        // axis the untagged engine saw).
        p.barrier_tagged(crate::phases::UPDATE);
        p.start_timed_region();
        p.reset_counters();

        for _sweep in 0..cfg.sweeps {
            if variant == Variant::TmkOpt && my_flat > 0 {
                validate(
                    p,
                    &mut v,
                    &[
                        // The endpoint reads, through the static list.
                        Desc::Indirect {
                            data: RegionRef::of(&x),
                            ind: ilist,
                            ind_dims: vec![2, cap_pp * nprocs],
                            section: Rsd::new(vec![
                                Dim::dense(1, 2),
                                Dim::dense(my_start as i64 + 1, (my_start + my_flat) as i64),
                            ]),
                            access: AccessType::Read,
                            sched: 1,
                        },
                        // The owner-side x update over my block.
                        Desc::Direct {
                            data: RegionRef::of(&x),
                            section: Rsd::dense1(my.start as i64 + 1, my.end as i64),
                            access: AccessType::ReadWriteAll,
                            sched: 2,
                        },
                    ],
                );
            }
            // Fixed-order owner-side accumulation: node by node, each
            // node's incident edges in global edge order.
            acc.iter_mut().for_each(|a| *a = 0.0);
            let mut k = my_start;
            for (li, i) in my.clone().enumerate() {
                for _ in 0..incident[i].len() {
                    let a = p.read(&ilist, 2 * k) as u32 - 1;
                    let b = p.read(&ilist, 2 * k + 1) as u32 - 1;
                    let flux = (p.read(&x, a as usize) - p.read(&x, b as usize)) * KAPPA;
                    accumulate(&mut acc[li], i as u32, a, flux);
                    k += 1;
                }
            }
            p.compute(work::t(EDGE_US, my_flat) + work::t(work::ZERO_US, 2 * my.len()));

            // Owner-only update: all fluxes were computed from the
            // coherent start-of-sweep values, so writing now is safe —
            // other processors still read their own (pre-update) copies
            // until the barrier's write notices arrive.
            for (li, i) in my.clone().enumerate() {
                let cur = p.read(&x, i);
                p.write(&x, i, cur + acc[li]);
            }
            // One barrier site per sweep — tagging it keeps the phase
            // bookkeeping uniform across the classic apps (the learned
            // behavior is identical to the untagged single-site case).
            p.barrier_tagged(crate::phases::UPDATE);
        }

        let out = Capture::tmk(me, &cl, v.scan_seconds());
        p.barrier();
        out
    });

    let (policy, final_x) = Capture::extract(variant, &cl, &x);
    let checksum = final_x.iter().map(|v| v.abs()).sum();
    (Capture::report(variant, ranks, policy, seq_time, checksum), final_x)
}

/// umesh under CHAOS: inspector once (static mesh), gather endpoint
/// values, accumulate owner-side in the same fixed order. The owner of
/// a node computes all of its fluxes itself, so no scatter phase is
/// needed — and the result is bitwise identical to the other builds.
pub fn run_chaos(cfg: &UmeshConfig, mesh: &Mesh, seq_time: SimTime) -> (RunReport, Vec<f64>) {
    let n = cfg.n();
    let nprocs = cfg.nprocs;
    let part = block_partition(n, nprocs);
    let tt = TTable::new(TTableKind::Replicated, &part);
    let incident = incident_lists(n, &mesh.edges);

    let w = ChaosWorld::new(nprocs, cfg.cost.clone());
    let out = w.run(|cp| {
        let me = cp.rank();
        let my = part.range_of(me);
        let mut cache = TTableCache::new();
        let mut x_own: Vec<f64> = mesh.x0[my.clone()].to_vec();
        let my_flat: usize = my.clone().map(|i| incident[i].len()).sum();

        let t0 = cp.now();
        let sched = inspector(
            cp,
            &tt,
            &mut cache,
            my.clone()
                .flat_map(|i| incident[i].iter().flat_map(|&(a, b)| [a, b])),
        );
        let untimed_inspector_s = (cp.now() - t0).as_secs_f64();
        let locs: Vec<(chaos::Loc, chaos::Loc)> = my
            .clone()
            .flat_map(|i| incident[i].iter().copied())
            .map(|(a, b)| {
                let (oa, fa) = tt.translate_free(a);
                let (ob, fb) = tt.translate_free(b);
                (sched.locate(me, oa, fa), sched.locate(me, ob, fb))
            })
            .collect();

        cp.start_timed_region();
        for _ in 0..cfg.sweeps {
            let mut xg = Ghosted::new(x_own.clone(), &sched);
            gather(cp, &sched, &mut xg);
            let mut k = 0usize;
            let mut acc = vec![0.0f64; my.len()];
            for (li, i) in my.clone().enumerate() {
                for &(a, _) in &incident[i] {
                    let (la, lb) = locs[k];
                    let flux = (xg.get(la) - xg.get(lb)) * KAPPA;
                    accumulate(&mut acc[li], i as u32, a, flux);
                    k += 1;
                }
            }
            cp.compute(work::t(EDGE_US, my_flat) + work::t(work::ZERO_US, 2 * my.len()));
            for (xi, a) in x_own.iter_mut().zip(&acc) {
                *xi += a;
            }
            cp.sync();
        }
        (Capture::chaos(cp, untimed_inspector_s, 0.0), x_own)
    });

    // BLOCK ranges ascend with the rank, so the owned blocks in rank
    // order are the whole array.
    let (ranks, blocks): (Vec<_>, Vec<_>) = out.into_iter().unzip();
    let final_x = blocks.concat();
    let checksum = final_x.iter().map(|v| v.abs()).sum();
    (Capture::report(Variant::Chaos, ranks, None, seq_time, checksum), final_x)
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn incident_lists_preserve_global_order() {
        let cfg = UmeshConfig::small();
        let m = gen_mesh(&cfg);
        let inc = incident_lists(cfg.n(), &m.edges);
        // Every incident list is a subsequence of the sorted edge list.
        for list in &inc {
            for w in list.windows(2) {
                assert!(w[0] < w[1], "incident edges in global order");
            }
        }
        // Degrees sum to 2·edges.
        let deg: usize = inc.iter().map(Vec::len).sum();
        assert_eq!(deg, 2 * m.edges.len());
    }

    #[test]
    fn static_mesh_schedule_computed_once() {
        let cfg = UmeshConfig::small();
        let mesh = gen_mesh(&cfg);
        let seq = run_seq(&cfg, &mesh);
        let (rep, _) = run_tmk(&cfg, &mesh, Variant::TmkOpt, seq.report.time);
        // The edge list never changes: one Read_indices pass total, so
        // the per-processor scan time is tiny relative to the sweep work.
        assert!(rep.validate_scan_s < seq.report.time.as_secs_f64() / 10.0);
    }

    #[test]
    fn relaxation_converges() {
        // Diffusion must shrink the value spread monotonically-ish.
        let mut cfg = UmeshConfig::small();
        cfg.sweeps = 30;
        let mesh = gen_mesh(&cfg);
        let seq = run_seq(&cfg, &mesh);
        let spread = |v: &[f64]| {
            let mx = v.iter().cloned().fold(f64::MIN, f64::max);
            let mn = v.iter().cloned().fold(f64::MAX, f64::min);
            mx - mn
        };
        assert!(spread(&seq.x) < spread(&mesh.x0) * 0.9);
    }
}
