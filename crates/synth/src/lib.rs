//! # synth — the synthetic irregular-workload engine
//!
//! The paper evaluates its protocol claims on exactly three fixed
//! kernels (moldyn, nbf, and this repo's umesh). This crate turns that
//! three-point comparison into a **scenario matrix**: a parameterized
//! generator of irregular workloads along two orthogonal axes —
//!
//! * [`Structure`] — the shape of the interaction pattern: uniform
//!   random, power-law/skewed degree (hub elements), or banded/
//!   grid-local;
//! * [`Dynamics`] — how the indirection array evolves: static (nbf's
//!   regime), wholesale periodic remap every `k` iterations (moldyn's,
//!   parameterized), incremental drift, *multi-periodic* interleaved
//!   remaps (the ROADMAP's untested adaptive direction), or
//!   *alternating* two-list iterations (the classic apps' two-phase
//!   barrier structure in isolation — the phase-keyed quiesce regime).
//!
//! Every `(structure, dynamics, nprocs)` cell drives umesh's
//! gather–compute–scatter reduction kernel (`apps::relax`; this crate
//! supplies the lists, partition epochs and rebuild costs) with
//! deterministic seeded output, implements the `apps::Workload` trait,
//! and therefore runs as all **six** system variants — sequential,
//! Tmk base, Tmk optimized (`Validate`), Tmk adaptive, Tmk push, and
//! CHAOS — with **bitwise**-identical results (fixed-order owner-side
//! reduction).
//! The `table_synth` harness in `bench` sweeps [`scenario_grid`] and
//! asserts the protocol claims cell by cell: the adaptive policy never
//! sends more messages than plain Tmk on *any* scenario, and CHAOS wins
//! on static-indirection scenarios, as the paper predicts.
//!
//! ## Quickstart
//!
//! ```
//! use apps::workload::run_matrix;
//! use synth::{Dynamics, Prepared, Structure, SynthConfig};
//!
//! let mut cfg = SynthConfig::quick(Structure::Uniform, Dynamics::PeriodicRemap { period: 3 });
//! cfg.n = 256;       // keep the doctest fast
//! cfg.refs = 512;
//! cfg.iters = 6;
//! let matrix = run_matrix(&Prepared::new(cfg)); // runs + cross-checks all six variants
//! assert_eq!(matrix.runs.len(), 6);
//! ```

pub mod dynamics;
pub mod structure;

/// The generated workload: initial values plus every distinct effective
/// (normalized) list the run will use. Its flux weight is sized from the
/// hottest element so the relaxation is a contraction for every
/// structure: `kappa = 0.25 / max_degree`.
pub use apps::relax::World as SynthWorld;
pub use dynamics::{drift_round, raw_for_iter, Dynamics};
pub use structure::{degrees, normalize, Structure};

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};

use apps::relax::{Kernel, Params, Rebuild};
use apps::report::RunReport;
use apps::workload::{CheckMode, Variant, Workload};
use chaos::{block_partition, Partition};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sdsm_core::{Cluster, ClusterPool, DsmConfig};
use simnet::{CostModel, SimTime};

/// Barrier-site phase tag of the end-of-iteration barrier (see
/// `apps::phases` for the idea). Under [`Dynamics::Alternating`] the
/// tag is split by iteration parity — the two interleaved lists are two
/// distinct sites, exactly like a classic app's alternating barriers.
pub const PHASE_ITER: u32 = 2;

/// Barrier-site phase tag of the post-rebuild barrier (parity-split
/// under [`Dynamics::Alternating`], like [`PHASE_ITER`]).
pub const PHASE_REMAP: u32 = 4;

/// Modeled cost of one incident-flux evaluation (per visit; cross-block
/// pairs are evaluated by both endpoint owners, as in umesh).
pub const REF_US: f64 = 20.0;

/// Modeled cost of scanning one raw candidate during a list rebuild
/// (divided evenly across processors in the parallel builds).
pub const REMAP_US: f64 = 2.0;

/// Configuration of one synthetic scenario.
#[derive(Debug, Clone)]
pub struct SynthConfig {
    /// Number of shared elements.
    pub n: usize,
    /// Raw candidate pairs per list version (the effective list is the
    /// normalized — deduplicated — form, slightly shorter).
    pub refs: usize,
    pub structure: Structure,
    pub dynamics: Dynamics,
    /// Timed iterations.
    pub iters: usize,
    pub nprocs: usize,
    pub seed: u64,
    pub page_size: usize,
    pub cost: CostModel,
}

impl SynthConfig {
    /// Seconds-scale cell for tests and `table_synth --quick`. The page
    /// size keeps the paper's pages-per-array regime (the shared value
    /// array spans ~16 pages, several per processor) — the regime both
    /// aggregation paths feed on; with one page per peer, aggregation
    /// cannot beat demand paging by construction.
    pub fn quick(structure: Structure, dynamics: Dynamics) -> Self {
        SynthConfig {
            n: 1024,
            refs: 3072,
            structure,
            dynamics,
            iters: 10,
            nprocs: 4,
            seed: 2024,
            page_size: 512,
            cost: CostModel::default(),
        }
    }

    /// Paper-scale cell for the full `table_synth` grid (the value
    /// array spans 64 pages, 8 per processor at 8 processors).
    pub fn full(structure: Structure, dynamics: Dynamics) -> Self {
        SynthConfig {
            n: 8192,
            refs: 32768,
            structure,
            dynamics,
            iters: 20,
            nprocs: 8,
            seed: 2024,
            page_size: 1024,
            cost: CostModel::default(),
        }
    }

    /// Scenario label: `structure/dynamics/pN`.
    pub fn label(&self) -> String {
        format!(
            "{}/{}/p{}",
            self.structure.tag(),
            self.dynamics.tag(),
            self.nprocs
        )
    }
}

pub fn gen_world(cfg: &SynthConfig) -> SynthWorld {
    assert!(cfg.iters >= 1, "need at least one iteration");
    cfg.dynamics.validate();
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x005E_ED0F_1A17);
    let x0: Vec<f64> = (0..cfg.n).map(|_| rng.gen_range(0.0..100.0)).collect();

    let mut by_version: HashMap<u64, usize> = HashMap::new();
    let mut version_of_iter = Vec::with_capacity(cfg.iters);
    let mut lists: Vec<Vec<(u32, u32)>> = Vec::new();
    // Drift evolves one raw list round by round; carrying it forward
    // keeps setup linear in iterations (raw_for_iter would replay all
    // earlier rounds per call). Identical output: iterations are
    // visited in order, and each round is a pure function of
    // (seed, round) applied to the previous raw list.
    let mut drift_raw: Option<Vec<(u32, u32)>> = None;
    for it in 0..cfg.iters {
        let v = cfg.dynamics.version(it);
        let idx = *by_version.entry(v).or_insert_with(|| {
            let list = if let Dynamics::Drift { per_mille } = cfg.dynamics {
                let mut raw = drift_raw
                    .take()
                    .unwrap_or_else(|| cfg.structure.gen_raw(cfg.n, cfg.refs, cfg.seed));
                if it > 0 {
                    dynamics::drift_round(&cfg.structure, &mut raw, cfg.n, cfg.seed, it, per_mille);
                }
                let list = normalize(&raw);
                drift_raw = Some(raw);
                list
            } else {
                normalize(&raw_for_iter(
                    &cfg.structure,
                    &cfg.dynamics,
                    cfg.n,
                    cfg.refs,
                    cfg.seed,
                    it,
                ))
            };
            lists.push(list);
            lists.len() - 1
        });
        version_of_iter.push(idx);
    }
    let max_deg = lists
        .iter()
        .flat_map(|l| degrees(cfg.n, l))
        .max()
        .unwrap_or(1)
        .max(1);
    SynthWorld {
        x0,
        version_of_iter,
        lists,
        kappa: 0.25 / max_deg as f64,
    }
}

/// The re-cut partition a [`Dynamics::Rebalance`] switches to: every
/// interior block boundary slides forward by half a block, so roughly
/// half of each processor's elements change owner.
fn rebalanced_partition(n: usize, nprocs: usize) -> Partition {
    let base = block_partition(n, nprocs);
    let shift = ((n / nprocs) / 2).max(1);
    let interior = (1..nprocs).map(|p| (base.range_of(p).start + shift).min(n));
    Partition::from_starts(std::iter::once(0).chain(interior).chain([n]).collect())
}

thread_local! {
    /// Recycled clusters for the reusable-scratch path (one pool per
    /// executor thread, so serving workers never contend on it). Only a
    /// Tmk run of a [`Prepared`] with reuse on touches it; otherwise
    /// every run builds a cold cluster.
    static CLUSTERS: ClusterPool = const { ClusterPool::new() };
}

/// One runnable scenario, with every piece of variant-independent setup
/// built once and shared: the generated world, its owner-side work
/// plan and the CHAOS translation tables, as one `apps::relax::Kernel`
/// (partition epochs from the scenario's [`Dynamics`]). Implements
/// [`Workload`], so `apps::workload::run_matrix` runs and cross-checks
/// all six variants; the shared state is immutable and the kernel
/// consumes it read-only, so a serving workload can run the same cell
/// hundreds of times behind one `Arc`.
///
/// With [`Prepared::set_reuse`], the Tmk variants additionally check
/// their simulated cluster out of a thread-local recycled-cluster pool
/// (`dsm::ClusterPool`) instead of building one per run — the
/// reusable-scratch path. Off by default: cold runs stay the reference
/// behavior, and the serve driver asserts warm runs reproduce their
/// message counts exactly.
pub struct Prepared {
    cfg: SynthConfig,
    kernel: Kernel,
    reuse: AtomicBool,
}

impl Prepared {
    /// Generate the world and precompute all shared setup for `cfg`.
    pub fn new(cfg: SynthConfig) -> Self {
        let world = gen_world(&cfg);
        let mut parts = vec![block_partition(cfg.n, cfg.nprocs)];
        if cfg.dynamics.partition_epochs(cfg.iters) == 2 {
            parts.push(rebalanced_partition(cfg.n, cfg.nprocs));
        }
        let params = Params {
            dsm: DsmConfig {
                nprocs: cfg.nprocs,
                page_size: cfg.page_size,
                cost: cfg.cost.clone(),
            },
            visit_us: REF_US,
            iter_tag: PHASE_ITER,
            parity_split: cfg.dynamics == Dynamics::Alternating,
            rebuild: Some(Rebuild {
                us: REMAP_US,
                candidates: cfg.refs,
                tag: PHASE_REMAP,
            }),
        };
        let kernel = Kernel::new(world, parts, |it| cfg.dynamics.partition_epoch(it), params);
        Prepared {
            cfg,
            kernel,
            reuse: AtomicBool::new(false),
        }
    }

    /// The scenario configuration.
    pub fn cfg(&self) -> &SynthConfig {
        &self.cfg
    }

    /// The generated world (initial values + lists).
    pub fn world(&self) -> &SynthWorld {
        &self.kernel.world
    }

    /// The relaxation kernel every variant of this cell runs.
    pub fn kernel(&self) -> &Kernel {
        &self.kernel
    }

    /// Enable or disable the recycled-cluster scratch path for
    /// subsequent Tmk runs.
    pub fn set_reuse(&self, on: bool) {
        self.reuse.store(on, Ordering::Relaxed);
    }
}

impl Workload for Prepared {
    fn label(&self) -> String {
        format!("synth {}", self.cfg.label())
    }

    fn check_mode(&self) -> CheckMode {
        CheckMode::Bitwise
    }

    fn run(&self, v: Variant, seq_time: SimTime) -> (RunReport, Vec<f64>) {
        if !(Variant::TMK.contains(&v) && self.reuse.load(Ordering::Relaxed)) {
            return self.kernel.run(v, seq_time);
        }
        let cl = CLUSTERS.with(|p| p.checkout(&self.kernel.params.dsm));
        let out = self.kernel.run_tmk_on(&cl, v, seq_time);
        CLUSTERS.with(|p| p.checkin(cl));
        out
    }
}

/// Barrier-metadata scaling probe: run the plain-Tmk kernel on one fixed
/// workload (n = 8192 — 128 value pages of 512 B, ≥ 2 per processor up
/// to 64 processors — 12288 refs, 6 iterations) at `nprocs` processors
/// and report the leader-counted write-notice payload bytes of the
/// timed region (`simnet::Net::notice_meta_bytes`, billed once per
/// barrier, not per fan-in/fan-out copy). `table_synth` compares two
/// cluster sizes and asserts the figure stays ~linear in nprocs — the
/// flat-digest + sparse-clock contract.
pub fn notice_meta_probe(nprocs: usize) -> u64 {
    let mut cfg = SynthConfig::quick(Structure::Uniform, Dynamics::Static);
    cfg.n = 8192;
    cfg.refs = 12288;
    cfg.iters = 6;
    cfg.nprocs = nprocs;
    let kernel = Prepared::new(cfg).kernel;
    let cl = Cluster::new(kernel.params.dsm.clone());
    kernel.run_tmk_on(&cl, Variant::TmkBase, SimTime::ZERO);
    cl.net().notice_meta_bytes()
}

/// The scenario grid `table_synth` sweeps: structure × dynamics ×
/// nprocs. The quick grid is 30 cells (3 structures × 6 dynamics at 4
/// processors, the 3 static cells again at 8 processors, the same 3
/// again at 64 processors — the sparse-metadata regime — and 6 churn
/// cells: regime breaks and partition rebalances at half the run); the
/// full grid is the same shape at paper scale with the scale cells at
/// 256 processors.
pub fn scenario_grid(quick: bool) -> Vec<SynthConfig> {
    // Banded width = two pages' worth of elements, so each neighbor
    // exchange spans ≥ 2 pages and aggregation has something to merge
    // (with exactly one boundary page per peer, one exchange per peer
    // is already what demand paging does — and the adaptive policy's
    // one wasted final-barrier prefetch round would tip it past base).
    let page_elems = if quick {
        SynthConfig::quick(Structure::Uniform, Dynamics::Static).page_size / 8
    } else {
        SynthConfig::full(Structure::Uniform, Dynamics::Static).page_size / 8
    };
    let structures = [
        Structure::Uniform,
        Structure::PowerLaw { alpha: 2.0 },
        Structure::Banded {
            width: 2 * page_elems,
        },
    ];
    let dynamics = [
        Dynamics::Static,
        Dynamics::PeriodicRemap { period: 3 },
        Dynamics::PeriodicRemap { period: 5 },
        Dynamics::Drift { per_mille: 25 },
        Dynamics::MultiPeriodic { p1: 3, p2: 5 },
        Dynamics::Alternating,
    ];
    let make = |s: &Structure, d: &Dynamics| {
        if quick {
            SynthConfig::quick(s.clone(), d.clone())
        } else {
            SynthConfig::full(s.clone(), d.clone())
        }
    };
    let mut grid = Vec::new();
    for s in &structures {
        for d in &dynamics {
            grid.push(make(s, d));
        }
    }
    // The nprocs axis: static cells again at the other cluster size.
    for s in &structures {
        let mut cfg = make(s, &Dynamics::Static);
        cfg.nprocs = if quick { 8 } else { 4 };
        grid.push(cfg);
    }
    // The scale cells: the same static structures at 64 (quick) / 256
    // (full) processors — past `dsm::DENSE_VC_MAX`, so every interval
    // clock travels as one 12-byte (rank, seq) pair. The problem grows
    // with the cluster so each peer still owns ≥ 2 value pages
    // (pages-per-peer > 1): with exactly one page per peer, one
    // exchange per peer is already what demand paging does and neither
    // aggregation path has anything to merge.
    for s in &structures {
        let mut cfg = make(s, &Dynamics::Static);
        if quick {
            cfg.nprocs = 64;
            cfg.n = 8192; // 128 pages of 512 B → 2 per processor
            cfg.refs = 12288;
            cfg.iters = 6;
        } else {
            cfg.nprocs = 256;
            cfg.n = 65536; // 512 pages of 1 KB → 2 per processor
            cfg.refs = 98304;
            cfg.iters = 8;
        }
        grid.push(cfg);
    }
    // The churn cells: mid-run regime breaks and a partition rebalance
    // at half the run, unannounced — the axis where a learned predictor
    // can be *wrong* and CHAOS's amortized schedule goes stale. The
    // steady-state acceptance bars (adaptive ≤ base) relax to the
    // probe-budget bound exactly on these cells; `table_synth` asserts
    // that bound plus six-way bitwise agreement per cell, and
    // `tests/scenarios.rs` pins the quick cells' exact counts.
    let brk = (if quick { 10usize } else { 20 } / 2) as u32;
    let shift = |from: Dynamics, to: Dynamics| Dynamics::RegimeShift {
        at: brk,
        from: Box::new(from),
        to: Box::new(to),
    };
    let churn: [(Structure, Dynamics); 6] = [
        (
            Structure::Uniform,
            shift(Dynamics::Static, Dynamics::PeriodicRemap { period: 3 }),
        ),
        (
            Structure::PowerLaw { alpha: 2.0 },
            shift(Dynamics::PeriodicRemap { period: 3 }, Dynamics::Static),
        ),
        (
            Structure::Banded {
                width: 2 * page_elems,
            },
            shift(Dynamics::Static, Dynamics::Static),
        ),
        (
            Structure::Uniform,
            shift(
                Dynamics::MultiPeriodic { p1: 3, p2: 5 },
                Dynamics::PeriodicRemap { period: 2 },
            ),
        ),
        (Structure::Uniform, Dynamics::Rebalance { at: brk }),
        (
            Structure::Banded {
                width: 2 * page_elems,
            },
            Dynamics::Rebalance { at: brk },
        ),
    ];
    for (s, d) in churn {
        grid.push(make(&s, &d));
    }
    // Distinct seeds per cell so no two scenarios share geometry.
    for (k, cfg) in grid.iter_mut().enumerate() {
        cfg.seed = cfg.seed.wrapping_add(1000 * k as u64);
    }
    grid
}

#[cfg(test)]
mod tests {
    use super::*;
    use apps::umesh::UmeshConfig;
    use apps::workload::{run_matrix, UmeshWorkload};
    use chaos::ChaosWorld;

    /// Every processor's section of every schedule version lists each
    /// owned element's incident pairs exactly as the list orders them —
    /// the order the sequential sweep applies them, which is what makes
    /// the owner-side reduction bitwise — and the sections together hold
    /// each pair twice, once per endpoint.
    fn assert_sections_in_global_order(kernel: &Kernel) {
        let (world, plan) = (&kernel.world, &kernel.plan);
        for sv in 0..plan.sv_part.len() {
            let list = &world.lists[plan.sv_list[sv]];
            let mut visits = 0;
            for q in 0..plan.parts[0].nprocs() {
                let sec = plan.section(sv, q);
                let mut k = 0;
                for i in plan.owned(sv, q) {
                    let want: Vec<(u32, u32)> = list
                        .iter()
                        .filter(|&&(a, b)| a as usize == i || b as usize == i)
                        .copied()
                        .collect();
                    assert_eq!(
                        plan.incidence_of(sv).degree(i),
                        want.len(),
                        "sv {sv} element {i}"
                    );
                    assert_eq!(sec[k..k + want.len()], want, "sv {sv} element {i}");
                    k += want.len();
                }
                assert_eq!(
                    k,
                    sec.len(),
                    "sv {sv} proc {q}: the section is its elements'"
                );
                visits += k;
            }
            assert_eq!(visits, 2 * list.len(), "sv {sv}");
        }
    }

    #[test]
    fn plan_sections_keep_global_list_order() {
        assert_sections_in_global_order(&UmeshWorkload::new(UmeshConfig::small()).kernel);
        // A rebalance re-cuts the partition under an unchanged list: two
        // schedule versions over one list.
        let mut cfg = SynthConfig::quick(Structure::Uniform, Dynamics::Rebalance { at: 5 });
        cfg.n = 512;
        cfg.refs = 1024;
        let kernel = Prepared::new(cfg).kernel;
        assert_eq!(kernel.plan.sv_part, [0, 1]);
        assert_sections_in_global_order(&kernel);
    }

    /// Host rendezvous crossings are exact host *work*: they depend on
    /// the program's barrier structure, never on the host schedule. Pin
    /// them for one 4-processor and one 64-processor static cell so a
    /// refactor that re-adds a crossing fails here with a number instead
    /// of hiding inside the host clock's noise band. A Tmk variant is
    /// init + `start_timed_region` + one per iteration + final =
    /// `iters + 4` barriers at two crossings each, plus the one bare
    /// crossing that zeroes the clocks. CHAOS, as measured: the
    /// inspector's one exchange and a gather per iteration at two each,
    /// one per `sync`, two for `start_timed_region`. And every variant
    /// is exactly one SPMD launch (`nprocs` thread spawns): the result
    /// read-back happens on the calling thread.
    #[test]
    fn static_cells_cross_the_host_rendezvous_an_exact_number_of_times() {
        for (nprocs, tmk_want, chaos_want) in [(4, 29, 34), (64, 21, 22)] {
            let cfg = scenario_grid(true)
                .into_iter()
                .find(|c| c.nprocs == nprocs && c.dynamics == Dynamics::Static)
                .expect("the quick grid has a static cell at this size");
            let p = Prepared::new(cfg);
            let (cfg, kernel) = (p.cfg(), &p.kernel);
            let barriers = cfg.iters as u64 + 4;
            assert_eq!(2 * barriers + 1, tmk_want, "{}", cfg.label());
            for v in Variant::TMK {
                let cl = Cluster::new(kernel.params.dsm.clone());
                kernel.run_tmk_on(&cl, v, SimTime::ZERO);
                assert_eq!(
                    (
                        cl.barrier_epoch(),
                        cl.net().rendezvous().generation(),
                        cl.net().rendezvous().launches()
                    ),
                    (barriers, tmk_want, 1),
                    "{} {v:?}",
                    cfg.label()
                );
            }
            let w = ChaosWorld::new(nprocs, cfg.cost.clone());
            kernel.run_chaos_on(&w, SimTime::ZERO);
            assert_eq!(
                (
                    w.net().rendezvous().generation(),
                    w.net().rendezvous().launches()
                ),
                (chaos_want, 1),
                "{} CHAOS",
                cfg.label()
            );
        }
    }

    #[test]
    fn recycled_clusters_match_cold_runs() {
        let mut cfg = SynthConfig::quick(Structure::Uniform, Dynamics::PeriodicRemap { period: 3 });
        cfg.n = 256;
        cfg.refs = 512;
        cfg.iters = 6;
        let prep = Prepared::new(cfg);
        let cold = run_matrix(&prep);
        prep.set_reuse(true);
        let warm = run_matrix(&prep); // cold pool: fills it
        let warm2 = run_matrix(&prep); // actually recycled clusters
        for m in [&warm, &warm2] {
            for (a, b) in cold.runs.iter().zip(&m.runs) {
                assert_eq!(a.report.system, b.report.system);
                assert_eq!(
                    a.report.messages, b.report.messages,
                    "{:?}",
                    a.report.system
                );
                assert_eq!(a.report.bytes, b.report.bytes, "{:?}", a.report.system);
                assert_eq!(a.report.time, b.report.time, "{:?}", a.report.system);
                assert_eq!(a.x, b.x, "{:?}", a.report.system);
            }
        }
    }

    #[test]
    fn churn_cells_stay_bitwise_across_all_variants() {
        // run_matrix cross-checks all six variants bitwise; a mid-run
        // regime break and a partition rebalance must not perturb
        // results (they may only perturb cost).
        for d in [
            Dynamics::RegimeShift {
                at: 3,
                from: Box::new(Dynamics::Static),
                to: Box::new(Dynamics::PeriodicRemap { period: 2 }),
            },
            Dynamics::Rebalance { at: 3 },
        ] {
            let mut cfg = SynthConfig::quick(Structure::Uniform, d);
            cfg.n = 512;
            cfg.refs = 1024;
            cfg.iters = 6;
            let m = run_matrix(&Prepared::new(cfg));
            assert_eq!(m.runs.len(), 6);
        }
    }

    #[test]
    fn world_generation_is_deterministic_and_versioned() {
        let cfg = SynthConfig::quick(Structure::Uniform, Dynamics::PeriodicRemap { period: 3 });
        let a = gen_world(&cfg);
        let b = gen_world(&cfg);
        assert_eq!(a.x0, b.x0);
        assert_eq!(a.lists, b.lists);
        assert_eq!(a.version_of_iter, vec![0, 0, 0, 1, 1, 1, 2, 2, 2, 3]);
        assert_eq!(a.lists.len(), 4);
        assert!(a.kappa > 0.0 && a.kappa <= 0.25);
    }

    #[test]
    fn static_world_has_one_list() {
        let cfg = SynthConfig::quick(Structure::Banded { width: 32 }, Dynamics::Static);
        let w = gen_world(&cfg);
        assert_eq!(w.lists.len(), 1);
        assert!(w.version_of_iter.iter().all(|&v| v == 0));
    }

    #[test]
    fn multi_periodic_world_shares_repeated_versions() {
        let mut cfg =
            SynthConfig::quick(Structure::Uniform, Dynamics::MultiPeriodic { p1: 2, p2: 3 });
        cfg.iters = 12;
        let w = gen_world(&cfg);
        // Versions change at every multiple of 2 or 3: 0,0,1,2,3,3,4,...
        assert!(w.lists.len() >= 6);
        assert_eq!(w.version_of_iter[0], w.version_of_iter[1]);
        assert_ne!(w.version_of_iter[1], w.version_of_iter[2]);
    }

    #[test]
    fn incremental_drift_matches_the_pure_spec() {
        // gen_world carries the drift list forward round by round; the
        // result must equal the pure per-iteration replay.
        let mut cfg = SynthConfig::quick(Structure::Uniform, Dynamics::Drift { per_mille: 25 });
        cfg.n = 256;
        cfg.refs = 800;
        cfg.iters = 7;
        let w = gen_world(&cfg);
        for it in 0..cfg.iters {
            let pure = normalize(&raw_for_iter(
                &cfg.structure,
                &cfg.dynamics,
                cfg.n,
                cfg.refs,
                cfg.seed,
                it,
            ));
            assert_eq!(w.lists[w.version_of_iter[it]], pure, "iteration {it}");
        }
    }

    #[test]
    fn grid_has_at_least_twelve_distinct_cells() {
        for quick in [true, false] {
            let grid = scenario_grid(quick);
            assert!(grid.len() >= 12, "grid too small: {}", grid.len());
            // The scale cells exist, sit past the dense-VC cutoff, and
            // keep the pages-per-peer > 1 regime.
            let scale_n = if quick { 64 } else { 256 };
            let scale: Vec<_> = grid.iter().filter(|c| c.nprocs == scale_n).collect();
            assert_eq!(scale.len(), 3, "one scale cell per structure");
            for c in &scale {
                assert!(
                    c.nprocs > sdsm_core::DENSE_VC_MAX,
                    "scale cells must be sparse"
                );
                let pages = c.n * 8 / c.page_size;
                assert!(
                    pages / c.nprocs >= 2,
                    "{}: {} pages over {} procs breaks pages-per-peer > 1",
                    c.label(),
                    pages,
                    c.nprocs
                );
            }
            // The churn cells: breaks/rebalances fire strictly inside
            // the run, so every cell actually exercises its churn.
            let churn: Vec<_> = grid.iter().filter(|c| c.dynamics.is_churn()).collect();
            assert_eq!(churn.len(), 6, "six churn cells per tier");
            for c in &churn {
                c.dynamics.validate();
                let at = match &c.dynamics {
                    Dynamics::RegimeShift { at, .. } | Dynamics::Rebalance { at } => *at as usize,
                    _ => unreachable!(),
                };
                assert!(
                    at > 0 && at < c.iters,
                    "{}: break outside the run",
                    c.label()
                );
            }
            let mut labels: Vec<String> = grid.iter().map(|c| c.label()).collect();
            labels.sort();
            labels.dedup();
            assert_eq!(labels.len(), grid.len(), "duplicate scenario labels");
            let mut seeds: Vec<u64> = grid.iter().map(|c| c.seed).collect();
            seeds.sort_unstable();
            seeds.dedup();
            assert_eq!(seeds.len(), grid.len(), "duplicate seeds");
        }
    }

    #[test]
    fn kappa_keeps_relaxation_bounded() {
        // The hottest structure (power-law hubs) must still contract.
        let mut cfg = SynthConfig::quick(Structure::PowerLaw { alpha: 2.0 }, Dynamics::Static);
        cfg.iters = 30;
        let (_, x) = Prepared::new(cfg).run(Variant::Seq, SimTime::ZERO);
        let bound = 100.0 * 1.5;
        assert!(
            x.iter().all(|v| v.abs() < bound),
            "relaxation diverged: max {}",
            x.iter().fold(0.0f64, |m, v| m.max(v.abs()))
        );
    }
}
