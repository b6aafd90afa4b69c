//! The `Workload` trait: one contract every application — moldyn, nbf,
//! umesh, and every synthetic scenario from the `synth` crate —
//! implements, plus the one generic runner every table harness and
//! test goes through. [`Workload::run`] is the only place a [`Variant`]
//! is mapped to a kernel.
//!
//! A workload is "a deterministic irregular computation that can run as
//! any of the six system variants and hand back a flattened final
//! state for cross-checking". The runner ([`run_variants`]; all five
//! parallel variants via [`run_matrix`]) runs the sequential reference
//! first, feeds its simulated time to the requested parallel variants,
//! and enforces the repo's agreement contract:
//!
//! * the Tmk builds and CHAOS are **always** bitwise identical — the
//!   protocol layers only move fetches (or flip who initiates the
//!   exchange), never change data, and CHAOS's scatter reduces in the
//!   Tmk pipeline's order;
//! * against the sequential reference, each workload declares its
//!   [`CheckMode`]: `Bitwise` where the parallel reduction replays the
//!   sequential accumulation order (umesh, all synth scenarios),
//!   `Tolerance` where a pipelined reduction reassociates floating-point
//!   addition (moldyn, nbf).

use chaos::{block_partition, rcb_partition, TTableKind};
use sdsm_core::DsmConfig;
use simnet::SimTime;

use crate::moldyn::{self, MoldynConfig, MoldynWorld};
use crate::nbf::{self, NbfConfig, NbfWorld};
use crate::pair;
use crate::phases;
use crate::relax::{Kernel, Params, World};
pub use crate::report::Variant;
use crate::report::{table_header, RunReport};
use crate::umesh::{self, Mesh, UmeshConfig};
use crate::work;

/// Agreement contract between a parallel variant and the sequential
/// reference.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CheckMode {
    /// Every variant replays the sequential accumulation order: results
    /// must be bit-for-bit equal.
    Bitwise,
    /// A pipelined reduction reassociates floating-point addition:
    /// results agree to `|g - w| <= tol + tol·|w|`.
    Tolerance(f64),
}

/// One deterministic irregular computation, runnable as all six
/// variants.
pub trait Workload {
    /// Scenario label for reports (e.g. `"moldyn n=512 p4"` or
    /// `"synth uniform/remap3/p4"`).
    fn label(&self) -> String;

    /// Run one variant. `seq_time` is the sequential reference time (for
    /// the speedup column; ignored when `v == Variant::Seq`). Returns the
    /// table row and the flattened final state for cross-checking.
    fn run(&self, v: Variant, seq_time: SimTime) -> (RunReport, Vec<f64>);

    /// Agreement contract vs the sequential reference.
    fn check_mode(&self) -> CheckMode {
        CheckMode::Tolerance(1e-9)
    }
}

/// One completed variant run.
pub struct VariantRun {
    pub variant: Variant,
    pub report: RunReport,
    pub x: Vec<f64>,
}

/// The cross-checked runs of one workload.
pub struct WorkloadMatrix {
    pub label: String,
    /// Sequential first, then the requested parallel variants in the
    /// order given ([`Variant::PARALLEL`] order for [`run_matrix`]).
    pub runs: Vec<VariantRun>,
}

impl WorkloadMatrix {
    pub fn get(&self, v: Variant) -> &VariantRun {
        self.runs
            .iter()
            .find(|r| r.variant == v)
            .expect("variant present")
    }

    /// Paper-style block for table harnesses, titled with the label.
    pub fn print(&self) {
        self.print_titled(&self.label);
    }

    /// Paper-style block under a caller-chosen title (the paper's own
    /// row-group captions in `table1` / `table2`).
    pub fn print_titled(&self, title: &str) {
        println!(
            "\n{title}  (seq = {:.1} s)",
            self.get(Variant::Seq).report.time.as_secs_f64()
        );
        println!("{}", table_header());
        for r in &self.runs {
            if r.variant != Variant::Seq {
                println!("{}", r.report.row());
            }
        }
    }
}

fn assert_close(label: &str, variant: Variant, got: &[f64], want: &[f64], tol: f64) {
    assert_eq!(got.len(), want.len(), "{label}/{variant:?}: state length");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert!(
            (g - w).abs() <= tol + tol * w.abs(),
            "{label}/{variant:?}: element {i} diverged from sequential: {g} vs {w}"
        );
    }
}

/// Run the sequential reference, then each of `variants` (parallel
/// variants, run and reported in the order given), enforcing the
/// agreement contract: every run against sequential per the workload's
/// [`CheckMode`], and the Tmk-family members present bitwise against
/// each other. Panics on any violation — this is the cross-check every
/// table harness and test goes through.
pub fn run_variants(w: &(impl Workload + ?Sized), variants: &[Variant]) -> WorkloadMatrix {
    let label = w.label();
    let (seq_report, seq_x) = w.run(Variant::Seq, SimTime::ZERO);
    let seq_time = seq_report.time;
    let mut runs = vec![VariantRun {
        variant: Variant::Seq,
        report: seq_report,
        x: seq_x,
    }];
    for &v in variants {
        let (report, x) = w.run(v, seq_time);
        match w.check_mode() {
            CheckMode::Bitwise => {
                assert_eq!(
                    x, runs[0].x,
                    "{label}/{v:?}: must be bitwise identical to sequential"
                );
            }
            CheckMode::Tolerance(tol) => assert_close(&label, v, &x, &runs[0].x, tol),
        }
        runs.push(VariantRun {
            variant: v,
            report,
            x,
        });
    }
    // The parallel builds are bitwise-identical regardless of the seq
    // contract: the protocol layers (compiler aggregation, adaptive
    // prefetch, update-push) only move fetches, never change data, and
    // CHAOS's scatter reduces in the Tmk pipeline's order.
    let mut parallel = runs.iter().skip(1);
    if let Some(first) = parallel.next() {
        for r in parallel {
            assert_eq!(
                r.x, first.x,
                "{label}/{:?}: the Tmk builds and CHAOS must be bitwise identical",
                r.variant
            );
        }
    }
    WorkloadMatrix { label, runs }
}

/// [`run_variants`] over all five parallel variants — the full
/// six-way matrix.
pub fn run_matrix(w: &(impl Workload + ?Sized)) -> WorkloadMatrix {
    run_variants(w, &Variant::PARALLEL)
}

// The three classic applications as workloads: each `new` is its
// kernel's data, and `run` hands every variant to that kernel.

/// moldyn as a [`Workload`] (§5.1): RCB-partitioned, renumbered
/// molecules, a rebuilt interaction list, and a distributed CHAOS table
/// ("We were unable to use a replicated translation table").
pub struct MoldynWorkload {
    pub cfg: MoldynConfig,
    pub kernel: pair::Kernel<3, moldyn::Force>,
}

impl MoldynWorkload {
    pub fn new(cfg: MoldynConfig) -> Self {
        let MoldynWorld { pos, box_l, cutoff } = moldyn::gen_positions(&cfg);
        let (part, old_of) = rcb_partition(&pos, cfg.nprocs);
        let list = pair::PairList {
            section: Box::new(move |x, r| {
                let list = moldyn::build_interaction_list_for(x, cutoff, box_l, r.start, r.end);
                list.into_iter().flat_map(|(i, j)| [i, j]).collect()
            }),
            rebuild_steps: cfg.rebuild_steps(),
            test_us: work::MOLDYN_PAIRTEST_US,
        };
        let params = pair::Params {
            dsm: dsm_config(cfg.nprocs, cfg.page_size, &cfg.cost),
            warmup: 0,
            steps: cfg.steps,
            dt: moldyn::DT,
            pair_us: work::MOLDYN_PAIR_US,
            update_us: work::MOLDYN_UPDATE_US,
            fixture: (fcc::fixtures::MOLDYN_SOURCE, "computeforces"),
            table: TTableKind::Distributed,
            // §5.1: "Both x and forces are modified elsewhere,
            // necessitating the gather."
            gather_forces: true,
            chaos_zero_us: 0.0,
        };
        let kernel = pair::Kernel::new(
            pos,
            part,
            Some(old_of),
            moldyn::Force(cutoff * cutoff),
            pair::Indirection::PairList(list),
            params,
        );
        MoldynWorkload { cfg, kernel }
    }
}

impl Workload for MoldynWorkload {
    fn label(&self) -> String {
        format!(
            "moldyn n={} rebuild@{} p{}",
            self.cfg.n, self.cfg.update_interval, self.cfg.nprocs
        )
    }

    fn run(&self, v: Variant, seq_time: SimTime) -> (RunReport, Vec<f64>) {
        self.kernel.run(v, seq_time)
    }
}

/// nbf as a [`Workload`] (§5.2): static partner lists over a BLOCK
/// partition, a replicated CHAOS table, untimed warm-up steps.
pub struct NbfWorkload {
    pub cfg: NbfConfig,
    pub kernel: pair::Kernel<1, nbf::Force>,
}

impl NbfWorkload {
    pub fn new(cfg: NbfConfig) -> Self {
        let NbfWorld { x0, partners, last } = nbf::gen_world(&cfg);
        let params = pair::Params {
            dsm: dsm_config(cfg.nprocs, cfg.page_size, &cfg.cost),
            warmup: cfg.warmup,
            steps: cfg.steps,
            dt: nbf::DT,
            pair_us: work::NBF_PAIR_US,
            update_us: work::NBF_UPDATE_US,
            fixture: (fcc::fixtures::NBF_SOURCE, "computenbfforces"),
            table: TTableKind::Replicated,
            gather_forces: false,
            chaos_zero_us: work::ZERO_US,
        };
        let kernel = pair::Kernel::new(
            x0.into_iter().map(|v| [v]).collect(),
            block_partition(cfg.n, cfg.nprocs),
            None,
            nbf::Force,
            pair::Indirection::Partners {
                last,
                // 0-based, converted in place.
                partners: partners.into_iter().map(|j| j as u32 - 1).collect(),
            },
            params,
        );
        NbfWorkload { cfg, kernel }
    }
}

impl Workload for NbfWorkload {
    fn label(&self) -> String {
        format!("nbf n={} p{}", self.cfg.n, self.cfg.nprocs)
    }

    fn run(&self, v: Variant, seq_time: SimTime) -> (RunReport, Vec<f64>) {
        self.kernel.run(v, seq_time)
    }
}

fn dsm_config(nprocs: usize, page_size: usize, cost: &simnet::CostModel) -> DsmConfig {
    DsmConfig {
        nprocs,
        page_size,
        cost: cost.clone(),
    }
}

/// umesh as a [`Workload`]: the mesh as the relaxation kernel's
/// one-version world, BLOCK-partitioned by grid row. Its fixed-order
/// owner-side reduction makes the contract bitwise against the
/// sequential reference.
pub struct UmeshWorkload {
    pub cfg: UmeshConfig,
    pub kernel: Kernel,
}

impl UmeshWorkload {
    pub fn new(cfg: UmeshConfig) -> Self {
        let Mesh { x0, edges } = umesh::gen_mesh(&cfg);
        let world = World {
            x0,
            version_of_iter: vec![0; cfg.sweeps],
            lists: vec![edges],
            kappa: umesh::KAPPA,
        };
        let params = Params {
            dsm: dsm_config(cfg.nprocs, cfg.page_size, &cfg.cost),
            visit_us: umesh::EDGE_US,
            iter_tag: phases::UPDATE,
            parity_split: false,
            rebuild: None,
        };
        let part = block_partition(cfg.n(), cfg.nprocs);
        let kernel = Kernel::new(world, vec![part], |_| 0, params);
        UmeshWorkload { cfg, kernel }
    }
}

impl Workload for UmeshWorkload {
    fn label(&self) -> String {
        format!(
            "umesh {}x{} p{}",
            self.cfg.side, self.cfg.side, self.cfg.nprocs
        )
    }

    fn check_mode(&self) -> CheckMode {
        CheckMode::Bitwise
    }

    fn run(&self, v: Variant, seq_time: SimTime) -> (RunReport, Vec<f64>) {
        self.kernel.run(v, seq_time)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_variants_runs_seq_then_the_requested_subset_in_order() {
        let w = UmeshWorkload::new(UmeshConfig::small());
        let m = run_variants(&w, &[Variant::TmkOpt, Variant::TmkBase]);
        let order: Vec<_> = m.runs.iter().map(|r| r.variant).collect();
        assert_eq!(order, [Variant::Seq, Variant::TmkOpt, Variant::TmkBase]);
        assert!(m.runs.iter().all(|r| r.report.system == r.variant));
    }

    #[test]
    fn policy_counters_are_reported_exactly_for_the_adaptive_builds() {
        // `install_policy` + `Capture::extract` key off the one axis: a
        // policy report iff the variant is adaptive (snapshotted after
        // the one timed `cl.run`, before the calling-thread read-back),
        // and one-way pushes only in update-push mode.
        let w = UmeshWorkload::new(UmeshConfig::small());
        let m = run_variants(&w, &Variant::TMK);
        for r in &m.runs {
            assert_eq!(
                r.report.policy.is_some(),
                r.variant.is_adaptive(),
                "{:?}",
                r.variant
            );
        }
        let pushes = |v| m.get(v).report.policy.as_ref().unwrap().push_rounds;
        assert_eq!(pushes(Variant::TmkAdaptive), 0);
        assert!(pushes(Variant::TmkPush) > 0);
    }

    #[test]
    fn umesh_matrix_runs_and_cross_checks() {
        let w = UmeshWorkload::new(UmeshConfig::small());
        let m = run_matrix(&w);
        assert_eq!(m.runs.len(), 6);
        // The runner already asserted bitwise agreement (fixed-order
        // owner-side accumulation: every build replays the sequential
        // order). At this tiny scale communication dominates compute (a
        // page fetch costs more than a whole sweep's work), so assert
        // the protocol shape rather than absolute speedups.
        let [base, opt, chaos] =
            [Variant::TmkBase, Variant::TmkOpt, Variant::Chaos].map(|v| &m.get(v).report);
        assert!(opt.messages < base.messages);
        assert!(opt.time < base.time);
        assert!(chaos.messages < base.messages);
    }
}
