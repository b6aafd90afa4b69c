//! Property: serving a random grid concurrently produces *exactly* the
//! statistics of serving it sequentially — the merged per-variant
//! message/byte totals, the folded per-kind [`NetReport`]s, and the
//! folded adaptive [`PolicyReport`] are all bitwise-identical to a
//! one-job-at-a-time reference fold. This is the commutativity claim
//! behind the serve driver's lock-free accounting: worker-local
//! partials merged in scheduler-dependent order must lose nothing.
//!
//! Cells draw `nprocs` from {4, 8, 64} — the 64-processor draw pushes
//! interval clocks past `DENSE_VC_MAX` into the one-pair encoding, so
//! the merge contract is also soaked on the scale regime. Soak runs
//! raise the case count with `PROPTEST_CASES` (CI uses ≥ 256); failing
//! draws replay via `PROPTEST_TEST`/`PROPTEST_SEED`.

use apps::workload::{run_matrix, Variant};
use proptest::prelude::*;
use serve::{serve, ServeConfig, Stop};
use simnet::{NetReport, PolicyReport};
use synth::{Dynamics, Prepared, Structure, SynthConfig};

/// A proptest-sized cell. The 64-processor draw grows the element count
/// so every processor still owns ≥ 2 value pages (with one page per
/// peer the aggregation paths have nothing to merge and the scenario
/// degenerates), and drops iterations to keep the case affordable.
fn cell(structure: Structure, dynamics: Dynamics, nprocs: usize, seed: u64) -> SynthConfig {
    let mut cfg = SynthConfig::quick(structure, dynamics);
    if nprocs == 64 {
        cfg.n = 1024; // 128 pages of 64 B → 2 per processor
        cfg.refs = 1536;
        cfg.iters = 2;
        cfg.page_size = 64;
    } else {
        cfg.n = 256; // 16 pages of 128 B → ≥ 2 per processor
        cfg.refs = 512;
        cfg.iters = 3;
        cfg.page_size = 128;
    }
    cfg.nprocs = nprocs;
    cfg.seed = seed;
    cfg
}

fn structures() -> impl Strategy<Value = Structure> {
    proptest::sample::select(vec![
        Structure::Uniform,
        Structure::PowerLaw { alpha: 2.0 },
        Structure::Banded { width: 16 },
    ])
}

fn dynamics() -> impl Strategy<Value = Dynamics> {
    proptest::sample::select(vec![
        Dynamics::Static,
        Dynamics::PeriodicRemap { period: 2 },
        Dynamics::Alternating,
    ])
}

/// {4, 8, 64}, weighted toward the cheap draws: a 64-processor case
/// (five 6-variant matrix passes on 64 coroutines each) still costs
/// several times a 4-processor one in a debug build. It gets 1/16 of
/// the draws — ~4 sparse-clock cases at the default 64-case count, ~16
/// at the CI soak's 256 — so the scale regime is exercised without
/// dominating the wall clock.
fn nprocs() -> impl Strategy<Value = usize> {
    let mut pool = vec![4, 4, 4, 4, 8, 8, 8, 8];
    pool.extend([4, 4, 4, 8, 8, 8, 8, 64]);
    proptest::sample::select(pool)
}

/// The sequential reference: run the same round-robin job sequence one
/// at a time on cold scenarios and fold with the same merge operations.
struct Fold {
    messages: [u64; 6],
    bytes: [u64; 6],
    nets: [Option<NetReport>; 6],
    policy: Option<PolicyReport>,
}

fn fold_sequential(cells: &[SynthConfig], jobs: usize) -> Fold {
    let preps: Vec<Prepared> = cells.iter().map(|c| Prepared::new(c.clone())).collect();
    let mut fold = Fold {
        messages: [0; 6],
        bytes: [0; 6],
        nets: Default::default(),
        policy: None,
    };
    for j in 0..jobs {
        let m = run_matrix(&preps[j % preps.len()]);
        for run in &m.runs {
            let i = Variant::ALL.iter().position(|&v| v == run.variant).unwrap();
            fold.messages[i] += run.report.messages;
            fold.bytes[i] += run.report.bytes;
            if let Some(net) = &run.report.net {
                match &mut fold.nets[i] {
                    Some(acc) => acc.merge(net),
                    slot => *slot = Some(net.clone()),
                }
            }
            if let Some(pol) = &run.report.policy {
                match &mut fold.policy {
                    Some(acc) => acc.merge(pol),
                    slot => *slot = Some(pol.clone()),
                }
            }
        }
    }
    fold
}

/// The property, as shard `shard` of two: together the two test
/// functions below run exactly the cases of the one property (the
/// default 64, or `PROPTEST_CASES`), on two test threads instead of one.
fn concurrent_serve_totals_equal_the_sequential_fold(shard: usize) {
    let strat = (
        structures(),
        dynamics(),
        nprocs(),
        proptest::sample::select(vec![false, true]),
        0u64..1_000_000,
    );
    let name = "merge_prop::concurrent_serve_totals_equal_the_sequential_fold";
    proptest::run_shard(
        name,
        shard,
        2,
        &strat,
        |(structure, dyn_, np, extra_cell, seed)| {
            let mut cells = vec![cell(structure.clone(), dyn_.clone(), np, seed)];
            if extra_cell {
                // A second, always-cheap cell so multi-cell merges (and
                // label-conflict handling in NetReport::merge) are covered.
                cells.push(cell(structure, Dynamics::Static, 4, seed ^ 0xA5A5));
            }
            // cells + 1 jobs: every cell served at least once, the first
            // served twice — repeated-cell merging is covered while the
            // dominant cost (run_matrix passes) stays affordable per case.
            let jobs = cells.len() + 1;

            let out = serve(
                &cells,
                &ServeConfig {
                    workers: 2,
                    stop: Stop::Jobs(jobs),
                    thread_budget: 64,
                    check_allocs: false,
                    trace: None,
                },
            );
            let want = fold_sequential(&cells, jobs);

            prop_assert_eq!(out.jobs_done, jobs as u64);
            prop_assert_eq!(out.hist.count(), jobs as u64);
            for (i, v) in Variant::ALL.into_iter().enumerate() {
                let got = out.totals(v);
                prop_assert_eq!(
                    (got.messages, got.bytes),
                    (want.messages[i], want.bytes[i]),
                    "{:?}: totals diverged from sequential fold",
                    v
                );
                prop_assert_eq!(
                    &got.net,
                    &want.nets[i],
                    "{:?}: merged NetReport diverged from sequential fold",
                    v
                );
            }
            prop_assert_eq!(
                &out.policy,
                &want.policy,
                "merged PolicyReport diverged from sequential fold"
            );
        },
    );
}

#[test]
fn concurrent_serve_totals_equal_the_sequential_fold_even_cases() {
    concurrent_serve_totals_equal_the_sequential_fold(0);
}

#[test]
fn concurrent_serve_totals_equal_the_sequential_fold_odd_cases() {
    concurrent_serve_totals_equal_the_sequential_fold(1);
}
