//! The churn harness: the six scenario-grid cells whose indirection
//! regime *breaks mid-run* — unannounced dynamics shifts
//! (`Dynamics::RegimeShift`) and partition rebalances
//! (`Dynamics::Rebalance`) — plus an opt-in lossy-link section, each
//! bounded by a falsifiable assertion.
//!
//! ```text
//! cargo run --release -p bench --bin table_churn            # paper scale
//! cargo run --release -p bench --bin table_churn -- --quick # seconds scale
//! ```
//!
//! Three claims, asserted in-binary per run:
//!
//! 1. **Churn never perturbs results.** Every churn cell goes through
//!    `run_matrix`, which asserts all six variants bitwise-identical —
//!    a break, a rebalance, or a dropped message may cost traffic, but
//!    never changes a single output bit.
//! 2. **A stale plan is bounded by the probe budget.** On each cell,
//!    `adaptive ≤ base + probe_budget` and `push ≤ base + probe_budget`
//!    messages, with the budget computed from first principles
//!    (`adapt::probe_budget` via [`bench::churn_budget`]): per shared
//!    page and processor, a wrong plan survives at most
//!    `min(probe_every, epochs)` exchanges of ≤ 2 messages before a
//!    contradicting probe demotes it.
//! 3. **Loss degrades push no worse than request/reply.** Re-running
//!    one churn cell under `simnet::with_loss`, the extra messages the
//!    drops cost update-push stay ≤ what they cost pull-mode adaptive
//!    (each lost one-way push retries one message; each lost leg of a
//!    request/reply round trip retries too, and there are two legs to
//!    lose). The lossy runs stay bitwise-identical to the clean runs,
//!    and the per-proc stall rows still conserve simulated time with
//!    the new `Retry` category present and non-zero.
//!
//! `--quick` runs the same cells at seconds scale (this mode is wired
//! into `make soak` and CI); the default is the full nightly scale.

use apps::workload::{run_matrix, Variant, Workload, WorkloadMatrix};
use bench::cli::Cli;
use bench::{churn_budget, Scale};
use simnet::{with_loss, StallCat};
use synth::{scenario_grid, Prepared};

fn print_matrix_row(m: &WorkloadMatrix, budget: u64) {
    let cell = |v: Variant| {
        let r = &m.get(v).report;
        format!("{:>7} {:>8.1}s", r.messages, r.time.as_secs_f64())
    };
    println!(
        "{:<34} | {} | {} | {} | {} | budget {:>6}",
        m.label,
        cell(Variant::TmkBase),
        cell(Variant::TmkAdaptive),
        cell(Variant::TmkPush),
        cell(Variant::Chaos),
        budget,
    );
}

fn main() {
    let quick = Cli::parse("table_churn [--quick]").scale() == Scale::Quick;
    println!("=== table_churn: mid-run regime breaks, rebalances, lossy links ===");
    println!("(churn cells of the scenario grid; six variants per cell, bitwise-");
    println!(" checked; messages bounded by the probe budget computed in-crate)\n");
    println!(
        "{:<34} | {:^16} | {:^16} | {:^16} | {:^16} |",
        "churn scenario", "Tmk base", "Tmk adaptive", "Tmk push", "CHAOS"
    );

    let churn: Vec<_> = scenario_grid(quick)
        .into_iter()
        .filter(|cfg| cfg.dynamics.is_churn())
        .collect();
    assert_eq!(
        churn.len(),
        6,
        "the grid's churn axis is six cells (3 regime shifts, 1 multi-periodic \
         shift, 2 rebalances)"
    );

    for cfg in &churn {
        let budget = churn_budget(cfg);
        let m = run_matrix(&Prepared::new(cfg.clone())); // asserts 6-way bitwise
        print_matrix_row(&m, budget);

        let base = m.get(Variant::TmkBase).report.messages;
        for v in [Variant::TmkAdaptive, Variant::TmkPush] {
            let got = m.get(v).report.messages;
            assert!(
                got <= base + budget,
                "{}/{v:?}: a stale plan must be bounded by the probe budget \
                 ({got} > {base} + {budget})",
                m.label,
            );
        }
    }
    println!(
        "\n{} churn cells: six-way bitwise agreement across every break and",
        churn.len()
    );
    println!("rebalance, adaptive and push within the probe budget of base  ✓");

    lossy_link_probe(&churn[0]);
}

/// Deterministic loss-model seeds/rate for the probe: ~5% per-message
/// drops, heavy enough that every variant retries, light enough that
/// the quick cell still finishes in milliseconds.
const LOSS_SEED: u64 = 0x0C4A_0515;
const LOSS_PER_MILLE: u32 = 50;

/// Claim 3: re-run the first churn cell's adaptive and push variants
/// under deterministic message loss and assert (a) bitwise-unchanged
/// results, (b) push's loss-degradation ≤ adaptive's, (c) simulated
/// time still conserves across stall categories with `Retry` present.
fn lossy_link_probe(cfg: &synth::SynthConfig) {
    println!("\n--- lossy links on the first churn cell ({}‰ drops) ---", LOSS_PER_MILLE);
    let scn = Prepared::new(cfg.clone());
    let (seq_report, seq_x) = scn.run(Variant::Seq, simnet::SimTime::ZERO);
    let seq_time = seq_report.time;

    // Extra messages the drops cost each variant: [adaptive, push].
    let extra = [Variant::TmkAdaptive, Variant::TmkPush].map(|v| {
        let (clean, clean_x) = scn.run(v, seq_time);
        let (lossy, lossy_x) = with_loss(LOSS_SEED, LOSS_PER_MILLE, || scn.run(v, seq_time));
        assert_eq!(
            lossy_x, clean_x,
            "{v:?}: dropped messages must perturb cost, never results"
        );
        assert_eq!(lossy_x, seq_x, "{v:?}: lossy run diverged from sequential");
        assert!(
            lossy.messages > clean.messages,
            "{v:?}: {LOSS_PER_MILLE}‰ loss billed no retries ({} msgs clean and lossy)",
            clean.messages
        );

        let net = lossy.net.as_ref().expect("synth kernels freeze a NetReport");
        let mut retry_stall = 0u64;
        for (rank, row) in net.stalls.iter().enumerate() {
            assert_eq!(
                row.total(),
                row.clock,
                "{v:?} p{rank}: stall categories must conserve the simulated clock"
            );
            retry_stall += row.get(StallCat::Retry);
        }
        assert!(
            retry_stall > 0,
            "{v:?}: loss run attributed no stall time to Retry"
        );
        println!(
            "{:<14} clean {:>7} msgs | lossy {:>7} (+{:>5}) | retry stall {:>9} us | bitwise ✓",
            format!("{v:?}"),
            clean.messages,
            lossy.messages,
            lossy.messages - clean.messages,
            retry_stall,
        );
        lossy.messages - clean.messages
    });
    let [adaptive_extra, push_extra] = extra;
    assert!(
        push_extra <= adaptive_extra,
        "push must degrade no worse than request/reply under loss \
         (push +{push_extra} vs adaptive +{adaptive_extra} msgs)"
    );
    println!(
        "loss degradation: push +{push_extra} msgs ≤ request/reply +{adaptive_extra} msgs  ✓"
    );
}
