//! The scenario-matrix harness: every cell of the synthetic grid
//! (interaction structure × indirection dynamics × nprocs) runs all
//! six system variants through the generic `Workload` runner, printing
//! a message/time matrix from the `simnet` counters.
//!
//! ```text
//! cargo run --release -p bench --bin table_synth            # paper scale
//! cargo run --release -p bench --bin table_synth -- --quick # seconds scale
//! cargo run --release -p bench --bin table_synth -- --quick --trace t.json
//! ```
//!
//! `--trace PATH` re-runs the grid's first cell under the structured
//! trace sink, writes a Chrome trace (Perfetto-viewable timeline of
//! faults, fetches, barriers, and policy decisions per processor), and
//! prints where that cell's adaptive build spent its simulated time.
//!
//! The run is also the subsystem's acceptance check. Per scenario:
//!
//! * all six variants agree **bitwise** (asserted inside
//!   `run_matrix` — the fixed-order owner-side reduction contract);
//! * the adaptive policy never sends more messages than plain Tmk, and
//!   update-push never sends more than pull-mode adaptive
//!   (push ≤ prefetch ≤ base per cell); on the six churn cells, whose
//!   regime breaks mid-run, adaptive and push each stay within
//!   `adapt::probe_budget` of base instead;
//! * on *static*-indirection scenarios CHAOS beats plain Tmk on both
//!   messages and time, as the paper predicts (its inspector amortizes
//!   perfectly when the list never changes).
//!
//! Grid-wide, the `--quick` run's per-variant message sums and the
//! probe's two notice-metadata byte counts are exact simulation
//! artifacts and are asserted as such ([`QUICK_GRID_MESSAGES`],
//! [`NOTICE_META_BYTES`]).

use apps::workload::{run_matrix, Variant, WorkloadMatrix};
use bench::cli::Cli;
use bench::Scale;
use simnet::{NetReport, StallCat};
use synth::{notice_meta_probe, scenario_grid, Dynamics, Prepared};

/// Messages summed down each parallel variant's column of the quick
/// grid, in [`Variant::PARALLEL`] order. A protocol change that moves
/// one moves a golden count too; update both in the same commit.
const QUICK_GRID_MESSAGES: [u64; 5] = [212_338, 111_008, 158_132, 148_000, 58_158];

/// `notice_meta_probe` at 16 and 64 processors.
const NOTICE_META_BYTES: (u64, u64) = (4224, 7680);

fn print_matrix_row(m: &WorkloadMatrix) {
    let cell = |v: Variant| {
        let r = &m.get(v).report;
        format!("{:>7} {:>8.1}s", r.messages, r.time.as_secs_f64())
    };
    println!(
        "{:<24} {:>9.1}s | {} | {} | {} | {} | {}",
        m.label,
        m.get(Variant::Seq).report.time.as_secs_f64(),
        cell(Variant::TmkBase),
        cell(Variant::TmkOpt),
        cell(Variant::TmkAdaptive),
        cell(Variant::TmkPush),
        cell(Variant::Chaos),
    );
}

fn main() {
    let cli = Cli::parse("table_synth [--quick] [--trace PATH]");
    let quick = cli.scale() == Scale::Quick;
    println!("=== table_synth: the synthetic scenario matrix ===");
    println!("(structure × dynamics × nprocs; six variants per cell; all cells");
    println!(" cross-checked bitwise; messages and simulated seconds per variant)\n");
    println!(
        "{:<24} {:>10} | {:^16} | {:^16} | {:^16} | {:^16} | {:^16}",
        "scenario", "seq", "Tmk base", "Tmk optimized", "Tmk adaptive", "Tmk push", "CHAOS"
    );

    let grid = scenario_grid(quick);
    let first_cell = grid.first().cloned();
    let ncells = grid.len();
    let mut static_wins = 0usize;
    let mut column_sums = [0u64; 5];
    for cfg in grid {
        let is_static = cfg.dynamics == Dynamics::Static;
        // On the churn cells (unannounced mid-run regime breaks and
        // partition rebalances) a learned plan is *allowed* to be
        // wrong for a bounded while — the steady-state bars relax to
        // the probe-budget bound.
        let churn_budget = cfg.dynamics.is_churn().then(|| bench::churn_budget(&cfg));
        let m = run_matrix(&Prepared::new(cfg)); // asserts 6-way bitwise agreement
        print_matrix_row(&m);
        for (sum, v) in column_sums.iter_mut().zip(Variant::PARALLEL) {
            *sum += m.get(v).report.messages;
        }

        let base = &m.get(Variant::TmkBase).report;
        let adaptive = &m.get(Variant::TmkAdaptive).report;
        let push = &m.get(Variant::TmkPush).report;
        let chaos = &m.get(Variant::Chaos).report;
        let slack = churn_budget.unwrap_or(0);
        assert!(
            adaptive.messages <= base.messages + slack,
            "{}: adaptive sent MORE messages than plain Tmk allows ({} > {} + {})",
            m.label,
            adaptive.messages,
            base.messages,
            slack
        );
        assert!(
            push.messages <= adaptive.messages + slack,
            "{}: push sent MORE messages than pull-mode adaptive allows ({} > {} + {})",
            m.label,
            push.messages,
            adaptive.messages,
            slack
        );
        assert!(
            push.messages <= base.messages + slack,
            "{}: a stale push plan must be bounded by the probe budget ({} > {} + {})",
            m.label,
            push.messages,
            base.messages,
            slack
        );
        if is_static {
            assert!(
                chaos.messages < base.messages && chaos.time < base.time,
                "{}: CHAOS must win on static indirection (msgs {} vs {}, {:.1}s vs {:.1}s)",
                m.label,
                chaos.messages,
                base.messages,
                chaos.time.as_secs_f64(),
                base.time.as_secs_f64()
            );
            static_wins += 1;
        }
    }
    println!("\n{ncells}-cell grid: all six variants bitwise-identical per scenario,");
    println!("push ≤ adaptive ≤ plain Tmk messages everywhere (probe-budget slack on");
    println!("churn cells), CHAOS won all {static_wins} static cells  ✓");
    if quick {
        assert_eq!(
            column_sums, QUICK_GRID_MESSAGES,
            "grid-wide per-variant message totals moved"
        );
        println!("grid-wide messages per variant {column_sums:?} as pinned  ✓");
    }

    notice_scaling_probe();

    if let Some(path) = cli.value("--trace") {
        let cfg = first_cell.expect("grid is never empty");
        let tracer = std::sync::Arc::new(trace::Tracer::new(cfg.nprocs, 1 << 16));
        let m = trace::with_trace_sink(tracer.clone(), || run_matrix(&Prepared::new(cfg.clone())));
        let t = tracer.capture();
        let json = trace::chrome_trace_json(&t);
        assert!(trace::json_well_formed(&json), "trace JSON malformed");
        std::fs::write(path, &json).expect("write --trace output");
        println!(
            "\nwrote {path}: {} events over {} lanes from the grid's first cell",
            t.len(),
            cfg.nprocs
        );
        // The breakdown the paper's comparison turns on: where the
        // adaptive build's processors spend their simulated time.
        let adaptive = m.get(Variant::TmkAdaptive).report.net.as_ref();
        print_stall_table(&m.label, adaptive.expect("Tmk runs carry a net report"));
    }
}

fn print_stall_table(label: &str, rep: &NetReport) {
    println!("\nstall attribution, {label}, Tmk adaptive (simulated ms per processor):");
    print!("{:>5} {:>10}", "proc", "clock");
    for cat in StallCat::ALL {
        print!(" {:>10}", cat.name());
    }
    println!();
    for (p, row) in rep.stalls.iter().enumerate() {
        print!("{p:>5} {:>10.3}", row.clock as f64 / 1e6);
        for cat in StallCat::ALL {
            print!(" {:>10.3}", row.get(cat) as f64 / 1e6);
        }
        println!();
    }
}

/// The barrier-metadata scaling check: the same fixed-size workload at
/// 16 and 64 processors (both past the dense-clock cutoff, so both ship
/// one-pair clocks). With the flat digest and one-pair clocks,
/// the per-barrier notice payload is ~`12·nwriters + 4·pages`: the
/// page term is constant in nprocs for a fixed problem, so quadrupling
/// the cluster must *not* quadruple the bytes. The dense O(nprocs)
/// clock-per-record encoding this replaced fails this assertion.
fn notice_scaling_probe() {
    let nb16 = notice_meta_probe(16);
    let nb64 = notice_meta_probe(64);
    println!(
        "\nbarrier notice metadata, same workload: p16 {nb16} B, p64 {nb64} B ({:.2}x for 4x procs)",
        nb64 as f64 / nb16 as f64
    );
    assert_eq!(
        (nb16, nb64),
        NOTICE_META_BYTES,
        "barrier notice metadata bytes moved"
    );
    assert!(
        nb64 < 4 * nb16,
        "barrier metadata super-linear in nprocs: p64 {nb64} B vs p16 {nb16} B"
    );
    println!("metadata cost ~linear in nprocs (64-proc < 4x the 16-proc bytes)  ✓");
}
