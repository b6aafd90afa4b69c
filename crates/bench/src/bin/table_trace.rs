//! The observability acceptance harness: deterministic tracing and
//! stall attribution over one fixed-seed synthetic cell.
//!
//! ```text
//! cargo run --release -p bench --bin table_trace -- --quick              # CI scale
//! cargo run --release -p bench --bin table_trace                        # larger cell
//! cargo run --release -p bench --bin table_trace -- --quick --trace t.json
//! ```
//!
//! The run *is* the check — it asserts, in-binary:
//!
//! * **Determinism**: the same seed traced twice produces byte-identical
//!   Chrome trace JSON, across whatever thread schedule the host dealt
//!   each pass (events are stamped with virtual simulated time and
//!   folded from per-processor lanes in processor order).
//! * **Conservation**: on every parallel variant's report, each
//!   processor's stall categories sum *exactly* to its final simulated
//!   clock — attribution is an accounting identity, not a sampler.
//! * **Well-formedness**: the exported JSON parses (strict recognizer,
//!   no serde), so Perfetto / `chrome://tracing` will load it.
//!
//! `--trace PATH` additionally writes the first pass's Chrome trace for
//! viewing; the stall table is printed either way.

use std::sync::Arc;

use apps::workload::{run_matrix, Variant};
use bench::cli::Cli;
use bench::Scale;
use simnet::{NetReport, StallCat};
use synth::{Dynamics, Prepared, Structure, SynthConfig};
use trace::{check_conservation, chrome_trace_json, json_well_formed, with_trace_sink, Tracer};

/// Ring capacity per processor lane. Large enough that the quick cell
/// loses nothing; drops on bigger cells stay deterministic (same event
/// stream → same survivors) and are reported.
const LANE_CAP: usize = 1 << 16;

fn cell(quick: bool) -> SynthConfig {
    let mut cfg = SynthConfig::quick(Structure::Uniform, Dynamics::PeriodicRemap { period: 3 });
    if quick {
        cfg.n = 768;
        cfg.refs = 1536;
        cfg.iters = 5;
    } else {
        cfg.n = 4096;
        cfg.refs = 8192;
        cfg.iters = 10;
    }
    cfg.seed = 42;
    cfg
}

/// One traced pass: the six-variant matrix under a fresh [`Tracer`].
/// Returns the Chrome JSON plus each parallel variant's report.
fn traced_pass(cfg: &SynthConfig) -> (String, usize, u64, Vec<(Variant, NetReport)>) {
    let tracer = Arc::new(Tracer::new(cfg.nprocs, LANE_CAP));
    let matrix = with_trace_sink(tracer.clone(), || run_matrix(&Prepared::new(cfg.clone())));
    let trace = tracer.capture();
    let (events, dropped) = (trace.len(), trace.dropped());
    let json = chrome_trace_json(&trace);
    let reports = matrix
        .runs
        .iter()
        .filter_map(|r| r.report.net.clone().map(|n| (r.variant, n)))
        .collect();
    (json, events, dropped, reports)
}

fn print_stall_table(variant: Variant, rep: &NetReport) {
    println!("\nstall attribution, {variant:?} (simulated ms per processor):");
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

fn main() {
    let cli = Cli::parse("table_trace [--quick] [--trace PATH]");
    let cfg = cell(cli.scale() == Scale::Quick);
    println!("=== table_trace: deterministic tracing + stall attribution ===");
    println!(
        "(one fixed-seed synth cell, {} procs, seed {}; six variants traced twice)\n",
        cfg.nprocs, cfg.seed
    );

    let (json_a, events, dropped, reports) = traced_pass(&cfg);
    let (json_b, _, _, _) = traced_pass(&cfg);

    if json_a != json_b {
        std::fs::write("/tmp/pass_a.json", &json_a).unwrap();
        std::fs::write("/tmp/pass_b.json", &json_b).unwrap();
        panic!("same seed, two passes: trace JSON must be byte-identical (dumped to /tmp)");
    }
    assert!(json_well_formed(&json_a), "exported trace JSON is malformed");
    assert!(events > 0, "traced run recorded no events");
    println!(
        "trace: {events} events on {} lanes ({dropped} dropped to ring bounds), {} B JSON",
        cfg.nprocs,
        json_a.len()
    );
    println!("two passes byte-identical, JSON well-formed  ✓");

    assert!(!reports.is_empty(), "no parallel variant carried a report");
    for (variant, rep) in &reports {
        check_conservation(rep).unwrap_or_else(|e| panic!("{variant:?}: {e}"));
    }
    println!(
        "conservation: Σ categories == final clock on every proc of all {} variants  ✓",
        reports.len()
    );

    // The breakdown the paper's comparison turns on: where the adaptive
    // build's processors spend their simulated time.
    if let Some((v, rep)) = reports
        .iter()
        .find(|(v, _)| *v == Variant::TmkAdaptive)
        .or(reports.first())
    {
        print_stall_table(*v, rep);
    }

    if let Some(path) = cli.value("--trace") {
        std::fs::write(path, &json_a).expect("write --trace output");
        println!("\nwrote {path} (load it in Perfetto or chrome://tracing)");
    }
}
