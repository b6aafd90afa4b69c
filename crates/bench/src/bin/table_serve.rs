//! The scenario-matrix *service* harness: where `table_synth` runs each
//! grid cell once, `table_serve` keeps serving cells — every job one
//! full six-variant `run_matrix` pass — from a work-stealing pool of
//! executor threads, and reports sustained throughput (cells/sec) and
//! per-job latency percentiles (p50/p95/p99).
//!
//! ```text
//! cargo run --release -p bench --bin table_serve -- --quick   # ≥200 jobs, 30-cell grid
//! cargo run --release -p bench --bin table_serve             # 60 s window, paper scale
//! ```
//!
//! Flags: `--jobs N` serves exactly N jobs; `--window-secs S` serves for
//! S seconds of wall clock; `--workers W` sets the executor count
//! (default 4); `--json PATH` additionally writes a machine-readable
//! report including the full log-bucket latency histogram (the nightly
//! run uploads it as an artifact); `--trace PATH` records the job
//! lifecycle — starts, completions, deque steals, cluster recycles —
//! on per-worker lanes and writes a Chrome trace. Without an explicit
//! stop, `--quick` serves 200 jobs and the paper-scale run serves a
//! 60-second window (the nightly soak).
//!
//! The run doubles as the serve subsystem's acceptance check: every
//! served job re-asserts the six-way bitwise contract inside
//! `run_matrix`, and the driver compares each job's per-variant message
//! and byte totals against cold-run goldens pinned before serving began
//! — the reusable-scratch path must be *observably* identical to fresh
//! clusters, or the run aborts.

use std::sync::Arc;
use std::time::Duration;

use bench::cli::Cli;
use bench::Scale;
use serve::{serve, ServeConfig, Stop};
use synth::scenario_grid;
use trace::{json_well_formed, ServeTrace};

fn main() {
    let cli = Cli::parse(
        "table_serve [--quick] [--jobs N] [--window-secs S] [--workers W] [--json PATH] \
         [--trace PATH]",
    );
    let quick = cli.scale() == Scale::Quick;
    let workers: usize = cli.parsed("--workers").unwrap_or(4);
    let jobs: Option<usize> = cli.parsed("--jobs");
    let window: Option<u64> = cli.parsed("--window-secs");

    let stop = match (jobs, window) {
        (Some(n), _) => Stop::Jobs(n),
        (None, Some(s)) => Stop::Window(Duration::from_secs(s)),
        (None, None) if quick => Stop::Jobs(200),
        (None, None) => Stop::Window(Duration::from_secs(60)),
    };

    let grid = scenario_grid(quick);
    println!("=== table_serve: scenario-matrix-as-a-service ===");
    println!(
        "({} grid, {} cells; every job = one six-variant bitwise-checked matrix,",
        if quick { "quick" } else { "paper-scale" },
        grid.len()
    );
    println!(" served warm off recycled clusters, checked against cold goldens)\n");

    // Per-worker job-lifecycle lanes, only when asked for: the `None`
    // path is the zero-overhead default the heap assertions measure.
    let trace_path = cli.value("--trace");
    let tracer = trace_path
        .as_ref()
        .map(|_| Arc::new(ServeTrace::new(workers, 1 << 14)));

    let cfg = ServeConfig {
        workers,
        stop,
        // OS-thread tokens. A job holds exactly one (its processors are
        // coroutines on its worker), so this never makes a worker wait.
        thread_budget: if quick { 96 } else { 288 },
        check_allocs: false,
        trace: tracer.clone(),
    };
    let out = serve(&grid, &cfg);
    print!("{}", out.summary());

    if let (Some(path), Some(tr)) = (trace_path, &tracer) {
        let json = tr.to_chrome_json();
        assert!(json_well_formed(&json), "serve trace JSON malformed");
        let (jobs, steals, recycles) = tr.totals();
        assert_eq!(
            jobs, out.jobs_done,
            "trace saw {jobs} JobDone events for {} served jobs",
            out.jobs_done
        );
        std::fs::write(path, &json).expect("write --trace output");
        println!("wrote {path} ({jobs} jobs, {steals} steals, {recycles} recycles traced)");
    }

    if let Some(path) = cli.value("--json") {
        let lat = |q: f64| out.latency(q).as_secs_f64() * 1e3;
        let rows: Vec<String> = out
            .per_variant
            .iter()
            .map(|t| {
                format!(
                    "    {{ \"variant\": \"{:?}\", \"messages\": {}, \"bytes\": {} }}",
                    t.variant, t.messages, t.bytes
                )
            })
            .collect();
        // The full log-bucket latency histogram: half-open [lo, hi) ns
        // edges plus counts, one row per non-empty bucket. Counts sum to
        // the job total, so downstream tooling can recompute any
        // quantile without rerunning the service.
        let hist_rows: Vec<String> = out
            .hist
            .nonzero_buckets()
            .iter()
            .map(|&(lo, hi, n)| format!("    [{lo}, {hi}, {n}]"))
            .collect();
        let report = format!(
            "{{\n  \"grid\": \"{}\",\n  \"cells\": {},\n  \"workers\": {},\n  \"jobs\": {},\n  \"wall_secs\": {:.2},\n  \"cells_per_sec\": {:.2},\n  \"latency_ms\": {{ \"p50\": {:.2}, \"p95\": {:.2}, \"p99\": {:.2} }},\n  \"latency_hist_ns\": [\n{}\n  ],\n  \"per_variant\": [\n{}\n  ]\n}}\n",
            if quick { "quick" } else { "paper" },
            out.cells,
            out.workers,
            out.jobs_done,
            out.wall.as_secs_f64(),
            out.cells_per_sec(),
            lat(0.50),
            lat(0.95),
            lat(0.99),
            hist_rows.join(",\n"),
            rows.join(",\n"),
        );
        assert!(json_well_formed(&report), "--json report malformed");
        let bucket_total: u64 = out.hist.nonzero_buckets().iter().map(|&(_, _, n)| n).sum();
        assert_eq!(
            bucket_total, out.jobs_done,
            "histogram buckets must cover every job"
        );
        std::fs::write(path, report).expect("write --json report");
        println!("wrote {path}");
    }

    if let Stop::Jobs(n) = stop {
        assert_eq!(
            out.jobs_done, n as u64,
            "driver stopped early: {} of {n} jobs",
            out.jobs_done
        );
    }
    if quick && jobs.is_none() && window.is_none() {
        assert!(
            out.jobs_done >= 200,
            "quick acceptance needs ≥ 200 jobs, served {}",
            out.jobs_done
        );
    }
    println!(
        "\n{} jobs × 6 variants: all bitwise-identical, all equal to cold goldens  ✓",
        out.jobs_done
    );
}
