//! Collect the machine-readable benchmark snapshot (`BENCH_10.json`,
//! named once in `bench::SNAPSHOTS`).
//!
//! `make bench` runs `cargo bench` with `CRITERION_JSON` pointing at a
//! JSON-lines sink (one `{"name": ..., "ns": ..., "mad_ns": ...}` per
//! microbenchmark, written by the criterion shim), then runs this
//! collector, which merges:
//!
//! * the per-benchmark median nanoseconds and their MAD (last line wins
//!   if a bench ran twice);
//! * the per-variant **message totals** of the three classic apps at
//!   their small sizes (the numbers `golden_counts.rs` pins — counted
//!   in-simulation, so they are machine-independent) plus the quick
//!   grid's six **churn cells** (regime breaks, rebalances), so a drift
//!   in what a mid-run break costs is gated exactly like a drift in the
//!   steady-state counts;
//! * the barrier notice-metadata probe at 16 and 64 processors (the
//!   scaling figure `table_synth` asserts);
//! * a `serve` section: the deterministic per-variant message totals of
//!   one round over the quick scenario grid (one job per cell, machine-
//!   independent) plus a throughput/latency snapshot (machine-dependent;
//!   `cells_per_sec` is the median of three rounds and carries its MAD so
//!   `bench_diff` can gate throughput against a noise band rather than a
//!   point sample);
//! * a `stall_attribution` section: where the fixed moldyn and nbf
//!   cells' processors spend their simulated time (compute vs fault
//!   stall vs barrier wait vs ...), from the billing `simnet` does on
//!   every clock mutation — simulated nanoseconds, so exactly
//!   reproducible, and conservation-checked here before writing.
//!
//! The output is committed so a diff of protocol counts shows up in
//! review like a golden-file change; `bench_diff` enforces that the
//! message totals moved only when the committed previous snapshot (and
//! `golden_counts.rs`) moved with them.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use apps::moldyn::MoldynConfig;
use apps::nbf::NbfConfig;
use apps::umesh::UmeshConfig;
use apps::workload::{run_matrix, MoldynWorkload, NbfWorkload, UmeshWorkload, Variant};
use serve::{serve, ServeConfig, Stop};
use synth::{notice_meta_probe, scenario_grid, Prepared};

fn main() {
    bench::cli::Cli::parse("bench_json");
    let snapshot = bench::SNAPSHOTS.1;
    let sink = std::env::var("CRITERION_JSON")
        .unwrap_or_else(|_| "target/criterion.jsonl".to_string());
    let mut ns: BTreeMap<String, (f64, Option<f64>)> = BTreeMap::new();
    if let Ok(lines) = std::fs::read_to_string(&sink) {
        for line in lines.lines() {
            if let Some((name, v, mad)) = parse_line(line) {
                ns.insert(name, (v, mad)); // last line per name wins
            }
        }
    } else {
        eprintln!("note: no criterion sink at {sink}; emitting counts only");
    }

    let variants = [
        (Variant::TmkBase, "tmk_base"),
        (Variant::TmkOpt, "tmk_opt"),
        (Variant::TmkAdaptive, "tmk_adaptive"),
        (Variant::TmkPush, "tmk_push"),
        (Variant::Chaos, "chaos"),
    ];
    let matrices = [
        ("moldyn_small", run_matrix(&MoldynWorkload::new(MoldynConfig::small()))),
        ("nbf_small", run_matrix(&NbfWorkload::new(NbfConfig::small()))),
        ("umesh_small", run_matrix(&UmeshWorkload::new(UmeshConfig::small()))),
    ];
    let mut messages: BTreeMap<String, Vec<(&str, u64)>> = BTreeMap::new();
    for (label, matrix) in &matrices {
        let row = variants
            .iter()
            .map(|&(v, tag)| (tag, matrix.get(v).report.messages))
            .collect();
        messages.insert(label.to_string(), row);
    }
    // The churn cells of the quick grid: what a mid-run regime break,
    // rebalance, or multi-periodic shift costs each variant. Counted
    // in-simulation like the app rows, so drifts are protocol changes.
    for cfg in scenario_grid(true).into_iter().filter(|c| c.dynamics.is_churn()) {
        let label = cfg.label();
        let matrix = run_matrix(&Prepared::new(cfg));
        let row = variants
            .iter()
            .map(|&(v, tag)| (tag, matrix.get(v).report.messages))
            .collect();
        messages.insert(label, row);
    }

    // Stall attribution of the fixed moldyn/nbf cells (adaptive build):
    // simulated ns billed per category, conservation-checked (Σ buckets
    // == final clock per proc) before the snapshot is written.
    let stall_sections: Vec<(&str, String)> = matrices[..2]
        .iter()
        .map(|(label, matrix)| {
            let rep = matrix
                .get(Variant::TmkAdaptive)
                .report
                .net
                .as_ref()
                .expect("adaptive variant carries a net report");
            trace::check_conservation(rep)
                .unwrap_or_else(|e| panic!("{label}: stall conservation broken: {e}"));
            (*label, trace::stall_json(rep).trim_end().to_string())
        })
        .collect();

    // The metadata-scaling probe at the sizes table_synth asserts.
    let (nb16, nb64) = (notice_meta_probe(16), notice_meta_probe(64));

    // Serve rounds over the quick grid: one job per cell, three times.
    // The message totals are pure simulation counts (identical every
    // round); throughput and percentiles are wall-clock, so the
    // snapshot records the median cells/sec of the three rounds plus
    // its MAD — the noise band `bench_diff`'s throughput gate scales.
    let grid = scenario_grid(true);
    let rounds: Vec<_> = (0..3)
        .map(|_| {
            serve(
                &grid,
                &ServeConfig {
                    workers: 4,
                    stop: Stop::Jobs(grid.len()),
                    thread_budget: 96,
                    check_allocs: false,
                    trace: None,
                },
            )
        })
        .collect();
    let mut rates: Vec<f64> = rounds.iter().map(|r| r.cells_per_sec()).collect();
    rates.sort_by(f64::total_cmp);
    let cps_median = rates[1];
    let mut devs: Vec<f64> = rates.iter().map(|r| (r - cps_median).abs()).collect();
    devs.sort_by(f64::total_cmp);
    let cps_mad = devs[1];
    let out_serve = &rounds[0];
    let lat = |q: f64| out_serve.latency(q).as_secs_f64() * 1e3;

    let mut out = String::from("{\n  \"benches_ns\": {\n");
    let rows: Vec<String> = ns
        .iter()
        .map(|(name, (v, _))| format!("    \"{name}\": {v:.1}"))
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  },\n  \"benches_mad_ns\": {\n");
    let rows: Vec<String> = ns
        .iter()
        .filter_map(|(name, (_, mad))| mad.map(|m| format!("    \"{name}\": {m:.1}")))
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  },\n  \"message_totals\": {\n");
    let rows: Vec<String> = messages
        .iter()
        .map(|(label, row)| {
            let cells: Vec<String> =
                row.iter().map(|(tag, m)| format!("\"{tag}\": {m}")).collect();
            format!("    \"{label}\": {{ {} }}", cells.join(", "))
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    let _ = write!(
        out,
        "\n  }},\n  \"notice_meta_bytes\": {{ \"p16\": {nb16}, \"p64\": {nb64} }},\n"
    );
    let serve_rows: Vec<String> = Variant::PARALLEL
        .iter()
        .zip(variants.iter())
        .map(|(&v, &(_, tag))| format!("\"{tag}\": {}", out_serve.totals(v).messages))
        .collect();
    let _ = write!(
        out,
        "  \"serve_quick_grid\": {{\n    \"jobs\": {},\n    \"message_totals\": {{ {} }},\n    \"cells_per_sec\": {cps_median:.2},\n    \"cells_per_sec_mad\": {cps_mad:.2},\n    \"latency_ms\": {{ \"p50\": {:.2}, \"p95\": {:.2}, \"p99\": {:.2} }}\n  }},\n",
        out_serve.jobs_done,
        serve_rows.join(", "),
        lat(0.50),
        lat(0.95),
        lat(0.99),
    );
    let stall_rows: Vec<String> = stall_sections
        .iter()
        .map(|(label, json)| format!("    \"{label}\": {json}"))
        .collect();
    let _ = write!(
        out,
        "  \"stall_attribution\": {{\n{}\n  }}\n}}\n",
        stall_rows.join(",\n")
    );
    assert!(
        trace::json_well_formed(&out),
        "{snapshot} would be malformed"
    );

    std::fs::write(snapshot, &out).expect("write the snapshot");
    println!(
        "wrote {snapshot} ({} benches, 3 apps, notice probe, 3×{}-job serve rounds, stall attribution)",
        ns.len(),
        out_serve.jobs_done
    );
}

/// Minimal parse of one `{"name":"...","ns":...}` sink line, tolerating
/// the pre-MAD shim format (no `"mad_ns"` key).
fn parse_line(line: &str) -> Option<(String, f64, Option<f64>)> {
    let name_start = line.find("\"name\":\"")? + 8;
    let name_end = name_start + line[name_start..].find('"')?;
    let number_at = |key: &str| -> Option<f64> {
        let start = line.find(key)? + key.len();
        let end = line[start..]
            .find(|c: char| c != '.' && c != '-' && !c.is_ascii_digit())
            .map_or(line.len(), |k| start + k);
        line[start..end].parse().ok()
    };
    Some((
        line[name_start..name_end].to_string(),
        number_at("\"ns\":")?,
        number_at("\"mad_ns\":"),
    ))
}
