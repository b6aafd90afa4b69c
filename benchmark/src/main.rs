//! The repo benchmark: four workloads on two clocks, with per-layer
//! call timings. See `README.md` beside this package.
//!
//! ```text
//! benchmark --all [--seed S] [--seconds N] [--smoke] [--tag T]
//! benchmark --workload NAME [--seed S] [--seconds N] [--trace 0|1]
//! ```
//!
//! `--all` runs every workload twice — the timed run with all tracing
//! off, then the traced pass — prints every metric by name with its
//! unit, and writes `out/result[-T].json`. `--workload` is one run of
//! one workload, ending in the one-line JSON object the driver of
//! `BENCHMARK.json` reads.
//!
//! Every run of a workload happens in a child process of its own (this
//! binary again, with `--child`), so `peak_rss_mb` is that run's alone
//! and `RAYON_SHIM_THREADS` is pinned in its environment before any
//! thread reads it.

mod layers;
mod metrics;
mod spans;
mod stats;
mod workloads;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;

use metrics::{MetricDef, Record, END_TO_END, PER_LAYER};
use spans::escape;
use stats::tail_supported;
use workloads::{cell_cfgs, grid_hash, CLIENTS, SPECS};

/// Seconds one run measures when `--seconds` is not given; the
/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 20.0;
/// Seconds per run under `--smoke`: a handful of jobs per workload.
const SMOKE_SECONDS: f64 = 0.4;

#[derive(Debug, Clone)]
struct Args {
    all: bool,
    workload: Option<String>,
    child: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    tag: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        all: false,
        workload: None,
        child: None,
        seed: 0,
        seconds: 0.0,
        trace: false,
        smoke: false,
        tag: None,
    };
    let mut seconds = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--all" => a.all = true,
            "--smoke" => a.smoke = true,
            "--workload" => a.workload = Some(value()?),
            "--child" => a.child = Some(value()?),
            "--tag" => a.tag = Some(value()?),
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    a.seconds = seconds.unwrap_or(if a.smoke {
        SMOKE_SECONDS
    } else {
        DEFAULT_SECONDS
    });
    if let Some(t) = &a.tag {
        if t.is_empty()
            || !t
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        {
            return Err("--tag takes letters, digits, '_', '.' and '-'".into());
        }
    }
    for name in a.workload.iter().chain(&a.child) {
        if cell_cfgs(name, 0).is_none() {
            let known: Vec<_> = SPECS.iter().map(|s| s.name).collect();
            return Err(format!(
                "unknown workload {name} (have {})",
                known.join(", ")
            ));
        }
    }
    match (a.all, &a.workload, &a.child) {
        (true, None, None) | (false, Some(_), None) | (false, None, Some(_)) => Ok(a),
        _ => Err("give exactly one of --all and --workload NAME".into()),
    }
}

/// `out/` beside this package's manifest: where span files and
/// `--all` results go.
fn out_dir() -> PathBuf {
    let manifest = std::env::var("CARGO_MANIFEST_DIR")
        .unwrap_or_else(|_| env!("CARGO_MANIFEST_DIR").to_string());
    PathBuf::from(manifest).join("out")
}

// ---------------------------------------------------------------------
// The child: one run of one workload, reported as tab-separated lines
// (`metric name value n`, `jobs attempted failed`, `error text`).

fn child(name: &str, a: &Args) -> ExitCode {
    let cfgs = cell_cfgs(name, a.seed).expect("checked by parse_args");
    let window = Duration::from_secs_f64(a.seconds);
    let mut records: Vec<Record> = Vec::new();
    let (attempted, failed, errors);
    if a.trace {
        let budget = layers::Budget {
            contended: window.mul_f64(0.3),
            rounds: window.mul_f64(0.5),
            probe: Duration::from_millis(if a.smoke { 3 } else { 40 }),
            set_up_repeats: if a.smoke { 1 } else { 3 },
            round_cells: if a.smoke { 1 } else { cfgs.len() },
        };
        let t = layers::traced_pass(name, &cfgs, &budget);
        let path = out_dir().join(format!("trace-{name}.json"));
        let written =
            std::fs::create_dir_all(out_dir()).and_then(|()| std::fs::write(&path, &t.span_json));
        let mut errs = t.errors;
        if let Err(e) = &written {
            errs.push(format!("writing {}: {e}", path.display()));
        }
        records = t.records;
        (attempted, failed, errors) = (t.attempted, t.failed + u64::from(written.is_err()), errs);
    } else {
        // Five set-ups at least; a cheap one (churn4: 0.1 s) repeats
        // until three seconds are spent, for a steadier median.
        let (repeats, floor) = if a.smoke {
            (1, Duration::ZERO)
        } else {
            (5, Duration::from_secs(3))
        };
        match workloads::set_up(&cfgs, repeats, floor) {
            Ok(mut ready) => {
                let t = match workloads::synth_cfgs(&cfgs) {
                    Some(cells) => workloads::serve_loop(&cells, window, false),
                    None => workloads::apps_loop(&ready.cells, &ready.goldens, window),
                };
                let mut push = |name: &str, v: f64, n: u64| records.push(Record::new(name, v, n));
                let repeats = ready.secs.len() as u64;
                push("setup_s", stats::median(&mut ready.secs), repeats);
                push("jobs_per_s", t.done as f64 / t.wall_s.max(1e-9), t.done);
                push("job_ms_p50", t.p50_ms, t.done);
                push("job_ms_p90", t.p90_ms, t.done);
                push("peak_rss_mb", workloads::peak_rss_mb(), 1);
                let n = cfgs.len() as u64;
                push("sim_time_ms", ready.sim.time_ns as f64 / 1e6, n);
                push("sim_msgs", ready.sim.messages as f64, n);
                push("sim_mbytes", ready.sim.bytes as f64 / 1e6, n);
                (attempted, failed, errors) = (t.attempted, t.failed, t.errors);
            }
            Err(e) => (attempted, failed, errors) = (cfgs.len() as u64, cfgs.len() as u64, vec![e]),
        }
    }
    for r in &records {
        println!("metric\t{}\t{:?}\t{}", r.name, r.value, r.n);
    }
    println!("jobs\t{attempted}\t{failed}");
    for e in &errors {
        println!("error\t{}", e.replace(['\t', '\n'], " "));
    }
    ExitCode::from(u8::from(failed > 0))
}

// ---------------------------------------------------------------------
// The parent: spawn children, check and print what they report.

/// One child's report, checked against the catalogue.
struct Run {
    workload: &'static str,
    trace: bool,
    /// One per catalogue entry of this run's kind, in catalogue order;
    /// a metric the child did not report reads 0 over 0 samples.
    records: Vec<Record>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Run {
    fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty()
    }

    fn defs(&self) -> &'static [MetricDef] {
        if self.trace {
            PER_LAYER
        } else {
            END_TO_END
        }
    }
}

fn run_child(workload: &'static str, trace: bool, a: &Args) -> Run {
    let mut run = Run {
        workload,
        trace,
        records: Vec::new(),
        attempted: 0,
        failed: 0,
        errors: Vec::new(),
    };
    let mut cmd = Command::new(std::env::current_exe().expect("own path"));
    cmd.args(["--child", workload, "--seed", &a.seed.to_string()])
        .args(["--seconds", &a.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .env("RAYON_SHIM_THREADS", CLIENTS.to_string())
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if a.smoke {
        cmd.arg("--smoke");
    }
    // `output` waits for the child to end.
    let out = match cmd.output() {
        Ok(o) => o,
        Err(e) => {
            run.errors.push(format!("could not start the child: {e}"));
            return run;
        }
    };
    let mut seen: Vec<Record> = Vec::new();
    for line in String::from_utf8_lossy(&out.stdout).lines() {
        let f: Vec<&str> = line.split('\t').collect();
        match f.as_slice() {
            ["metric", name, value, n] => match (value.parse::<f64>(), n.parse::<u64>()) {
                (Ok(v), Ok(n)) if v.is_finite() => seen.push(Record::new(name, v, n)),
                _ => run.errors.push(format!("{name}: unreadable value {value}")),
            },
            ["jobs", att, fail] => {
                run.attempted = att.parse().unwrap_or(0);
                run.failed = fail.parse().unwrap_or(0);
            }
            ["error", text] => run.errors.push(text.to_string()),
            _ => run.errors.push(format!("unexpected child output: {line}")),
        }
    }
    if !out.status.success() && run.errors.is_empty() {
        run.errors.push(format!("child ended with {}", out.status));
    }
    for def in run.defs() {
        match seen.iter().find(|r| r.name == def.name) {
            Some(r) => run.records.push(r.clone()),
            None => {
                run.errors.push(format!("{} was not reported", def.name));
                run.records.push(Record::new(def.name, 0.0, 0));
            }
        }
    }
    if run.attempted == 0 {
        // Nothing ran: whatever the cause, that is one failed attempt.
        (run.attempted, run.failed) = (1, 1);
    }
    if !trace {
        let jobs = run
            .records
            .iter()
            .find(|r| r.name == "job_ms_p90")
            .map_or(0, |r| r.n);
        if !tail_supported(jobs, 0.9) {
            eprintln!(
                "note: {workload}: job_ms_p90 rests on {jobs} jobs, fewer than ten beyond it; \
                 run longer (--seconds) before trusting the tail"
            );
        }
    }
    run
}

struct Host {
    nproc: usize,
    rustc: String,
    grid_hash: u64,
}

fn host(seed: u64) -> Host {
    let rustc = Command::new("rustc")
        .arg("--version")
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    Host {
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        rustc,
        grid_hash: grid_hash(seed),
    }
}

fn print_host(h: &Host, a: &Args) {
    println!(
        "host: nproc={} RAYON_SHIM_THREADS={CLIENTS} rustc=\"{}\" grid_hash={:016x} seed={} seconds={}",
        h.nproc, h.rustc, h.grid_hash, a.seed, a.seconds
    );
}

fn print_run(run: &Run) {
    println!(
        "\n== {} · {} · {} jobs attempted, {} failed (failed_share {:.4}) ==",
        run.workload,
        if run.trace {
            "traced pass: per-layer"
        } else {
            "timed run: end to end"
        },
        run.attempted,
        run.failed,
        run.failed as f64 / run.attempted as f64,
    );
    println!(
        "{:<34} {:>16} {:<6} {:<10} {:>7} {:<7} {:>6}  explains",
        "metric", "value", "unit", "clock", "n", "better", "bound"
    );
    for (r, def) in run.records.iter().zip(run.defs()) {
        let bound = if def.bound > 0.0 {
            format!("{:.0}%", def.bound * 100.0)
        } else {
            "-".to_string()
        };
        println!(
            "{:<34} {:>16.4} {:<6} {:<10} {:>7} {:<7} {:>6}  {}",
            r.name,
            r.value,
            def.unit,
            def.clock.tag(),
            r.n,
            if def.higher_is_better {
                "higher"
            } else {
                "lower"
            },
            bound,
            def.explains,
        );
    }
    for e in &run.errors {
        println!("FAILED: {e}");
    }
}

/// `{"name":{"value":…,"unit":…},…}` — the driver's shape — or with
/// `full`, also the sample count, clock, direction and bound.
fn metrics_json(run: &Run, full: bool) -> String {
    let mut out = String::from("{");
    for (i, (r, def)) in run.records.iter().zip(run.defs()).enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\"{}\":{{\"value\":{},\"unit\":\"{}\"",
            r.name, r.value, def.unit
        );
        if full {
            let _ = write!(
                out,
                ",\"n\":{},\"clock\":\"{}\",\"better\":\"{}\"",
                r.n,
                def.clock.tag(),
                if def.higher_is_better {
                    "higher"
                } else {
                    "lower"
                }
            );
            if def.bound > 0.0 {
                let _ = write!(out, ",\"bound\":{}", def.bound);
            }
        }
        out.push('}');
    }
    out.push('}');
    out
}

fn one_workload(name: &str, a: &Args) -> ExitCode {
    let spec = SPECS
        .iter()
        .find(|s| s.name == name)
        .expect("checked by parse_args");
    print_host(&host(a.seed), a);
    let run = run_child(spec.name, a.trace, a);
    print_run(&run);
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        run.correct(),
        run.attempted,
        run.failed,
        metrics_json(&run, false)
    );
    ExitCode::from(u8::from(!run.correct()))
}

fn all_workloads(a: &Args) -> ExitCode {
    let h = host(a.seed);
    print_host(&h, a);
    let mut json = format!(
        "{{\"host\":{{\"nproc\":{},\"rayon_shim_threads\":{CLIENTS},\"rustc\":\"{}\",\
         \"grid_hash\":\"{:016x}\"}},\"seed\":{},\"seconds\":{},\"smoke\":{},\"workloads\":{{",
        h.nproc,
        escape(&h.rustc),
        h.grid_hash,
        a.seed,
        a.seconds,
        a.smoke
    );
    let mut correct = true;
    for (i, spec) in SPECS.iter().enumerate() {
        println!("\n# {}: {}", spec.name, spec.why);
        let timed = run_child(spec.name, false, a);
        print_run(&timed);
        let traced = run_child(spec.name, true, a);
        print_run(&traced);
        let (attempted, failed) = (
            timed.attempted + traced.attempted,
            timed.failed + traced.failed,
        );
        let errors: Vec<String> = timed
            .errors
            .iter()
            .chain(&traced.errors)
            .map(|e| format!("\"{}\"", escape(e)))
            .collect();
        correct &= timed.correct() && traced.correct();
        let _ = write!(
            json,
            "{}\"{}\":{{\"correct\":{},\"attempted\":{attempted},\"failed\":{failed},\
             \"failed_share\":{},\"errors\":[{}],\"end_to_end\":{},\"per_layer\":{}}}",
            if i > 0 { "," } else { "" },
            spec.name,
            timed.correct() && traced.correct(),
            failed as f64 / attempted as f64,
            errors.join(","),
            metrics_json(&timed, true),
            metrics_json(&traced, true),
        );
    }
    let _ = write!(json, "}},\"correct\":{correct}}}");
    let file = match &a.tag {
        Some(t) => format!("result-{t}.json"),
        None => "result.json".to_string(),
    };
    let path = out_dir().join(file);
    match std::fs::create_dir_all(out_dir())
        .and_then(|()| std::fs::write(&path, format!("{json}\n")))
    {
        Ok(()) => println!("\nwrote {}", path.display()),
        Err(e) => {
            eprintln!("writing {}: {e}", path.display());
            correct = false;
        }
    }
    println!("{json}");
    ExitCode::from(u8::from(!correct))
}

fn main() -> ExitCode {
    let a = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}");
            eprintln!(
                "usage: benchmark --all [--seed S] [--seconds N] [--smoke] [--tag T]\n\
                 \x20      benchmark --workload NAME [--seed S] [--seconds N] [--trace 0|1]"
            );
            return ExitCode::from(2);
        }
    };
    if let Some(name) = &a.child {
        return child(name, &a);
    }
    match &a.workload {
        Some(name) => one_workload(name, &a),
        None => all_workloads(&a),
    }
}
