//! The traced pass: per-layer numbers from spans the benchmark records
//! around its own calls into each crate's public functions. Nothing
//! under `crates/` is instrumented.
//!
//! After a contended closed-loop run with the serve lanes on (busy
//! share, steals), one client walks the workload's cells in rounds and
//! runs each cell four ways:
//!
//! * **plain** — one `run_matrix`, nothing recorded: `apps.matrix_ms`;
//! * **spanned** — the same six `Workload::run` calls under a `job`
//!   span with one `variant.<name>` child each, the six-way agreement
//!   and stall conservation asserted by the benchmark itself;
//! * **sinked** — `run_matrix` with a `trace::Tracer` installed;
//! * **cold** — `run_matrix` on fresh clusters (synth cells only; the
//!   apps have no other path).
//!
//! Then every microprobe runs under a `probe.<layer>.<what>` span.

use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

use apps::report::RunReport;
use apps::workload::{run_matrix, CheckMode, Variant, Workload};
use rayon::prelude::*;
use simnet::{SimTime, StallCat};
use trace::{check_conservation, chrome_trace_json, with_trace_sink, Tracer};

use crate::metrics::Record;
use crate::spans::SpanLog;
use crate::stats::median;
use crate::workloads::{
    apps_loop, panic_text, serve_loop, set_up, synth_cfgs, Cell, CellCfg, Timed, CLIENTS,
    THREAD_BUDGET,
};

/// Ring capacity per processor lane of the `Tracer` under test.
const LANE_CAP: usize = 1 << 16;

/// How long the pass may take and how hard each probe is sampled.
pub struct Budget {
    /// The contended run with serve lanes on.
    pub contended: Duration,
    /// The one-client rounds (at least one full round runs).
    pub rounds: Duration,
    /// Each microprobe.
    pub probe: Duration,
    /// Repeats of the set-up probes (`synth.prepare_ms`, …).
    pub set_up_repeats: usize,
    /// How many of the workload's cells the one-client rounds cover:
    /// all of them, or just the first under `--smoke`.
    pub round_cells: usize,
}

pub struct Traced {
    pub records: Vec<Record>,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    /// The span log as Chrome-trace JSON.
    pub span_json: String,
}

fn tag(v: Variant) -> &'static str {
    match v {
        Variant::Seq => "seq",
        Variant::TmkBase => "tmk_base",
        Variant::TmkOpt => "tmk_opt",
        Variant::TmkAdaptive => "tmk_adaptive",
        Variant::TmkPush => "tmk_push",
        Variant::Chaos => "chaos",
    }
}

/// The thread allowance `serve` installs around a job of `nprocs`
/// processors when no other job competes for tokens
/// (`serve/src/driver.rs`: the job's own tokens plus up to
/// `nprocs × (threads − 1)` spare ones), so a one-client job here runs
/// under the allowance an uncontended served job would.
fn serve_allowance(nprocs: usize) -> usize {
    let spare = nprocs.saturating_mul(rayon::current_num_threads().saturating_sub(1));
    nprocs + spare.min(THREAD_BUDGET.saturating_sub(nprocs))
}

/// Run `f` the way `serve` runs a job: synth cells under the serve
/// allowance, app cells (which `serve` never sees) under the default.
fn as_served<R>(cfg: &CellCfg, f: impl FnOnce() -> R) -> R {
    match cfg {
        CellCfg::Synth(c) => rayon::ThreadPoolBuilder::new()
            .num_threads(serve_allowance(c.nprocs))
            .build()
            .expect("shim pools cannot fail to build")
            .install(f),
        _ => f(),
    }
}

fn ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

/// One spanned job's `(host ms, report)` per variant, in
/// `Variant::ALL` order.
type JobRuns = Vec<(f64, RunReport)>;

/// Where `v` sits in `Variant::ALL` (and so in a [`JobRuns`]).
fn slot(v: Variant) -> usize {
    Variant::ALL
        .iter()
        .position(|&a| a == v)
        .expect("known variant")
}

/// One job as six spanned `Workload::run` calls, with the checks
/// `run_matrix` would have made done here: agreement with the
/// sequential reference by the cell's own mode, bitwise agreement
/// inside the Tmk family, and stall conservation on every parallel
/// `NetReport`. Returns the per-variant host ms and reports.
fn spanned_job(log: &mut SpanLog, job: u64, cell: &dyn Workload) -> Result<JobRuns, String> {
    let label = cell.label();
    let root = log.begin("job", Some(job));
    let mut runs: JobRuns = Vec::with_capacity(6);
    let mut states: Vec<Vec<f64>> = Vec::with_capacity(6);
    let mut seq_time = SimTime::ZERO;
    for v in Variant::ALL {
        let span = log.begin(format!("variant.{}", tag(v)), None);
        let (report, x) = cell.run(v, seq_time);
        let mut counts = vec![
            ("messages", report.messages),
            ("bytes", report.bytes),
            ("sim_ns", report.time.as_ns()),
        ];
        if let Some(p) = &report.policy {
            counts.extend([
                ("prefetch_rounds", p.prefetch_rounds),
                ("push_rounds", p.push_rounds),
                ("promotions", p.promotions),
                ("demotions", p.demotions),
                ("probes", p.probes),
                ("quiesced_plans", p.quiesced_plans),
            ]);
        }
        let ns = log.end(span, counts);
        if v == Variant::Seq {
            seq_time = report.time;
        }
        runs.push((ns as f64 / 1e6, report));
        states.push(x);
    }
    log.end(root, Vec::new());

    let seq = &states[0];
    for (i, (_, report)) in runs.iter().enumerate().skip(1) {
        let (v, x) = (Variant::ALL[i], &states[i]);
        let agrees = match cell.check_mode() {
            CheckMode::Bitwise => x == seq,
            CheckMode::Tolerance(tol) => {
                x.len() == seq.len()
                    && x.iter()
                        .zip(seq)
                        .all(|(g, w)| (g - w).abs() <= tol + tol * w.abs())
            }
        };
        if !agrees {
            return Err(format!(
                "{label}/{v:?}: diverged from the sequential reference"
            ));
        }
        if Variant::TMK.contains(&v) && *x != states[1] {
            return Err(format!(
                "{label}/{v:?}: Tmk builds must be bitwise identical"
            ));
        }
        let net = report
            .net
            .as_ref()
            .ok_or_else(|| format!("{label}/{v:?}: no NetReport captured"))?;
        check_conservation(net).map_err(|e| format!("{label}/{v:?}: {e}"))?;
    }
    Ok(runs)
}

/// Time `f` in batches of `batch` calls until `budget` has passed (at
/// least five batches), under one `probe.<name>` span. Returns the
/// median nanoseconds per call and the number of batches.
fn probe(
    log: &mut SpanLog,
    name: &str,
    budget: Duration,
    batch: u32,
    mut f: impl FnMut(),
) -> (f64, u64) {
    let span = log.begin(format!("probe.{name}"), None);
    f(); // warm caches and lazy set-up
    let mut samples = Vec::new();
    let start = Instant::now();
    while samples.len() < 5 || (start.elapsed() < budget && samples.len() < 100_000) {
        let t0 = Instant::now();
        for _ in 0..batch {
            f();
        }
        samples.push(t0.elapsed().as_nanos() as f64 / f64::from(batch));
    }
    let n = samples.len() as u64;
    log.end(span, vec![("calls", n * u64::from(batch))]);
    (median(&mut samples), n)
}

/// Every microprobe, as `(metric, value in the metric's unit, samples)`.
fn microprobes(log: &mut SpanLog, budget: Duration) -> Vec<Record> {
    use dsm::{Cluster, Diff, DsmConfig};
    let mut out = Vec::new();
    let mut push = |name: &str, value: f64, n: u64| out.push(Record::new(name, value, n));

    // serve: the three per-job bookkeeping calls of the worker loop.
    let tokens = serve::ThreadBudget::new(THREAD_BUDGET);
    let (ns, n) = probe(log, "serve.budget_acquire", budget, 256, || {
        black_box(tokens.acquire(black_box(4)).tokens());
    });
    push("serve.budget_acquire_ns", ns, n);
    let pool: serve::JobPool<usize> = serve::JobPool::new(CLIENTS);
    let (ns, n) = probe(log, "serve.pool_pop", budget, 1, || {
        pool.inject(0..256);
        while let Some(j) = pool.pop(0) {
            black_box(j);
        }
    });
    push("serve.pool_pop_ns", ns / 256.0, n);
    let mut hist = serve::Histogram::new();
    let mut x = 20_000_000u64;
    let (ns, n) = probe(log, "serve.hist_record", budget, 1024, || {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        hist.record(black_box(10_000_000 + (x >> 40)));
    });
    push("serve.hist_record_ns", ns, n);
    black_box(hist.count());

    // dsm: cluster construction, an empty SPMD run (spawn + join of
    // one OS thread per processor) and a host barrier, at both sizes.
    const BARRIERS: usize = 8;
    for (nprocs, sfx) in [(4usize, "p4"), (64, "p64")] {
        let cfg = DsmConfig {
            nprocs,
            page_size: 512,
            cost: Default::default(),
        };
        let (ns, n) = probe(log, &format!("dsm.cluster_new.{sfx}"), budget, 1, || {
            black_box(Cluster::new(cfg.clone()));
        });
        push(&format!("dsm.cluster_new_us.{sfx}"), ns / 1e3, n);
        let cl = Cluster::new(cfg.clone());
        let (empty, n) = probe(log, &format!("dsm.run_empty.{sfx}"), budget, 1, || {
            cl.run(|p| {
                black_box(p.rank());
            });
        });
        push(&format!("dsm.run_empty_us.{sfx}"), empty / 1e3, n);
        let (with, n) = probe(log, &format!("dsm.barrier.{sfx}"), budget, 1, || {
            cl.run(|p| {
                for _ in 0..BARRIERS {
                    p.barrier();
                }
            });
        });
        push(
            &format!("dsm.barrier_us.{sfx}"),
            (with - empty).max(0.0) / BARRIERS as f64 / 1e3,
            n,
        );
    }

    // dsm: one page fault. Every round rank 0 dirties one word on each
    // of PAGES pages; rank 1 then either reads that word (PAGES read
    // faults: write-notice lookup, diff fetch, apply) or does not. The
    // difference per page is the read-fault path; the write faults and
    // twins are in both.
    const PAGES: usize = 128;
    let cl = Cluster::new(DsmConfig::with_nprocs(2));
    let per_page = cl.page_size() / 8;
    let shared = cl.alloc::<f64>(PAGES * per_page);
    let mut round = 0.0f64;
    let mut fault_round = |log: &mut SpanLog, name: &str, touch: bool| {
        probe(log, name, budget, 1, || {
            round += 1.0;
            let stamp = round;
            cl.run(|p| {
                if p.rank() == 0 {
                    for page in 0..PAGES {
                        p.write(&shared, page * per_page, stamp);
                    }
                }
                p.barrier();
                if p.rank() == 1 && touch {
                    let mut acc = 0.0;
                    for page in 0..PAGES {
                        acc += p.read(&shared, page * per_page);
                    }
                    assert_eq!(acc, stamp * PAGES as f64, "rank 1 read stale pages");
                }
                p.barrier();
            });
        })
    };
    let (idle, _) = fault_round(log, "dsm.fault_page.baseline", false);
    let (faulting, n) = fault_round(log, "dsm.fault_page", true);
    push(
        "dsm.fault_page_us",
        (faulting - idle).max(0.0) / PAGES as f64 / 1e3,
        n,
    );

    // dsm: diff creation and application on one 4 KB page.
    let twin = vec![0u8; 4096];
    let mut sparse = twin.clone();
    for k in 0..16 {
        sparse[k * 256] = 0xAB;
    }
    let dense = vec![0xCDu8; 4096];
    let (ns, n) = probe(log, "dsm.diff_create.dense", budget, 64, || {
        black_box(Diff::create(black_box(&twin), black_box(&dense)));
    });
    push("dsm.diff_create_ns.dense", ns, n);
    let (ns, n) = probe(log, "dsm.diff_create.sparse", budget, 64, || {
        black_box(Diff::create(black_box(&twin), black_box(&sparse)));
    });
    push("dsm.diff_create_ns.sparse", ns, n);
    let diff = Diff::create(&twin, &dense);
    let mut dst = twin.clone();
    let (ns, n) = probe(log, "dsm.diff_apply", budget, 64, || {
        diff.apply(black_box(&mut dst));
    });
    push("dsm.diff_apply_ns", ns, n);

    // fcc: the compile every optimised moldyn/nbf run pays.
    for (what, source) in [
        ("moldyn", fcc::fixtures::MOLDYN_SOURCE),
        ("nbf", fcc::fixtures::NBF_SOURCE),
    ] {
        let (ns, n) = probe(log, &format!("fcc.compile.{what}"), budget, 1, || {
            black_box(fcc::compile(black_box(source)).expect("fixture compiles"));
        });
        push(&format!("fcc.compile_us.{what}"), ns / 1e3, n);
    }

    // rsd: page-set construction and section-to-pages.
    let (ns, n) = probe(log, "rsd.pageset_build", budget, 1, || {
        let mut s = rsd::PageSet::with_capacity(10_000);
        for k in 0..10_000u32 {
            s.insert(k % 700);
        }
        s.finish();
        black_box(s);
    });
    push("rsd.pageset_build_us", ns / 1e3, n);
    let (ns, n) = probe(log, "rsd.pages_of_section", budget, 16, || {
        black_box(rsd::pages_of_section(black_box(0), 8, 0, 99_999, 1, 4096));
    });
    push("rsd.pages_of_section_ns", ns, n);

    // chaos: the inspector (dedup, translate, schedule) on 4 × 64k refs.
    let elems = 16_384usize;
    let part = chaos::block_partition(elems, 4);
    let table = chaos::TTable::new(chaos::TTableKind::Replicated, &part);
    let (ns, n) = probe(log, "chaos.inspector", budget, 1, || {
        let world = chaos::ChaosWorld::new(4, Default::default());
        world.run(|cp| {
            let me = cp.rank();
            let mut cache = chaos::TTableCache::new();
            let refs = (0..65_536).map(|k| ((me * 131 + k * 97) % elems) as u32);
            black_box(chaos::inspector(cp, &table, &mut cache, refs));
        });
    });
    push("chaos.inspector_ms", ns / 1e6, n);

    // rayon shim: one scoped spawn per parallel call, at allowance 2.
    let data = vec![1u64; 4096];
    let two = rayon::ThreadPoolBuilder::new()
        .num_threads(2)
        .build()
        .expect("shim pools cannot fail to build");
    let (ns, n) = probe(log, "rayon.par_spawn", budget, 1, || {
        let sums: Vec<u64> = two.install(|| {
            data.par_chunks(data.len() / 2)
                .map(|c| c.iter().sum::<u64>())
                .collect()
        });
        black_box(sums);
    });
    push("rayon.par_spawn_us", ns / 1e3, n);

    out
}

/// Share of the cluster's simulated nanoseconds billed to `cat`, over
/// every processor of every report.
fn stall_share<'a>(reports: impl Iterator<Item = &'a RunReport>, cat: StallCat) -> f64 {
    let (mut billed, mut clock) = (0u64, 0u64);
    for r in reports {
        for row in r.net.iter().flat_map(|n| &n.stalls) {
            billed += row.get(cat);
            clock += row.clock;
        }
    }
    billed as f64 / (clock.max(1)) as f64
}

/// Jobs attempted and failed in the one-client rounds.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Tally {
    /// Run one job caught: a panicking or disagreeing job fails alone
    /// and leaves its spans closed.
    fn guarded(
        &mut self,
        log: &mut SpanLog,
        what: &str,
        f: &mut dyn FnMut(&mut SpanLog) -> Result<(), String>,
    ) {
        self.attempted += 1;
        let outcome =
            catch_unwind(AssertUnwindSafe(|| f(log))).unwrap_or_else(|p| Err(panic_text(p)));
        if let Err(e) = outcome {
            log.close_open();
            self.failed += 1;
            self.errors.push(format!("{what}: {e}"));
        }
    }
}

/// What the one-client rounds measured: host ms per flavour, pooled
/// over the cells, and each cell's latest spanned job.
#[derive(Default)]
struct Rounds {
    plain: Vec<f64>,
    spanned: Vec<f64>,
    sinked: Vec<f64>,
    cold: Vec<f64>,
    /// Host ms of each variant's span, in `Variant::ALL` order.
    variant_ms: [Vec<f64>; 6],
    /// Per cell; `None` for a cell no round covered.
    last_runs: Vec<Option<JobRuns>>,
    /// `Tracer` events per sinked job, and events lost to ring bounds.
    events: Vec<f64>,
    dropped: u64,
    capture_ms: Vec<f64>,
    chrome_ms: Vec<f64>,
}

/// Walk `cfgs[..budget.round_cells]` in rounds until `budget.rounds`
/// has passed (at least once). `warm` is what serve runs — synth cells
/// on recycled clusters — or, for the apps, the only path there is;
/// `cold` are the same synth cells on fresh clusters.
fn one_client_rounds(
    log: &mut SpanLog,
    tally: &mut Tally,
    cfgs: &[CellCfg],
    warm: &[Cell],
    cold: Option<&[Cell]>,
    budget: &Budget,
) -> Rounds {
    let mut r = Rounds {
        last_runs: vec![None; cfgs.len()],
        ..Rounds::default()
    };
    let round: Vec<(usize, &CellCfg)> = cfgs.iter().enumerate().take(budget.round_cells).collect();
    if cold.is_some() {
        // Fill this thread's recycled-cluster pool before timing.
        for &(k, cfg) in &round {
            tally.guarded(log, "warm-up", &mut |_| {
                as_served(cfg, || run_matrix(warm[k].as_ref()));
                Ok(())
            });
        }
    }
    let start = Instant::now();
    let mut job = 0u64;
    let mut rounds = 0;
    while rounds == 0 || start.elapsed() < budget.rounds {
        rounds += 1;
        for &(k, cfg) in &round {
            let cell = warm[k].as_ref();
            // The three warm flavours take turns going first, so that
            // none always inherits the caches the cold job left behind.
            for step in 0..3 {
                match (rounds + step) % 3 {
                    0 => tally.guarded(log, "plain job", &mut |_| {
                        let t0 = Instant::now();
                        as_served(cfg, || black_box(run_matrix(cell)));
                        r.plain.push(ms_since(t0));
                        Ok(())
                    }),
                    1 => {
                        tally.guarded(log, "spanned job", &mut |log| {
                            let t0 = Instant::now();
                            let runs = as_served(cfg, || spanned_job(log, job, cell))?;
                            r.spanned.push(ms_since(t0));
                            for (i, (ms, _)) in runs.iter().enumerate() {
                                r.variant_ms[i].push(*ms);
                            }
                            r.last_runs[k] = Some(runs);
                            Ok(())
                        });
                        job += 1;
                    }
                    _ => tally.guarded(log, "sinked job", &mut |_| {
                        let tracer = Arc::new(Tracer::new(cfg.nprocs(), LANE_CAP));
                        let t0 = Instant::now();
                        with_trace_sink(tracer.clone(), || {
                            as_served(cfg, || black_box(run_matrix(cell)))
                        });
                        r.sinked.push(ms_since(t0));
                        let t0 = Instant::now();
                        let captured = tracer.capture();
                        r.capture_ms.push(ms_since(t0));
                        r.events.push(captured.len() as f64);
                        r.dropped += captured.dropped();
                        let t0 = Instant::now();
                        black_box(chrome_trace_json(&captured));
                        r.chrome_ms.push(ms_since(t0));
                        Ok(())
                    }),
                }
            }
            if let Some(cold) = cold {
                let fresh = cold[k].as_ref();
                tally.guarded(log, "cold job", &mut |_| {
                    let t0 = Instant::now();
                    as_served(cfg, || black_box(run_matrix(fresh)));
                    r.cold.push(ms_since(t0));
                    Ok(())
                });
            }
        }
    }
    r
}

/// The per-layer records the rounds yield. Host figures are medians
/// over the pooled jobs; the simulated figures and policy counters are
/// exact per-job means over the cells the rounds covered.
fn round_records(mut r: Rounds, contended: &Timed) -> Vec<Record> {
    let mut records = Vec::new();
    let mut push = |name: &str, value: f64, n: u64| records.push(Record::new(name, value, n));
    let med = |v: &mut Vec<f64>| (median(v), v.len() as u64);

    let (matrix_ms, n) = med(&mut r.plain);
    let over_matrix = |ms: f64| ms / matrix_ms.max(1e-9);
    push("apps.matrix_ms", matrix_ms, n);
    push(
        "serve.contention_ratio",
        over_matrix(contended.p50_ms),
        contended.done,
    );
    let (ms, n) = med(&mut r.spanned);
    push("bench.tracing_overhead_share", over_matrix(ms) - 1.0, n);
    let (ms, n) = med(&mut r.sinked);
    push("trace.overhead_share", over_matrix(ms) - 1.0, n);
    let (events, n) = med(&mut r.events);
    push("trace.events_per_job", events, n);
    push("trace.dropped", r.dropped as f64, n);
    let (ms, n) = med(&mut r.capture_ms);
    push("trace.capture_ms", ms, n);
    let (ms, n) = med(&mut r.chrome_ms);
    push("trace.chrome_json_ms", ms, n);
    // The apps run every job cold: there is no recycled path to compare.
    let (cold_ms, n) = med(&mut r.cold);
    let cold_over_warm = if n > 0 { over_matrix(cold_ms) } else { 1.0 };
    push("dsm.cold_over_warm", cold_over_warm, n.max(1));

    let runs: Vec<&JobRuns> = r.last_runs.iter().flatten().collect();
    let ncells = runs.len() as u64;
    let per_job = |v: Variant, f: &dyn Fn(&RunReport) -> f64| -> f64 {
        runs.iter().map(|job| f(&job[slot(v)].1)).sum::<f64>() / runs.len().max(1) as f64
    };
    let sim_ms = |r: &RunReport| r.time.as_ns() as f64 / 1e6;
    let msgs = |r: &RunReport| r.messages as f64;

    let (seq_ms, n) = med(&mut r.variant_ms[slot(Variant::Seq)]);
    push("apps.seq_run_ms", seq_ms, n);
    let (mut parallel_host_us, mut parallel_msgs, mut base_ms) = (0.0, 0.0, 0.0);
    for (v, prefix) in [
        (Variant::TmkBase, "dsm.base_"),
        (Variant::TmkOpt, "core.opt_"),
        (Variant::TmkAdaptive, "adapt.adaptive_"),
        (Variant::TmkPush, "adapt.push_"),
        (Variant::Chaos, "chaos."),
    ] {
        let (ms, n) = med(&mut r.variant_ms[slot(v)]);
        push(&format!("{prefix}run_ms"), ms, n);
        push(&format!("{prefix}sim_ms"), per_job(v, &sim_ms), ncells);
        push(&format!("{prefix}msgs"), per_job(v, &msgs), ncells);
        parallel_host_us += ms * 1e3;
        parallel_msgs += per_job(v, &msgs);
        match v {
            Variant::TmkBase => base_ms = ms,
            Variant::TmkOpt => push("core.opt_over_base_host", ms / base_ms.max(1e-9), n),
            Variant::Chaos => push(
                "simnet.host_us_per_msg",
                parallel_host_us / parallel_msgs.max(1.0),
                n,
            ),
            _ => {}
        }
    }
    push(
        "core.validate_scan_sim_ms",
        per_job(Variant::TmkOpt, &|r| r.validate_scan_s * 1e3),
        ncells,
    );
    push(
        "chaos.inspector_sim_ms",
        per_job(Variant::Chaos, &|r| {
            (r.inspector_s + r.untimed_inspector_s) * 1e3
        }),
        ncells,
    );
    push(
        "adapt.msgs_saved_share",
        1.0 - per_job(Variant::TmkAdaptive, &msgs) / per_job(Variant::TmkBase, &msgs).max(1.0),
        ncells,
    );
    type Counter = fn(&simnet::PolicyReport) -> u64;
    let counters: [(&str, Variant, Counter); 6] = [
        ("adapt.prefetch_rounds", Variant::TmkAdaptive, |p| {
            p.prefetch_rounds
        }),
        ("adapt.push_rounds", Variant::TmkPush, |p| p.push_rounds),
        ("adapt.promotions", Variant::TmkAdaptive, |p| p.promotions),
        ("adapt.demotions", Variant::TmkAdaptive, |p| p.demotions),
        ("adapt.probes", Variant::TmkAdaptive, |p| p.probes),
        ("adapt.quiesced_plans", Variant::TmkAdaptive, |p| {
            p.quiesced_plans
        }),
    ];
    for (name, v, counter) in counters {
        let mean = per_job(v, &|r| r.policy.as_ref().map_or(0, counter) as f64);
        push(name, mean, ncells);
    }
    for (what, v, cat) in [
        ("compute", Variant::TmkAdaptive, StallCat::Compute),
        ("fault", Variant::TmkAdaptive, StallCat::FaultStall),
        ("barrier", Variant::TmkAdaptive, StallCat::BarrierWait),
        (
            "prefetch_push",
            Variant::TmkAdaptive,
            StallCat::PrefetchPush,
        ),
        ("handler", Variant::TmkAdaptive, StallCat::Handler),
        ("inspector", Variant::Chaos, StallCat::Inspector),
        ("exchange", Variant::Chaos, StallCat::Exchange),
    ] {
        let share = stall_share(runs.iter().map(|job| &job[slot(v)].1), cat);
        push(&format!("simnet.stall_share.{what}"), share, ncells);
    }
    records
}

/// The traced pass over workload `name`'s cells.
pub fn traced_pass(name: &str, cfgs: &[CellCfg], budget: &Budget) -> Traced {
    let mut log = SpanLog::new();
    let mut tally = Tally::default();
    let mut records: Vec<Record> = Vec::new();

    // Set-up, by layer: world generation alone, then the whole
    // `Prepared::new` (world + plan + CHAOS tables). Zero for the apps,
    // which do not pass through synth.
    let synth = synth_cfgs(cfgs);
    let synth_cells = synth.as_deref().unwrap_or(&[]);
    let (mut gen_ms, mut prep_ms) = (Vec::new(), Vec::new());
    for _ in 0..budget.set_up_repeats.max(1) {
        let span = log.begin("probe.synth.gen_world", None);
        for c in synth_cells {
            black_box(synth::gen_world(c));
        }
        gen_ms.push(log.end(span, Vec::new()) as f64 / 1e6);
        let span = log.begin("probe.synth.prepare", None);
        for c in synth_cells {
            black_box(synth::Prepared::new(c.clone()));
        }
        prep_ms.push(log.end(span, Vec::new()) as f64 / 1e6);
    }
    let repeats = gen_ms.len() as u64;
    records.push(Record::new(
        "synth.gen_world_ms",
        median(&mut gen_ms),
        repeats,
    ));
    records.push(Record::new(
        "synth.prepare_ms",
        median(&mut prep_ms),
        repeats,
    ));

    // The contended closed loop, with the serve lanes on, and the cold
    // cells the rounds compare against. `serve` builds and pins its own
    // cells; the apps loop needs them built and run cold first.
    let (cold, contended): (Vec<Cell>, Timed) = match &synth {
        Some(cells) => (
            cfgs.iter().map(|c| c.build(false)).collect(),
            serve_loop(cells, budget.contended, true),
        ),
        None => match set_up(cfgs, 1, Duration::ZERO) {
            Ok(ready) => {
                let timed = apps_loop(&ready.cells, &ready.goldens, budget.contended);
                (ready.cells, timed)
            }
            Err(e) => {
                return Traced {
                    records,
                    attempted: cfgs.len() as u64,
                    failed: cfgs.len() as u64,
                    errors: vec![e],
                    span_json: log.to_chrome_json(name),
                }
            }
        },
    };
    tally.attempted += contended.attempted;
    tally.failed += contended.failed;
    tally.errors.extend(contended.errors.iter().cloned());
    records.push(Record::new(
        "serve.busy_share",
        contended.busy_share,
        contended.done,
    ));
    records.push(Record::new(
        "serve.steals_per_job",
        contended.steals as f64 / contended.done.max(1) as f64,
        contended.done,
    ));

    let rounds = if synth.is_some() {
        let warm: Vec<Cell> = cfgs.iter().map(|c| c.build(true)).collect();
        one_client_rounds(&mut log, &mut tally, cfgs, &warm, Some(&cold), budget)
    } else {
        one_client_rounds(&mut log, &mut tally, cfgs, &cold, None, budget)
    };
    records.extend(round_records(rounds, &contended));
    records.extend(microprobes(&mut log, budget.probe));

    Traced {
        records,
        attempted: tally.attempted,
        failed: tally.failed,
        errors: tally.errors,
        span_json: log.to_chrome_json(name),
    }
}
