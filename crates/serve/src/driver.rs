//! The serve driver: scenario-matrix-as-a-service.
//!
//! [`serve`] turns the repo's one-shot six-variant contract check into
//! sustained traffic. Each *job* is one full [`run_matrix`] pass over
//! one grid cell — sequential reference plus the five parallel
//! variants, cross-checked bitwise — and a bounded pool of executor
//! threads pulls jobs from a work-stealing [`JobPool`] until either a
//! job count is exhausted or a wall-clock window closes. A job is one
//! OS thread: its simulated processors are coroutines on the worker that
//! runs it (`simnet::Rendezvous`).
//!
//! Correctness is part of the service contract, not a separate test
//! run: before serving, the driver runs every cell **cold** once and
//! pins its per-variant message/byte totals as goldens; every served
//! (warm, recycled-scratch) job is then asserted against them, so a
//! single stale field in `Cluster::recycle` fails the throughput run
//! loudly rather than skewing a benchmark silently.
//!
//! Statistics stay worker-local on the hot path — a latency
//! [`Histogram`], per-variant [`NetReport`] folds, and a merged
//! [`PolicyReport`] per worker — and are merged once at the end, so
//! serving adds no shared lock beyond the job queues themselves.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use apps::workload::{run_matrix, Variant, WorkloadMatrix};
use simnet::{NetReport, PolicyReport};
use synth::{Prepared, SynthConfig};
use trace::{ServeEvent, ServeTrace};

use crate::alloc;
use crate::budget::ThreadBudget;
use crate::deque::JobPool;
use crate::hist::Histogram;

/// How the serve run ends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stop {
    /// Serve exactly this many jobs (cells round-robin), then stop.
    Jobs(usize),
    /// Keep refilling the queue until this much wall-clock time has
    /// passed; jobs still queued at the deadline are abandoned.
    Window(Duration),
}

/// Configuration of one serve run.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Executor threads pulling jobs.
    pub workers: usize,
    /// When to stop.
    pub stop: Stop,
    /// Total OS-thread tokens live at once. A running job holds exactly
    /// one token — its simulated processors are coroutines on the
    /// worker's own thread — so this caps the jobs running at once.
    pub thread_budget: usize,
    /// Debug-only steady-state heap check (needs `workers == 1`, a
    /// [`crate::alloc::Counting`] global allocator, and debug
    /// assertions; silently skipped otherwise). After every cell has
    /// been served twice warm, net heap growth must stay flat.
    pub check_allocs: bool,
    /// Optional job-lifecycle trace: job start/done, deque steals, and
    /// cluster recycles land on per-worker [`ServeTrace`] lanes. `None`
    /// (the default) is the zero-cost path — the worker loop takes one
    /// untaken branch per job and allocates nothing.
    pub trace: Option<Arc<ServeTrace>>,
}

impl ServeConfig {
    /// A small job-count run: `jobs` jobs on `workers` workers with a
    /// budget that admits one paper-scale cell or several small ones.
    pub fn jobs(workers: usize, jobs: usize) -> Self {
        ServeConfig {
            workers,
            stop: Stop::Jobs(jobs),
            thread_budget: 64,
            check_allocs: false,
            trace: None,
        }
    }

    /// A wall-clock window run.
    pub fn window(workers: usize, window: Duration) -> Self {
        ServeConfig {
            workers,
            stop: Stop::Window(window),
            thread_budget: 64,
            check_allocs: false,
            trace: None,
        }
    }
}

/// Merged totals of one variant across every served job.
#[derive(Debug, Clone)]
pub struct VariantTotals {
    pub variant: Variant,
    /// Simulated messages summed over jobs.
    pub messages: u64,
    /// Simulated bytes summed over jobs.
    pub bytes: u64,
    /// Merged per-kind breakdown ([`NetReport::merge`] fold); `None`
    /// for the sequential reference, which exchanges nothing.
    pub net: Option<NetReport>,
}

/// Everything a serve run produced.
#[derive(Debug)]
pub struct ServeOutcome {
    /// Jobs completed (each one a full six-variant matrix).
    pub jobs_done: u64,
    /// Wall-clock time of the serving phase (goldens excluded).
    pub wall: Duration,
    /// Per-job latency in nanoseconds, merged over workers.
    pub hist: Histogram,
    /// One entry per [`Variant::ALL`] element, in that order.
    pub per_variant: Vec<VariantTotals>,
    /// Merged adaptive-policy counters over every served job.
    pub policy: Option<PolicyReport>,
    /// Distinct grid cells served.
    pub cells: usize,
    pub workers: usize,
    /// Net heap growth (bytes) across the steady-state region, when the
    /// debug allocation check ran; `None` when it could not.
    pub steady_growth: Option<i64>,
}

impl ServeOutcome {
    /// Sustained throughput: matrix jobs per wall-clock second.
    pub fn cells_per_sec(&self) -> f64 {
        self.jobs_done as f64 / self.wall.as_secs_f64().max(1e-9)
    }

    /// The `q`-quantile of per-job latency.
    pub fn latency(&self, q: f64) -> Duration {
        Duration::from_nanos(self.hist.quantile(q))
    }

    /// Totals of one variant.
    pub fn totals(&self, v: Variant) -> &VariantTotals {
        self.per_variant
            .iter()
            .find(|t| t.variant == v)
            .expect("variant present")
    }

    /// Human-readable block for the `table_serve` harness.
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "served {} jobs over {} cells on {} workers in {:.2} s",
            self.jobs_done,
            self.cells,
            self.workers,
            self.wall.as_secs_f64()
        );
        let _ = writeln!(
            s,
            "throughput {:7.2} cells/s   latency p50 {:>9.3} ms  p95 {:>9.3} ms  p99 {:>9.3} ms",
            self.cells_per_sec(),
            self.latency(0.50).as_secs_f64() * 1e3,
            self.latency(0.95).as_secs_f64() * 1e3,
            self.latency(0.99).as_secs_f64() * 1e3,
        );
        let _ = writeln!(s, "{:<14} {:>14} {:>14}", "variant", "messages", "MB");
        for t in &self.per_variant {
            if t.variant == Variant::Seq {
                continue;
            }
            let _ = writeln!(
                s,
                "{:<14} {:>14} {:>14.1}",
                t.variant.label(),
                t.messages,
                t.bytes as f64 / 1e6
            );
        }
        if let Some(p) = &self.policy {
            let _ = writeln!(
                s,
                "adaptive: {} prefetch rounds / {} push rounds over {} epochs",
                p.prefetch_rounds, p.push_rounds, p.epochs
            );
        }
        if let Some(g) = self.steady_growth {
            let _ = writeln!(s, "steady-state heap growth: {g} B");
        }
        s
    }
}

/// Per-cell golden: the cold run's (messages, bytes) per variant.
struct Golden {
    rows: Vec<(Variant, u64, u64)>,
}

impl Golden {
    fn capture(m: &WorkloadMatrix) -> Self {
        Golden {
            rows: m
                .runs
                .iter()
                .map(|r| (r.variant, r.report.messages, r.report.bytes))
                .collect(),
        }
    }

    fn check(&self, label: &str, m: &WorkloadMatrix) {
        for (want, run) in self.rows.iter().zip(&m.runs) {
            assert_eq!(want.0, run.variant, "{label}: variant order changed");
            assert_eq!(
                (want.1, want.2),
                (run.report.messages, run.report.bytes),
                "{label}/{:?}: warm run diverged from cold golden",
                run.variant
            );
        }
    }
}

/// One worker's locally accumulated statistics.
struct Tally {
    jobs: u64,
    hist: Histogram,
    /// Indexed like [`Variant::ALL`].
    messages: [u64; 6],
    bytes: [u64; 6],
    nets: [Option<NetReport>; 6],
    policy: Option<PolicyReport>,
}

impl Tally {
    fn new() -> Self {
        Tally {
            jobs: 0,
            hist: Histogram::new(),
            messages: [0; 6],
            bytes: [0; 6],
            nets: Default::default(),
            policy: None,
        }
    }

    fn absorb(&mut self, m: &WorkloadMatrix) {
        self.jobs += 1;
        for run in &m.runs {
            let i = Variant::ALL
                .iter()
                .position(|&v| v == run.variant)
                .expect("known variant");
            self.messages[i] += run.report.messages;
            self.bytes[i] += run.report.bytes;
            if let Some(net) = &run.report.net {
                match &mut self.nets[i] {
                    Some(acc) => acc.merge(net),
                    slot => *slot = Some(net.clone()),
                }
            }
            if let Some(pol) = &run.report.policy {
                match &mut self.policy {
                    Some(acc) => acc.merge(pol),
                    slot => *slot = Some(pol.clone()),
                }
            }
        }
    }

    fn merge(&mut self, other: Tally) {
        self.jobs += other.jobs;
        self.hist.merge(&other.hist);
        for i in 0..6 {
            self.messages[i] += other.messages[i];
            self.bytes[i] += other.bytes[i];
        }
        for (acc, net) in self.nets.iter_mut().zip(other.nets) {
            if let Some(net) = net {
                match acc {
                    Some(a) => a.merge(&net),
                    slot => *slot = Some(net),
                }
            }
        }
        if let Some(pol) = other.policy {
            match &mut self.policy {
                Some(a) => a.merge(&pol),
                slot => *slot = Some(pol),
            }
        }
    }
}

/// Run the scenario-matrix service over `cells` and fold the results.
///
/// Every cell is first run cold (fresh clusters, no pooling) to pin its
/// golden per-variant totals; then the reusable-scratch path is enabled
/// and the workers serve jobs until [`ServeConfig::stop`] says stop.
/// Panics if any served job's bitwise contract or message totals differ
/// from the cold goldens.
pub fn serve(cells: &[SynthConfig], cfg: &ServeConfig) -> ServeOutcome {
    assert!(!cells.is_empty(), "need at least one grid cell");
    assert!(cfg.workers >= 1, "need at least one worker");

    // Shared setup per cell, built once: world + plan + CHAOS tables.
    let preps: Vec<Prepared> = cells.iter().map(|c| Prepared::new(c.clone())).collect();
    // Cold reference pass — also the last fresh-cluster run; everything
    // after goes through the recycled-scratch pool.
    let goldens: Vec<Golden> = preps
        .iter()
        .map(|p| Golden::capture(&run_matrix(p)))
        .collect();
    for p in &preps {
        p.set_reuse(true);
    }

    let pool: JobPool<usize> = JobPool::new(cfg.workers);
    let budget = ThreadBudget::new(cfg.thread_budget);
    let deadline = match cfg.stop {
        Stop::Jobs(n) => {
            pool.inject((0..n).map(|j| j % cells.len()));
            None
        }
        Stop::Window(w) => Some(Instant::now() + w),
    };
    // Seed a window-mode queue with one round per worker.
    if deadline.is_some() {
        for _ in 0..cfg.workers {
            pool.inject(0..cells.len());
        }
    }

    // Steady state begins once every cell has been served twice warm
    // (pools and pooled buffers hot).
    let warmup_jobs = 2 * cells.len() as u64;
    let served = AtomicU64::new(0);
    let track_allocs = cfg.check_allocs && cfg.workers == 1 && cfg!(debug_assertions);
    let tr: Option<&ServeTrace> = cfg.trace.as_deref();

    let start = Instant::now();
    let mut steady_growth = None;
    let mut total = Tally::new();
    let work = |me: usize| {
        let mut tally = Tally::new();
        let mut baseline: Option<i64> = None;
        let mut jobno: u32 = 0;
        loop {
            if let Some(d) = deadline {
                if Instant::now() >= d {
                    break;
                }
            }
            let (cell, stolen) = match pool.pop_reporting(me) {
                Some(c) => c,
                None => match deadline {
                    // Window mode: the queue ran dry before
                    // the deadline — refill and go again.
                    Some(_) => {
                        pool.inject(0..preps.len());
                        continue;
                    }
                    None => break,
                },
            };
            let prep = &preps[cell];
            if let Some(t) = tr {
                if let Some((victim, moved)) = stolen {
                    t.record(
                        me,
                        ServeEvent::Steal {
                            victim: victim as u32,
                            jobs: moved as u32,
                        },
                    );
                }
                t.record(
                    me,
                    ServeEvent::JobStart {
                        job: jobno,
                        cell: cell as u32,
                    },
                );
            }
            // One token ≙ one OS thread: the job's processors are
            // sequential programs that all run on this worker's thread,
            // so the job takes exactly one token and no spares.
            let nprocs = prep.cfg().nprocs;
            let _token = budget.acquire(1);
            let t0 = Instant::now();
            let matrix = run_matrix(prep);
            let ns = t0.elapsed().as_nanos() as u64;
            goldens[cell].check(&matrix.label, &matrix);
            if let Some(t) = tr {
                // The job's simulated cost: the slowest
                // variant's parallel time.
                let sim_ns = matrix
                    .runs
                    .iter()
                    .map(|r| r.report.time.0)
                    .max()
                    .unwrap_or(0);
                t.record(me, ServeEvent::JobDone { job: jobno, sim_ns });
                // Warm jobs run off recycled clusters and
                // return them to the pool on completion.
                t.record(
                    me,
                    ServeEvent::Recycle {
                        procs: nprocs as u32,
                    },
                );
                jobno += 1;
            }
            tally.hist.record(ns);
            tally.absorb(&matrix);
            let done = served.fetch_add(1, Ordering::Relaxed) + 1;
            if track_allocs && alloc::active() && done == warmup_jobs {
                baseline = Some(alloc::net_bytes());
            }
        }
        let growth = baseline.map(|b| alloc::net_bytes() - b);
        (tally, growth)
    };
    // Worker 0 is the calling thread: what the cold pass above freed is
    // on this thread's malloc arena, and only this thread can reuse it.
    std::thread::scope(|s| {
        let work = &work;
        let handles: Vec<_> = (1..cfg.workers)
            .map(|me| s.spawn(move || work(me)))
            .collect();
        let mine = work(0);
        let others = handles
            .into_iter()
            .map(|h| h.join().expect("serve worker panicked"));
        for (tally, growth) in std::iter::once(mine).chain(others) {
            total.merge(tally);
            if growth.is_some() {
                steady_growth = growth;
            }
        }
    });
    let wall = start.elapsed();

    if let Some(g) = steady_growth {
        // Zero per-job growth in steady state: the total may wiggle by
        // a few pooled buffers' worth of capacity, but must not scale
        // with jobs served.
        debug_assert!(
            g <= 64 * 1024,
            "steady-state heap grew by {g} B over {} jobs — a recycle path is leaking",
            total.jobs.saturating_sub(warmup_jobs)
        );
    }

    let per_variant = Variant::ALL
        .iter()
        .enumerate()
        .map(|(i, &variant)| VariantTotals {
            variant,
            messages: total.messages[i],
            bytes: total.bytes[i],
            net: total.nets[i].take(),
        })
        .collect();
    ServeOutcome {
        jobs_done: total.jobs,
        wall,
        hist: total.hist,
        per_variant,
        policy: total.policy,
        cells: cells.len(),
        workers: cfg.workers,
        steady_growth,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use synth::{Dynamics, Structure};

    fn tiny(seed: u64, dynamics: Dynamics) -> SynthConfig {
        let mut cfg = SynthConfig::quick(Structure::Uniform, dynamics);
        cfg.n = 192;
        cfg.refs = 384;
        cfg.iters = 4;
        cfg.page_size = 128;
        cfg.seed = seed;
        cfg
    }

    #[test]
    fn serves_the_requested_job_count_with_stats() {
        let cells = [
            tiny(1, Dynamics::Static),
            tiny(2, Dynamics::PeriodicRemap { period: 2 }),
        ];
        let out = serve(&cells, &ServeConfig::jobs(2, 9));
        assert_eq!(out.jobs_done, 9);
        assert_eq!(out.hist.count(), 9);
        assert_eq!(out.cells, 2);
        // 9 jobs × 6 variants each produced totals; seq exchanged
        // nothing, every parallel variant exchanged something.
        assert_eq!(out.totals(Variant::Seq).messages, 0);
        assert!(out.totals(Variant::Seq).net.is_none());
        for v in Variant::PARALLEL {
            let t = out.totals(v);
            assert!(t.messages > 0, "{v:?} total empty");
            let net = t.net.as_ref().expect("parallel variants carry nets");
            assert_eq!(net.messages, t.messages, "{v:?} net/total mismatch");
            assert_eq!(net.bytes, t.bytes, "{v:?} net/total mismatch");
        }
        // The adaptive variant ran, so policy counters merged.
        assert!(out.policy.is_some());
        let p50 = out.latency(0.5);
        assert!(p50 > Duration::ZERO && p50 <= out.latency(0.99));
        assert!(out.cells_per_sec() > 0.0);
        let text = out.summary();
        assert!(text.contains("9 jobs"));
        assert!(text.contains("p99"));
    }

    #[test]
    fn job_totals_scale_linearly_with_serves() {
        // Totals of k jobs of one deterministic cell = k × one job's.
        let cells = [tiny(7, Dynamics::Static)];
        let one = serve(&cells, &ServeConfig::jobs(1, 1));
        let three = serve(&cells, &ServeConfig::jobs(2, 3));
        for v in Variant::ALL {
            assert_eq!(one.totals(v).messages * 3, three.totals(v).messages);
            assert_eq!(one.totals(v).bytes * 3, three.totals(v).bytes);
        }
    }

    #[test]
    fn serve_trace_sees_every_job_and_recycle() {
        let cells = [tiny(5, Dynamics::Static)];
        let tr = Arc::new(ServeTrace::new(2, 256));
        let mut cfg = ServeConfig::jobs(2, 6);
        cfg.trace = Some(tr.clone());
        let out = serve(&cells, &cfg);
        assert_eq!(out.jobs_done, 6);
        let (jobs, _steals, recycles) = tr.totals();
        assert_eq!(jobs, 6, "one JobDone per served job");
        assert_eq!(recycles, 6, "every warm job returns its clusters");
        let json = tr.to_chrome_json();
        assert!(json.contains("\"sim_ns\""));
        // Tracing is an observer: totals match the untraced run.
        let plain = serve(&cells, &ServeConfig::jobs(2, 6));
        for v in Variant::ALL {
            assert_eq!(out.totals(v).messages, plain.totals(v).messages);
            assert_eq!(out.totals(v).bytes, plain.totals(v).bytes);
        }
    }

    #[test]
    fn window_mode_keeps_serving_until_the_deadline() {
        let cells = [tiny(3, Dynamics::Static)];
        let out = serve(&cells, &ServeConfig::window(2, Duration::from_millis(300)));
        assert!(out.jobs_done >= 1, "window served nothing");
        assert!(out.wall >= Duration::from_millis(300));
    }

    #[test]
    #[should_panic(expected = "need at least one grid cell")]
    fn empty_grid_is_rejected() {
        serve(&[], &ServeConfig::jobs(1, 1));
    }
}
