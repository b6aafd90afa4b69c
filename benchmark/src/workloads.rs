//! The four workloads: which cells they run, how a cell is set up, and
//! the timed closed loop that yields the end-to-end metrics.
//!
//! Every job is one six-variant `run_matrix`. The three synth workloads
//! serve their cells warm through `serve::serve` (recycled clusters,
//! goldens checked per job); `apps_quick` runs the paper's kernels on
//! fresh clusters from the benchmark's own loop. Both are closed loops
//! of [`CLIENTS`] clients: a client sends its next job only when the
//! previous one has completed.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use apps::moldyn::MoldynConfig;
use apps::nbf::NbfConfig;
use apps::umesh::UmeshConfig;
use apps::workload::{
    run_matrix, MoldynWorkload, NbfWorkload, UmeshWorkload, Variant, Workload, WorkloadMatrix,
};
use serve::{serve, ServeConfig, Stop};
use synth::{scenario_grid, Prepared, SynthConfig};
use trace::ServeTrace;

use crate::stats::{quantile_buckets, quantile_sorted};

/// Closed-loop clients (= serve workers). Sized for the 2-core build
/// host; `RAYON_SHIM_THREADS` is pinned to the same number.
pub const CLIENTS: usize = 2;
/// Simulated-processor tokens live at once. 96 < 2 × 64, so two
/// 64-processor jobs never overlap: `scale64` exercises the
/// `ThreadBudget` wait.
pub const THREAD_BUDGET: usize = 96;

/// The most repeats a cheap set-up makes to fill its time floor.
pub const SET_UP_REPEATS_MAX: usize = 15;

pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
}

pub const SPECS: [Spec; 4] = [
    Spec {
        name: "steady4",
        why: "18 four-processor steady cells served warm: per-processor protocol work \
              (fault/twin/diff, Validate scan, adapt epoch_end, CHAOS re-inspection) dominates",
    },
    Spec {
        name: "scale64",
        why: "3 static 64-processor cells served warm: thread spawn/join, rendezvous parking, \
              notice digests and the ThreadBudget wait dominate; protocol work per processor is small",
    },
    Spec {
        name: "churn4",
        why: "6 churn cells served warm: regime shifts and rebalances at half-run make the predictor \
              wrong mid-run, CHAOS re-pays inspection and owners migrate",
    },
    Spec {
        name: "apps_quick",
        why: "moldyn, nbf and umesh at table --quick scale on fresh clusters: real compute and page \
              traffic, fcc::compile, the Tolerance check and cold cluster construction",
    },
];

/// One cell of a workload, before any world is generated.
#[derive(Debug, Clone)]
pub enum CellCfg {
    Synth(SynthConfig),
    Moldyn(MoldynConfig),
    Nbf(NbfConfig),
    Umesh(UmeshConfig),
}

/// A built cell: world generated, ready to run as any variant.
pub type Cell = Box<dyn Workload + Sync>;

impl CellCfg {
    /// Generate the world (and, for synth cells, the shared plan and
    /// CHAOS tables) — the part of set-up `serve` does before serving.
    /// `warm` turns on a synth cell's recycled-cluster path, the one
    /// `serve` runs its jobs on; the apps have no such path.
    pub fn build(&self, warm: bool) -> Cell {
        match self {
            CellCfg::Synth(c) => {
                let prep = Prepared::new(c.clone());
                prep.set_reuse(warm);
                Box::new(prep)
            }
            CellCfg::Moldyn(c) => Box::new(MoldynWorkload::new(c.clone())),
            CellCfg::Nbf(c) => Box::new(NbfWorkload::new(c.clone())),
            CellCfg::Umesh(c) => Box::new(UmeshWorkload::new(c.clone())),
        }
    }

    pub fn nprocs(&self) -> usize {
        match self {
            CellCfg::Synth(c) => c.nprocs,
            CellCfg::Moldyn(c) => c.nprocs,
            CellCfg::Nbf(c) => c.nprocs,
            CellCfg::Umesh(c) => c.nprocs,
        }
    }

    /// Label and seed, for the grid hash.
    fn identity(&self) -> (String, u64) {
        match self {
            CellCfg::Synth(c) => (format!("synth {}", c.label()), c.seed),
            CellCfg::Moldyn(c) => (
                format!(
                    "moldyn n={} rebuild@{} p{}",
                    c.n, c.update_interval, c.nprocs
                ),
                c.seed,
            ),
            CellCfg::Nbf(c) => (
                format!("nbf n={}x{} p{}", c.n, c.partners, c.nprocs),
                c.seed,
            ),
            CellCfg::Umesh(c) => (format!("umesh {}x{} p{}", c.side, c.side, c.nprocs), c.seed),
        }
    }
}

/// The cells of workload `name`, with `seed` added to every cell's own
/// config seed (0 keeps the grid's seeds, so the simulated totals are
/// comparable with `table_synth` and `BENCH_10`). `None` for an
/// unknown name.
pub fn cell_cfgs(name: &str, seed: u64) -> Option<Vec<CellCfg>> {
    // Quick-grid layout (synth::scenario_grid): 0..18 the 3 structures ×
    // 6 dynamics at 4 processors, 18..21 static at 8, 21..24 static at
    // 64, 24..30 churn.
    let grid = |pick: fn(&SynthConfig) -> bool| -> Vec<CellCfg> {
        scenario_grid(true)
            .into_iter()
            .filter(pick)
            .map(|mut c| {
                c.seed = c.seed.wrapping_add(seed);
                CellCfg::Synth(c)
            })
            .collect()
    };
    let cells = match name {
        "steady4" => grid(|c| c.nprocs == 4 && !c.dynamics.is_churn()),
        "scale64" => grid(|c| c.nprocs == 64),
        "churn4" => grid(|c| c.dynamics.is_churn()),
        "apps_quick" => {
            // table1/table2 --quick (bench::moldyn_rows / nbf_rows).
            let mut moldyn = MoldynConfig::paper(15);
            moldyn.n = 2048;
            moldyn.cutoff_frac = 0.2;
            let mut nbf = NbfConfig::paper(65536);
            nbf.n /= 8;
            nbf.partners = 50;
            let mut umesh = UmeshConfig::medium();
            moldyn.seed = moldyn.seed.wrapping_add(seed);
            nbf.seed = nbf.seed.wrapping_add(seed);
            umesh.seed = umesh.seed.wrapping_add(seed);
            // Cheapest first: a smoke round covers only the first cell.
            vec![
                CellCfg::Umesh(umesh),
                CellCfg::Nbf(nbf),
                CellCfg::Moldyn(moldyn),
            ]
        }
        _ => return None,
    };
    Some(cells)
}

/// FNV-1a over every workload's cell labels and seeds: two results are
/// comparable only when this (and the rest of the fingerprint) match.
pub fn grid_hash(seed: u64) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for spec in &SPECS {
        eat(spec.name.as_bytes());
        for cell in cell_cfgs(spec.name, seed).expect("known workload") {
            let (label, seed) = cell.identity();
            eat(label.as_bytes());
            eat(&seed.to_le_bytes());
        }
    }
    h
}

/// Simulated totals of one job per cell: Σ over the cells and the five
/// parallel variants of each `RunReport`. Exact for a given seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SimTotals {
    pub time_ns: u64,
    pub messages: u64,
    pub bytes: u64,
}

impl SimTotals {
    fn add(&mut self, m: &WorkloadMatrix) {
        for v in Variant::PARALLEL {
            let r = &m.get(v).report;
            self.time_ns += r.time.as_ns();
            self.messages += r.messages;
            self.bytes += r.bytes;
        }
    }
}

/// A cell's cold per-variant `(messages, bytes)`, in `runs` order.
pub type Golden = Vec<(u64, u64)>;

fn golden_of(m: &WorkloadMatrix) -> Golden {
    m.runs
        .iter()
        .map(|r| (r.report.messages, r.report.bytes))
        .collect()
}

/// The message a caught panic carried.
pub fn panic_text(p: Box<dyn std::any::Any + Send>) -> String {
    p.downcast_ref::<String>()
        .cloned()
        .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "panic with a non-string payload".to_string())
}

pub struct SetUp {
    pub cells: Vec<Cell>,
    pub goldens: Vec<Golden>,
    pub sim: SimTotals,
    /// Seconds each repeat took.
    pub secs: Vec<f64>,
}

/// Set the workload up at least `repeats` times — build every cell and
/// run it cold once, which is what `serve` does before serving — and
/// keep the last build. A cheap set-up repeats further, until `floor`
/// has been spent or [`SET_UP_REPEATS_MAX`] repeats are in, so that
/// its median rests on more samples. Errors when a cold run panics or
/// when two repeats disagree on a simulated total (the simulated clock
/// must repeat bit for bit).
pub fn set_up(cfgs: &[CellCfg], repeats: usize, floor: Duration) -> Result<SetUp, String> {
    let mut secs: Vec<f64> = Vec::new();
    let mut last: Option<(Vec<Cell>, Vec<Golden>, SimTotals)> = None;
    let more = |secs: &[f64]| {
        secs.len() < repeats.max(1)
            || (secs.len() < SET_UP_REPEATS_MAX && secs.iter().sum::<f64>() < floor.as_secs_f64())
    };
    while more(&secs) {
        let t0 = Instant::now();
        let built = catch_unwind(AssertUnwindSafe(|| {
            let cells: Vec<Cell> = cfgs.iter().map(|c| c.build(false)).collect();
            let mut sim = SimTotals::default();
            let goldens = cells
                .iter()
                .map(|c| {
                    let m = run_matrix(c.as_ref());
                    sim.add(&m);
                    golden_of(&m)
                })
                .collect();
            (cells, goldens, sim)
        }))
        .map_err(|p| format!("set-up panicked: {}", panic_text(p)))?;
        secs.push(t0.elapsed().as_secs_f64());
        if let Some((_, _, sim)) = &last {
            if *sim != built.2 {
                return Err(format!(
                    "simulated totals differ between set-ups at one seed: {sim:?} vs {:?}",
                    built.2
                ));
            }
        }
        last = Some(built);
    }
    let (cells, goldens, sim) = last.expect("at least one repeat");
    Ok(SetUp {
        cells,
        goldens,
        sim,
        secs,
    })
}

/// What one timed closed-loop run produced.
#[derive(Debug, Default)]
pub struct Timed {
    pub attempted: u64,
    pub failed: u64,
    pub done: u64,
    pub wall_s: f64,
    pub p50_ms: f64,
    pub p90_ms: f64,
    /// Σ service time / (clients × wall); the rest is queue, steal and
    /// budget wait.
    pub busy_share: f64,
    /// Deque steals (serve workloads with a `ServeTrace` only).
    pub steals: u64,
    pub errors: Vec<String>,
}

/// The cells as `serve` takes them, when every one is a synth cell.
pub fn synth_cfgs(cfgs: &[CellCfg]) -> Option<Vec<SynthConfig>> {
    cfgs.iter()
        .map(|c| match c {
            CellCfg::Synth(s) => Some(s.clone()),
            _ => None,
        })
        .collect()
}

/// The closed loop of the synth workloads: `serve::serve` for `window`
/// (it builds the cells and pins their cold goldens itself, untimed).
/// A panic there fails every job of the call — at least one round of
/// the cells. `trace_serve` installs a `ServeTrace` (steal counts);
/// leave it off when timing.
pub fn serve_loop(cells: &[SynthConfig], window: Duration, trace_serve: bool) -> Timed {
    let lanes = trace_serve.then(|| Arc::new(ServeTrace::new(CLIENTS, 1 << 16)));
    let cfg = ServeConfig {
        workers: CLIENTS,
        stop: Stop::Window(window),
        thread_budget: THREAD_BUDGET,
        check_allocs: false,
        trace: lanes.clone(),
    };
    match catch_unwind(AssertUnwindSafe(|| serve(cells, &cfg))) {
        Ok(out) => {
            let (buckets, min, max) = (out.hist.nonzero_buckets(), out.hist.min(), out.hist.max());
            let wall_s = out.wall.as_secs_f64();
            Timed {
                attempted: out.jobs_done,
                failed: 0,
                done: out.jobs_done,
                wall_s,
                p50_ms: quantile_buckets(&buckets, min, max, 0.5) / 1e6,
                p90_ms: quantile_buckets(&buckets, min, max, 0.9) / 1e6,
                busy_share: out.hist.mean() * out.hist.count() as f64
                    / 1e9
                    / (CLIENTS as f64 * wall_s),
                steals: lanes.map_or(0, |l| l.totals().1),
                errors: Vec::new(),
            }
        }
        Err(p) => Timed {
            attempted: cells.len() as u64,
            failed: cells.len() as u64,
            errors: vec![format!("serve() panicked: {}", panic_text(p))],
            ..Timed::default()
        },
    }
}

/// The closed loop of `apps_quick`: [`CLIENTS`] threads run the built
/// cells round-robin on fresh clusters for `window`, each job caught
/// and checked against its cold golden on its own.
pub fn apps_loop(cells: &[Cell], goldens: &[Golden], window: Duration) -> Timed {
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let deadline = start + window;
    let per_client: Vec<(Vec<f64>, Vec<String>)> = std::thread::scope(|s| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|_| {
                s.spawn(|| {
                    let (mut ms, mut errors) = (Vec::new(), Vec::new());
                    while Instant::now() < deadline {
                        let k = next.fetch_add(1, Ordering::Relaxed) % cells.len();
                        let cell = cells[k].as_ref();
                        let t0 = Instant::now();
                        let job = catch_unwind(AssertUnwindSafe(|| run_matrix(cell)));
                        let took = t0.elapsed().as_secs_f64() * 1e3;
                        match job {
                            Ok(m) if golden_of(&m) == goldens[k] => ms.push(took),
                            Ok(m) => errors.push(format!("{}: diverged from its golden", m.label)),
                            Err(p) => errors.push(format!("{}: {}", cell.label(), panic_text(p))),
                        }
                    }
                    (ms, errors)
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|c| c.join().expect("client loop catches its jobs' panics"))
            .collect()
    });
    let wall_s = start.elapsed().as_secs_f64();
    let mut ms: Vec<f64> = Vec::new();
    let mut errors = Vec::new();
    for (m, e) in per_client {
        ms.extend(m);
        errors.extend(e);
    }
    ms.sort_by(f64::total_cmp);
    Timed {
        attempted: (ms.len() + errors.len()) as u64,
        failed: errors.len() as u64,
        done: ms.len() as u64,
        wall_s,
        p50_ms: quantile_sorted(&ms, 0.5),
        p90_ms: quantile_sorted(&ms, 0.9),
        busy_share: ms.iter().sum::<f64>() / 1e3 / (CLIENTS as f64 * wall_s),
        steals: 0,
        errors,
    }
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_have_the_cells_the_readme_promises() {
        for (name, n, nprocs) in [
            ("steady4", 18, 4),
            ("scale64", 3, 64),
            ("churn4", 6, 4),
            ("apps_quick", 3, 8),
        ] {
            let cells = cell_cfgs(name, 0).unwrap();
            assert_eq!(cells.len(), n, "{name}");
            assert!(cells.iter().all(|c| c.nprocs() == nprocs), "{name}");
        }
        assert!(cell_cfgs("mix30", 0).is_none());
    }

    #[test]
    fn the_seed_moves_every_cell_and_the_grid_hash() {
        let (a, b) = (
            cell_cfgs("churn4", 0).unwrap(),
            cell_cfgs("churn4", 5).unwrap(),
        );
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.identity().0, y.identity().0);
            assert_eq!(x.identity().1 + 5, y.identity().1);
        }
        assert_eq!(grid_hash(3), grid_hash(3));
        assert_ne!(grid_hash(3), grid_hash(4));
    }
}
