//! # bench — experiment harnesses for every table and figure
//!
//! Binaries (run with `--release`; every flag goes through [`cli`], so
//! an unknown one prints the usage and exits 2):
//!
//! * `table1` — moldyn, 16 384 molecules, list rebuilt every {20, 15, 11}
//!   steps (paper Table 1), plus the §5.1.1 one-processor rows.
//! * `table2` — nbf at {64×1024, 64×1000, 32×1024} (paper Table 2), plus
//!   the §5.2.1 one-processor rows.
//! * `table_adapt` — seq / Tmk base / Tmk+compiler / Tmk adaptive /
//!   Tmk push on all three apps, with the adaptive engine's
//!   policy-decision counters and acceptance checks.
//! * `table_synth` — the synthetic scenario grid, six variants per cell,
//!   bitwise cross-checked (churn cells under the probe-budget bound),
//!   plus the barrier-metadata scaling probe.
//! * `table_serve` — the scenario matrix as a throughput service
//!   (cells/sec, latency percentiles, warm == cold goldens).
//! * `figures` — regenerates Figure 1 (input), Figure 2 (transformed
//!   source), and Figure 3 (the Validate interface, as implemented).
//!
//! Every table bin runs its systems through
//! `apps::workload::run_variants`, so each printed row was
//! cross-checked against the sequential reference first, and asserts
//! the paper's claims at the scale where they hold.
//!
//! Host time is measured by `benchmark/` (the repo benchmark, `make
//! bench`), end to end and layer by layer; exact simulated counts are
//! pinned by the tier-1 golden tests (`apps/tests/golden_counts.rs`,
//! `synth/tests/scenarios.rs`).

pub mod cli;

use apps::moldyn::MoldynConfig;
use apps::nbf::NbfConfig;
use apps::report::RunReport;
use apps::workload::{Variant, WorkloadMatrix};

/// Scale factors for quick runs (`--quick` on the binaries): smaller n,
/// fewer steps — same structure, minutes → seconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The paper's exact sizes.
    Paper,
    /// ~1/8 the molecules, same step counts.
    Quick,
}

impl Scale {
    /// The Table-1 moldyn configuration at this scale.
    pub fn moldyn(self, update_interval: usize) -> MoldynConfig {
        let mut cfg = MoldynConfig::paper(update_interval);
        if self == Scale::Quick {
            cfg.n = 2048;
            cfg.cutoff_frac = 0.2;
        }
        cfg
    }

    /// The Table-2 nbf configuration of paper size `n` at this scale.
    pub fn nbf(self, n: usize) -> NbfConfig {
        let mut cfg = NbfConfig::paper(n);
        if self == Scale::Quick {
            cfg.n /= 8;
            cfg.partners = 50;
        }
        cfg
    }
}

/// The probe-budget message slack a churn cell is granted over the
/// steady-state `adaptive ≤ base` bar: every processor can hold a stale
/// plan on at most every shared value page, and each stale plan wastes
/// at most `min(8, iters)` exchanges of ≤ 2 messages before
/// the probe cadence demotes it (`adapt::probe_budget`). `table_synth`
/// relaxes its per-cell bars by exactly this on churn cells.
pub fn churn_budget(cfg: &synth::SynthConfig) -> u64 {
    let pages = ((cfg.n * 8).div_ceil(cfg.page_size) * cfg.nprocs) as u64;
    adapt::probe_budget(pages, cfg.iters as u64)
}

/// The systems of the paper's §5 one-processor runs, after `seq`.
pub const ONE_PROC: [Variant; 2] = [Variant::TmkOpt, Variant::Chaos];

/// The `(seq, Tmk, CHAOS)` reports of a one-processor [`ONE_PROC`]
/// matrix, checked against the paper's §5 claims: CHAOS pays its
/// inspector (its time plus the untimed inspector exceeds Tmk's) at
/// every scale, and Tmk runs within 1 % of the sequential program at
/// paper scale (at 1/8 scale the fixed overheads weigh more).
pub fn one_proc_bars(m: &WorkloadMatrix, scale: Scale) -> [&RunReport; 3] {
    let [seq, opt, chaos] =
        [Variant::Seq, Variant::TmkOpt, Variant::Chaos].map(|v| &m.get(v).report);
    let secs = |r: &RunReport| r.time.as_secs_f64();
    let (seq_s, opt_s) = (secs(seq), secs(opt));
    let chaos_s = secs(chaos) + chaos.untimed_inspector_s;
    let label = &m.label;
    assert!(
        chaos_s > opt_s,
        "{label}: one-processor CHAOS + inspector ({chaos_s:.1} s) must exceed Tmk ({opt_s:.1} s)"
    );
    assert!(
        scale == Scale::Quick || (opt_s - seq_s).abs() <= 0.01 * seq_s,
        "{label}: one-processor Tmk ({opt_s:.1} s) must be within 1% of seq ({seq_s:.1} s)"
    );
    [seq, opt, chaos]
}

/// Run each row group on its own OS thread and return the results in
/// order. A run's simulated processors are coroutines on the thread
/// that calls it, so independent row groups run side by side.
pub fn run_groups<T: Send>(groups: impl IntoIterator<Item = impl FnOnce() -> T + Send>) -> Vec<T> {
    std::thread::scope(|s| {
        let handles: Vec<_> = groups.into_iter().map(|g| s.spawn(g)).collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    })
}
