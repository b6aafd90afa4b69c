//! # bench — experiment harnesses for every table and figure
//!
//! Binaries (run with `--release`; every flag goes through [`cli`], so
//! an unknown one prints the usage and exits 2):
//!
//! * `table1` — moldyn, 16 384 molecules, list rebuilt every {20, 15, 11}
//!   steps (paper Table 1).
//! * `table2` — nbf at {64×1024, 64×1000, 32×1024} (paper Table 2).
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
//! * `overhead1p` — the §5 single-processor sanity numbers.
//! * `ablation` — sweeps beyond the paper: opt levels, page size,
//!   update frequency, translation-table organization, scaling.
//!
//! Every table bin runs its systems through
//! `apps::workload::run_variants`, so each printed row was
//! cross-checked against the sequential reference first.
//!
//! A bin exists only if it prints a table no test asserts. Host time
//! is measured by `benchmark/` (the repo benchmark, `make bench`), end
//! to end and layer by layer; exact simulated counts are pinned by the
//! tier-1 golden tests (`apps/tests/golden_counts.rs`,
//! `synth/tests/scenarios.rs`).

pub mod cli;

use apps::moldyn::MoldynConfig;
use apps::nbf::NbfConfig;

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
/// at most `min(probe_every, iters)` exchanges of ≤ 2 messages before
/// the probe cadence demotes it (`adapt::probe_budget`). `table_synth`
/// relaxes its per-cell bars by exactly this on churn cells.
pub fn churn_budget(cfg: &synth::SynthConfig) -> u64 {
    let pages = ((cfg.n * 8).div_ceil(cfg.page_size) * cfg.nprocs) as u64;
    adapt::probe_budget(cfg.adapt.probe_every, pages, cfg.iters as u64)
}
