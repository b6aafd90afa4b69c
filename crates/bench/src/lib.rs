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
//!   bitwise cross-checked, plus the barrier-metadata scaling probe.
//! * `table_churn` — the grid's six churn cells under the probe-budget
//!   bound, plus the lossy-link section.
//! * `table_serve` — the scenario matrix as a throughput service
//!   (cells/sec, latency percentiles, warm == cold goldens).
//! * `table_trace` — byte-identical traces and stall conservation on one
//!   fixed-seed cell.
//! * `figures` — regenerates Figure 1 (input), Figure 2 (transformed
//!   source), and Figure 3 (the Validate interface, as implemented).
//! * `overhead1p` — the §5 single-processor sanity numbers.
//! * `ablation` — sweeps beyond the paper: opt levels, page size,
//!   update frequency, translation-table organization, scaling.
//! * `bench_json` / `bench_diff` — write the committed benchmark
//!   snapshot and gate it against the previous one ([`SNAPSHOTS`]).
//!
//! Every table bin runs its systems through
//! `apps::workload::run_variants`, so each printed row was
//! cross-checked against the sequential reference first.
//!
//! Criterion benches (`cargo bench`): protocol microbenchmarks (diffs,
//! sections, inspector, barriers) and small-scale end-to-end runs.

pub mod cli;

use apps::moldyn::MoldynConfig;
use apps::nbf::NbfConfig;

/// The committed benchmark snapshot pair, `(previous, current)`:
/// `bench_json` writes the current one, `bench_diff` gates it against
/// the previous one.
pub const SNAPSHOTS: (&str, &str) = ("BENCH_9.json", "BENCH_10.json");

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
/// relaxes its per-cell bars by exactly this on churn cells, and
/// `table_churn` asserts the bound cell by cell.
pub fn churn_budget(cfg: &synth::SynthConfig) -> u64 {
    let pages = ((cfg.n * 8).div_ceil(cfg.page_size) * cfg.nprocs) as u64;
    adapt::probe_budget(cfg.adapt.probe_every, pages, cfg.iters as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_pair_is_committed_and_consecutive() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let number = |name: &str| -> u32 {
            assert!(root.join(name).is_file(), "{name} is not committed at the repo root");
            name.strip_prefix("BENCH_")
                .and_then(|n| n.strip_suffix(".json"))
                .and_then(|n| n.parse().ok())
                .unwrap_or_else(|| panic!("{name} is not BENCH_<N>.json"))
        };
        assert_eq!(number(SNAPSHOTS.0) + 1, number(SNAPSHOTS.1));
    }
}
