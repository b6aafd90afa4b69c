//! Run reports: the numbers that become the rows of Tables 1 and 2.

use simnet::{NetReport, PolicyReport, SimTime};

/// The six system variants of the comparison — the one spelling of the
/// system axis: it selects the kernel in [`crate::Workload::run`], names
/// the Tmk build inside each `run_tmk`, and labels the [`RunReport`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    Seq,
    /// Unmodified TreadMarks: demand paging only.
    TmkBase,
    /// Compiler-inserted `Validate`: aggregation + prefetch + `*_ALL`.
    TmkOpt,
    /// Runtime-adaptive aggregation (`adapt` crate): the same program
    /// as `TmkBase`, but each processor carries an
    /// [`adapt::AdaptivePolicy`] that learns the access pattern and
    /// batches predictable fetches — no compiler, no inspector.
    TmkAdaptive,
    /// The adaptive engine in update-push mode: same predictor as
    /// `TmkAdaptive`, one one-way writer push per predicted exchange
    /// instead of a request/reply pair.
    TmkPush,
    Chaos,
}

impl Variant {
    pub const ALL: [Variant; 6] = [
        Variant::Seq,
        Variant::TmkBase,
        Variant::TmkOpt,
        Variant::TmkAdaptive,
        Variant::TmkPush,
        Variant::Chaos,
    ];

    /// The five parallel variants, in table order.
    pub const PARALLEL: [Variant; 5] = [
        Variant::TmkBase,
        Variant::TmkOpt,
        Variant::TmkAdaptive,
        Variant::TmkPush,
        Variant::Chaos,
    ];

    /// The Tmk protocol family — always bitwise-identical to each
    /// other, whatever the workload's contract vs sequential.
    pub const TMK: [Variant; 4] = [
        Variant::TmkBase,
        Variant::TmkOpt,
        Variant::TmkAdaptive,
        Variant::TmkPush,
    ];

    /// The three systems of the paper's Tables 1–2, in its row order.
    pub const PAPER: [Variant; 3] = [Variant::Chaos, Variant::TmkBase, Variant::TmkOpt];

    pub fn label(self) -> &'static str {
        match self {
            Variant::Seq => "seq",
            Variant::Chaos => "CHAOS",
            Variant::TmkBase => "Tmk base",
            Variant::TmkOpt => "Tmk optimized",
            Variant::TmkAdaptive => "Tmk adaptive",
            Variant::TmkPush => "Tmk push",
        }
    }

    /// The guard at the top of every Tmk kernel: panics, naming the
    /// `kernel` that was asked, unless `self` is one of [`Variant::TMK`].
    #[track_caller]
    pub fn expect_tmk(self, kernel: &str) {
        assert!(
            Variant::TMK.contains(&self),
            "{kernel}: {self:?} is not a Tmk build"
        );
    }

    /// Does this variant install the runtime-adaptive engine?
    pub fn is_adaptive(self) -> bool {
        matches!(self, Variant::TmkAdaptive | Variant::TmkPush)
    }
}

/// One table row (plus the in-text extras the paper quotes).
#[derive(Debug, Clone)]
pub struct RunReport {
    pub system: Variant,
    /// Simulated execution time of the timed region.
    pub time: SimTime,
    /// Matching sequential time (for the speedup column).
    pub seq_time: SimTime,
    pub messages: u64,
    pub bytes: u64,
    /// Total per-processor-average seconds spent in the CHAOS inspector
    /// *within the timed region* (the paper's tables exclude the initial
    /// inspector; this field captures re-runs after list rebuilds).
    pub inspector_s: f64,
    /// Per-processor-average seconds the inspector cost *outside* the
    /// timed region (the paper quotes these in the text).
    pub untimed_inspector_s: f64,
    /// Per-processor-average seconds Validate spent scanning the
    /// indirection array (both regions).
    pub validate_scan_s: f64,
    /// Physics checksum (Σ|x| at the end), for cross-variant comparison.
    pub checksum: f64,
    /// Policy-decision counters of the timed region — present exactly
    /// when `system.is_adaptive()`.
    pub policy: Option<PolicyReport>,
    /// Full per-kind message/byte breakdown of the timed region, when
    /// the runner captured one (parallel variants via [`crate::harness::Capture`];
    /// `None` for sequential runs, which exchange nothing). The serve
    /// driver folds these with [`NetReport::merge`] so concurrent cells
    /// accumulate per-variant totals without a global lock.
    pub net: Option<NetReport>,
}

impl RunReport {
    /// The sequential reference's row: it exchanges nothing, so only
    /// the modeled time and the checksum are ever non-zero.
    pub fn sequential(time: SimTime, checksum: f64) -> RunReport {
        RunReport {
            system: Variant::Seq,
            time,
            seq_time: time,
            messages: 0,
            bytes: 0,
            inspector_s: 0.0,
            untimed_inspector_s: 0.0,
            validate_scan_s: 0.0,
            checksum,
            policy: None,
            net: None,
        }
    }

    pub fn speedup(&self) -> f64 {
        self.seq_time.as_secs_f64() / self.time.as_secs_f64().max(1e-12)
    }

    pub fn megabytes(&self) -> f64 {
        self.bytes as f64 / 1e6
    }

    /// Paper-style table row: `label  time  speedup  messages  MB`.
    pub fn row(&self) -> String {
        format!(
            "{:<14} {:>9.1} {:>8.1} {:>10} {:>9.0}",
            self.system.label(),
            self.time.as_secs_f64(),
            self.speedup(),
            self.messages,
            self.megabytes()
        )
    }
}

/// Print a paper-style table header.
pub fn table_header() -> String {
    format!(
        "{:<14} {:>9} {:>8} {:>10} {:>9}",
        "System", "Time(s)", "Speedup", "Messages", "Data(MB)"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variant_axis_labels_families_and_order() {
        let labels: Vec<_> = Variant::ALL.iter().map(|v| v.label()).collect();
        assert_eq!(
            labels,
            ["seq", "Tmk base", "Tmk optimized", "Tmk adaptive", "Tmk push", "CHAOS"]
        );
        for v in Variant::ALL {
            assert_eq!(
                v.is_adaptive(),
                matches!(v, Variant::TmkAdaptive | Variant::TmkPush),
                "{v:?}"
            );
        }
        // TMK ⊂ PARALLEL ⊂ ALL, each a contiguous run of the next in
        // table order.
        assert_eq!(Variant::PARALLEL[..], Variant::ALL[1..]);
        assert_eq!(Variant::TMK[..], Variant::PARALLEL[..4]);
        assert!(Variant::PAPER.iter().all(|v| Variant::PARALLEL.contains(v)));
    }

    #[test]
    fn speedup_and_row_format() {
        let r = RunReport {
            system: Variant::Chaos,
            time: SimTime::from_us(10e6),
            seq_time: SimTime::from_us(60e6),
            messages: 1234,
            bytes: 5_000_000,
            inspector_s: 0.0,
            untimed_inspector_s: 1.0,
            validate_scan_s: 0.0,
            checksum: 1.0,
            policy: None,
            net: None,
        };
        assert!((r.speedup() - 6.0).abs() < 1e-9);
        assert!((r.megabytes() - 5.0).abs() < 1e-12);
        let row = r.row();
        assert!(row.contains("CHAOS"));
        assert!(row.contains("1234"));
    }
}
