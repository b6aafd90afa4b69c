//! The stall-attribution report.
//!
//! `simnet` bills every clock mutation to exactly one [`StallCat`]
//! bucket, so attribution is an accounting identity, not a sampler:
//! for every processor, the bucket sum equals the final simulated
//! clock to the nanosecond. [`check_conservation`] verifies that
//! identity on a captured [`NetReport`].

use simnet::NetReport;

/// Verify the conservation law on every row of `rep.stalls`: the
/// per-category nanoseconds must sum *exactly* to the processor's
/// captured clock. Returns the first violation as an error message.
///
/// An empty `stalls` vector is an error too — callers asking for
/// attribution on a report that never captured any (for example one
/// assembled from bare `Stats`) should hear about it rather than
/// vacuously pass.
pub fn check_conservation(rep: &NetReport) -> Result<(), String> {
    if rep.stalls.is_empty() {
        return Err("report carries no stall rows".to_string());
    }
    for (p, row) in rep.stalls.iter().enumerate() {
        let total = row.total();
        if total != row.clock {
            return Err(format!(
                "proc {p}: categories sum to {total} ns but clock is {} ns (off by {})",
                row.clock,
                row.clock.abs_diff(total)
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::{StallCat, StallRow};

    fn report(rows: Vec<StallRow>) -> NetReport {
        NetReport {
            messages: 0,
            bytes: 0,
            per_kind: Vec::new(),
            stalls: rows,
        }
    }

    fn row(compute: u64, barrier: u64) -> StallRow {
        let mut r = StallRow::default();
        r.cats[StallCat::Compute as usize] = compute;
        r.cats[StallCat::BarrierWait as usize] = barrier;
        r.clock = compute + barrier;
        r
    }

    #[test]
    fn conservation_holds_and_violations_are_reported() {
        let good = report(vec![row(70, 30), row(100, 0)]);
        assert_eq!(check_conservation(&good), Ok(()));

        let mut bad = good.clone();
        bad.stalls[1].clock += 5;
        let err = check_conservation(&bad).unwrap_err();
        assert!(err.contains("proc 1"), "{err}");
        assert!(err.contains("off by 5"), "{err}");

        assert!(check_conservation(&report(Vec::new())).is_err());
    }
}
