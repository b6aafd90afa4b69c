//! Shared run-report capture: the bookkeeping every parallel runner
//! (Tmk and CHAOS alike) used to copy-paste — the rank-0 timed-region
//! snapshot, the per-processor second counters, the adaptive builds'
//! policy counters, and the final [`RunReport`] assembly — plus
//! [`install_policy`], the one place a [`Variant`] becomes an
//! [`adapt::AdaptivePolicy`]. Pure bookkeeping: nothing here touches
//! the protocol, so extracting it cannot change a message count.

use parking_lot::Mutex;
use simnet::{NetReport, PolicyReport, SimTime};

use crate::report::{RunReport, Variant};

/// Install the runtime-adaptive engine on processor `p` when `v` is one
/// of the adaptive builds (`knobs.push` is overridden to select
/// update-push for [`Variant::TmkPush`]); a no-op for every other
/// variant. Every Tmk kernel calls this first thing in its SPMD body.
pub fn install_policy(p: &mut sdsm_core::TmkProc, v: Variant, knobs: &adapt::AdaptConfig) {
    if v.is_adaptive() {
        let knobs = adapt::AdaptConfig {
            push: v == Variant::TmkPush,
            ..knobs.clone()
        };
        p.set_policy(Box::new(adapt::AdaptivePolicy::new(knobs)));
    }
}

/// Capture state for one parallel run of `system`. Create it before
/// `cl.run` / `w.run`, have rank 0 call a `freeze_*` method at the end
/// of the timed region (before any untimed result extraction), and turn
/// it into the table row with [`Capture::report`].
pub struct Capture {
    system: Variant,
    timed: Mutex<Option<(SimTime, u64, u64)>>,
    net: Mutex<Option<NetReport>>,
    policy: Option<PolicyReport>,
    scan: Mutex<Vec<f64>>,
    insp_timed: Mutex<Vec<f64>>,
    insp_untimed: Mutex<Vec<f64>>,
    nprocs: usize,
}

impl Capture {
    pub fn new(nprocs: usize, system: Variant) -> Self {
        Capture {
            system,
            timed: Mutex::new(None),
            net: Mutex::new(None),
            policy: None,
            scan: Mutex::new(vec![0.0; nprocs]),
            insp_timed: Mutex::new(vec![0.0; nprocs]),
            insp_untimed: Mutex::new(vec![0.0; nprocs]),
            nprocs,
        }
    }

    /// Rank 0 snapshots the DSM cluster's timed region (elapsed simulated
    /// time, messages, bytes). Call from inside the SPMD body, after the
    /// final barrier of the timed region.
    pub fn freeze_tmk(&self, me: usize, cl: &sdsm_core::Cluster) {
        if me == 0 {
            let rep = cl.report();
            *self.timed.lock() = Some((cl.elapsed(), rep.messages, rep.bytes));
            *self.net.lock() = Some(rep);
        }
    }

    /// After the timed `cl.run`: snapshot the adaptive builds'
    /// policy-decision counters (a no-op for every other variant), then
    /// have rank 0 read the whole of `x` back through the DSM — the
    /// untimed result extraction, in index order. In that order because
    /// the timed run's teardown has just recorded the plans that
    /// quiesced untriggered, and the extraction's own faults must not
    /// reach the counters.
    pub fn extract(
        &mut self,
        cl: &sdsm_core::Cluster,
        x: &sdsm_core::SharedSlice<f64>,
    ) -> Vec<f64> {
        if self.system.is_adaptive() {
            self.policy = Some(cl.net().policy_report());
        }
        let out = Mutex::new(vec![0.0; x.len()]);
        cl.run(|p| {
            if p.rank() == 0 {
                for (i, slot) in out.lock().iter_mut().enumerate() {
                    *slot = p.read(x, i);
                }
            }
        });
        out.into_inner()
    }

    /// Rank 0 snapshots a CHAOS world's timed region.
    pub fn freeze_chaos(&self, cp: &chaos::ChaosProc) {
        if cp.rank() == 0 {
            let rep = cp.net().report();
            *self.timed.lock() = Some((cp.net().clock_max(), rep.messages, rep.bytes));
            *self.net.lock() = Some(rep);
        }
    }

    /// Record processor `me`'s Validate indirection-scan seconds.
    pub fn set_scan(&self, me: usize, secs: f64) {
        self.scan.lock()[me] = secs;
    }

    /// Record processor `me`'s in-timed-region inspector seconds.
    pub fn set_inspector(&self, me: usize, secs: f64) {
        self.insp_timed.lock()[me] = secs;
    }

    /// Record processor `me`'s untimed (setup) inspector seconds.
    pub fn set_untimed_inspector(&self, me: usize, secs: f64) {
        self.insp_untimed.lock()[me] = secs;
    }

    /// Assemble the table row. Panics if no `freeze_*` call happened.
    pub fn report(self, seq_time: SimTime, checksum: f64) -> RunReport {
        let (time, messages, bytes) = self.timed.into_inner().expect("timed region captured");
        let avg = |v: Vec<f64>| v.iter().sum::<f64>() / self.nprocs as f64;
        RunReport {
            system: self.system,
            time,
            seq_time,
            messages,
            bytes,
            inspector_s: avg(self.insp_timed.into_inner()),
            untimed_inspector_s: avg(self.insp_untimed.into_inner()),
            validate_scan_s: avg(self.scan.into_inner()),
            checksum,
            policy: self.policy,
            net: self.net.into_inner(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_averages_per_proc_seconds() {
        let c = Capture::new(4, Variant::TmkOpt);
        *c.timed.lock() = Some((SimTime::from_us(5e6), 100, 2000));
        c.set_scan(0, 2.0);
        c.set_scan(1, 2.0);
        c.set_inspector(2, 4.0);
        c.set_untimed_inspector(3, 8.0);
        let r = c.report(SimTime::from_us(10e6), 1.0);
        assert_eq!(r.messages, 100);
        assert_eq!(r.bytes, 2000);
        assert!((r.validate_scan_s - 1.0).abs() < 1e-12);
        assert!((r.inspector_s - 1.0).abs() < 1e-12);
        assert!((r.untimed_inspector_s - 2.0).abs() < 1e-12);
        assert!((r.speedup() - 2.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "timed region captured")]
    fn report_without_freeze_panics() {
        let c = Capture::new(1, Variant::TmkBase);
        let _ = c.report(SimTime::ZERO, 0.0);
    }
}
