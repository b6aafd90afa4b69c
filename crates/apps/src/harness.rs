//! Shared run-report capture: the bookkeeping every parallel runner
//! (Tmk and CHAOS alike) used to copy-paste — the rank-0 timed-region
//! snapshot, the per-processor second counters, the adaptive builds'
//! policy counters, and the final [`RunReport`] assembly — plus
//! [`install_policy`], the one place a [`Variant`] becomes an
//! [`adapt::AdaptivePolicy`]. Every SPMD body *returns* its processor's
//! [`Capture`], so the ranks share nothing and nothing here locks. Pure
//! bookkeeping: nothing here touches the protocol, so extracting it
//! cannot change a message count.

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

/// One processor's numbers for the table row, returned from its SPMD
/// body. Build it at the end of the timed region — before the untimed
/// final barrier and any result extraction — because rank 0's carries
/// the frozen timed-region snapshot (elapsed simulated time, net report).
pub struct Capture {
    frozen: Option<(SimTime, NetReport)>,
    validate_scan_s: f64,
    inspector_s: f64,
    untimed_inspector_s: f64,
}

impl Capture {
    /// Processor `me` of a DSM run, with its Validate indirection-scan
    /// seconds; rank 0 snapshots the cluster's timed region. Call after
    /// the final barrier of the timed region.
    pub fn tmk(me: usize, cl: &sdsm_core::Cluster, validate_scan_s: f64) -> Self {
        Capture {
            frozen: (me == 0).then(|| {
                let rep = cl.report();
                (cl.elapsed(), rep)
            }),
            validate_scan_s,
            inspector_s: 0.0,
            untimed_inspector_s: 0.0,
        }
    }

    /// A CHAOS processor, with its untimed (setup) and in-timed-region
    /// inspector seconds; rank 0 snapshots the world's timed region.
    pub fn chaos(cp: &chaos::ChaosProc, untimed_inspector_s: f64, inspector_s: f64) -> Self {
        Capture {
            frozen: (cp.rank() == 0).then(|| {
                let rep = cp.net().report();
                (cp.net().clock_max(), rep)
            }),
            validate_scan_s: 0.0,
            inspector_s,
            untimed_inspector_s,
        }
    }

    /// After the timed `cl.run`: snapshot the adaptive builds'
    /// policy-decision counters (`None` for every other variant), then
    /// read the whole of `x` back through the DSM as rank 0 — the
    /// untimed result extraction ([`sdsm_core::Cluster::read_back`]). In
    /// that order because the timed run's teardown has just recorded the
    /// plans that quiesced untriggered, and the extraction's own faults
    /// must not reach the counters.
    pub fn extract(
        system: Variant,
        cl: &sdsm_core::Cluster,
        x: &sdsm_core::SharedSlice<f64>,
    ) -> (Option<PolicyReport>, Vec<f64>) {
        let policy = system.is_adaptive().then(|| cl.net().policy_report());
        (policy, cl.read_back(x))
    }

    /// Assemble the table row from what `cl.run` / `w.run` returned (one
    /// capture per processor, in rank order). Panics if rank 0's carries
    /// no timed-region snapshot.
    pub fn report(
        system: Variant,
        mut ranks: Vec<Capture>,
        policy: Option<PolicyReport>,
        seq_time: SimTime,
        checksum: f64,
    ) -> RunReport {
        let (time, net) = ranks[0].frozen.take().expect("timed region captured");
        let avg =
            |secs: fn(&Capture) -> f64| ranks.iter().map(secs).sum::<f64>() / ranks.len() as f64;
        RunReport {
            system,
            time,
            seq_time,
            messages: net.messages,
            bytes: net.bytes,
            inspector_s: avg(|r| r.inspector_s),
            untimed_inspector_s: avg(|r| r.untimed_inspector_s),
            validate_scan_s: avg(|r| r.validate_scan_s),
            checksum,
            policy,
            net: Some(net),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rank(validate_scan_s: f64, inspector_s: f64, untimed_inspector_s: f64) -> Capture {
        Capture {
            frozen: None,
            validate_scan_s,
            inspector_s,
            untimed_inspector_s,
        }
    }

    #[test]
    fn report_averages_per_proc_seconds() {
        let mut ranks = vec![
            rank(2.0, 0.0, 0.0),
            rank(2.0, 0.0, 0.0),
            rank(0.0, 4.0, 0.0),
            rank(0.0, 0.0, 8.0),
        ];
        let net = NetReport {
            messages: 100,
            bytes: 2000,
            per_kind: Vec::new(),
            label: None,
            stalls: Vec::new(),
        };
        ranks[0].frozen = Some((SimTime::from_us(5e6), net));
        let r = Capture::report(Variant::TmkOpt, ranks, None, SimTime::from_us(10e6), 1.0);
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
        let ranks = vec![rank(0.0, 0.0, 0.0)];
        let _ = Capture::report(Variant::TmkBase, ranks, None, SimTime::ZERO, 0.0);
    }
}
