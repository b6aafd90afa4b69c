//! The metric catalogue: every name the benchmark emits, with its
//! unit, the clock it reads, which direction is better and — for the
//! end-to-end metrics — the bound by which it may worsen. Must agree
//! with `../BENCHMARK.json` (`tests/smoke.rs` checks it does).

/// Which clock a metric reads. The simulated clock is exact and must
/// repeat bit for bit at one seed; the host clock is noisy,
/// machine-dependent and gated by a bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    Host,
    Simulated,
    /// A count or ratio of exact counts: read from neither clock.
    None,
}

impl Clock {
    pub fn tag(self) -> &'static str {
        match self {
            Clock::Host => "host",
            Clock::Simulated => "simulated",
            Clock::None => "-",
        }
    }
}

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub clock: Clock,
    /// `true` when a higher value is better.
    pub higher_is_better: bool,
    /// End-to-end: the share of the parent's value by which the metric
    /// may worsen on a different commit. The simulated metrics must not
    /// move *at all* at one seed on one commit (`repeat.sh` checks
    /// that); their bound here covers an intended protocol change.
    /// Per-layer metrics have no bound (0).
    pub bound: f64,
    /// Per-layer probes: the workload whose regime the probe explains
    /// (`""` when the number comes from the workload's own jobs).
    pub explains: &'static str,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    clock: Clock,
    higher_is_better: bool,
    bound: f64,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        clock,
        higher_is_better,
        bound,
        explains: "",
    }
}

const fn layer(name: &'static str, unit: &'static str, clock: Clock) -> MetricDef {
    MetricDef {
        name,
        unit,
        clock,
        higher_is_better: false,
        bound: 0.0,
        explains: "",
    }
}

const fn probe(name: &'static str, unit: &'static str, explains: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        clock: Clock::Host,
        higher_is_better: false,
        bound: 0.0,
        explains,
    }
}

const fn higher(mut m: MetricDef) -> MetricDef {
    m.higher_is_better = true;
    m
}

use Clock::{Host, None as Neither, Simulated};

/// What a user of the system sees. `failed_share` is reported beside
/// these (failed over attempted jobs, bound 0) but is not listed in
/// `BENCHMARK.json`, whose metrics may never read 0.
///
/// The four host-time bounds are the widest the contract allows: on
/// the 2-core build host the same code at one seed drifts by 20–30 %
/// between a rested and a loaded machine (README, "Noise").
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Host, false, 0.25),
    e2e("jobs_per_s", "1/s", Host, true, 0.25),
    e2e("job_ms_p50", "ms", Host, false, 0.25),
    e2e("job_ms_p90", "ms", Host, false, 0.25),
    e2e("peak_rss_mb", "MB", Host, false, 0.15),
    e2e("sim_time_ms", "ms", Simulated, false, 0.05),
    e2e("sim_msgs", "count", Simulated, false, 0.05),
    e2e("sim_mbytes", "MB", Simulated, false, 0.05),
];

/// Single layers; the prefix of each name is the crate.
pub const PER_LAYER: &[MetricDef] = &[
    higher(layer("serve.busy_share", "ratio", Host)),
    layer("serve.contention_ratio", "ratio", Host),
    layer("serve.steals_per_job", "count", Neither),
    probe("serve.budget_acquire_ns", "ns", "steady4"),
    probe("serve.pool_pop_ns", "ns", "steady4"),
    probe("serve.hist_record_ns", "ns", "steady4"),
    layer("apps.matrix_ms", "ms", Host),
    layer("apps.seq_run_ms", "ms", Host),
    layer("synth.prepare_ms", "ms", Host),
    layer("synth.gen_world_ms", "ms", Host),
    layer("dsm.base_run_ms", "ms", Host),
    layer("dsm.base_sim_ms", "ms", Simulated),
    layer("dsm.base_msgs", "count", Simulated),
    layer("dsm.cold_over_warm", "ratio", Host),
    probe("dsm.cluster_new_us.p4", "us", "steady4"),
    probe("dsm.cluster_new_us.p64", "us", "scale64"),
    probe("dsm.run_empty_us.p4", "us", "steady4"),
    probe("dsm.run_empty_us.p64", "us", "scale64"),
    probe("dsm.barrier_us.p4", "us", "steady4"),
    probe("dsm.barrier_us.p64", "us", "scale64"),
    probe("dsm.fault_page_us", "us", "steady4"),
    probe("dsm.diff_create_ns.dense", "ns", "steady4"),
    probe("dsm.diff_create_ns.sparse", "ns", "steady4"),
    probe("dsm.diff_apply_ns", "ns", "steady4"),
    layer("core.opt_run_ms", "ms", Host),
    layer("core.opt_sim_ms", "ms", Simulated),
    layer("core.opt_msgs", "count", Simulated),
    layer("core.opt_over_base_host", "ratio", Host),
    layer("core.validate_scan_sim_ms", "ms", Simulated),
    probe("fcc.compile_us.moldyn", "us", "apps_quick"),
    probe("fcc.compile_us.nbf", "us", "apps_quick"),
    probe("rsd.pageset_build_us", "us", "steady4"),
    probe("rsd.pages_of_section_ns", "ns", "steady4"),
    layer("chaos.run_ms", "ms", Host),
    layer("chaos.sim_ms", "ms", Simulated),
    layer("chaos.msgs", "count", Simulated),
    probe("chaos.inspector_ms", "ms", "churn4"),
    layer("chaos.inspector_sim_ms", "ms", Simulated),
    layer("adapt.adaptive_run_ms", "ms", Host),
    layer("adapt.adaptive_sim_ms", "ms", Simulated),
    layer("adapt.adaptive_msgs", "count", Simulated),
    layer("adapt.push_run_ms", "ms", Host),
    layer("adapt.push_sim_ms", "ms", Simulated),
    layer("adapt.push_msgs", "count", Simulated),
    higher(layer("adapt.msgs_saved_share", "ratio", Neither)),
    layer("adapt.prefetch_rounds", "count", Neither),
    layer("adapt.push_rounds", "count", Neither),
    layer("adapt.promotions", "count", Neither),
    layer("adapt.demotions", "count", Neither),
    layer("adapt.probes", "count", Neither),
    layer("adapt.quiesced_plans", "count", Neither),
    layer("simnet.host_us_per_msg", "us", Host),
    layer("simnet.stall_share.compute", "ratio", Simulated),
    layer("simnet.stall_share.fault", "ratio", Simulated),
    layer("simnet.stall_share.barrier", "ratio", Simulated),
    layer("simnet.stall_share.prefetch_push", "ratio", Simulated),
    layer("simnet.stall_share.handler", "ratio", Simulated),
    layer("simnet.stall_share.inspector", "ratio", Simulated),
    layer("simnet.stall_share.exchange", "ratio", Simulated),
    layer("trace.overhead_share", "ratio", Host),
    layer("trace.events_per_job", "count", Neither),
    layer("trace.dropped", "count", Neither),
    layer("trace.capture_ms", "ms", Host),
    layer("trace.chrome_json_ms", "ms", Host),
    probe("rayon.par_spawn_us", "us", "steady4"),
    layer("bench.tracing_overhead_share", "ratio", Host),
];

/// Look a metric up by name in either catalogue.
pub fn find(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

/// One measured value, as a child process reports it.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    pub name: String,
    pub value: f64,
    /// Samples behind the value (jobs for a percentile, repeats for a
    /// median, cells for an exact sum).
    pub n: u64,
}

impl Record {
    pub fn new(name: &str, value: f64, n: u64) -> Self {
        assert!(
            find(name).is_some(),
            "metric {name} is not in the catalogue"
        );
        Record {
            name: name.to_string(),
            value,
            n,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_well_formed_and_within_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(m.name), "{} listed twice", m.name);
            assert!(m.name.len() <= 64);
            assert!(m.name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(m
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(!m.unit.is_empty() && m.unit.len() <= 16);
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        let setup = find("setup_s").unwrap();
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
    }
}
