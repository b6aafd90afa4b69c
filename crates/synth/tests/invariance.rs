//! Metamorphic oracles: what a count may not depend on. The paper's
//! Tables 1–2 are *counted* messages and data, and every program here
//! synchronizes only at barriers, so a count that moves when only the
//! cost model, the cluster pool or the tracer changes is a bug. Each
//! cell and parallel variant runs under `CostModel::default()` and two
//! perturbed models (every timing field the protocol charges, except
//! `loss_per_mille`, which changes counts by design; the second run is
//! also traced), and on a recycled cluster; messages, bytes, per-kind
//! counts, result bits and the adaptive `PolicyReport` must be identical
//! to the fresh, untraced default run.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use apps::workload::{Variant, Workload};
use simnet::{with_trace_sink, CostModel, ProcId, SimTime, TraceEvent, TraceSink};
use synth::{Dynamics, Prepared, Structure, SynthConfig};

/// Everything about a run that the cost model, the pool and the tracer
/// must leave alone.
#[derive(Debug, PartialEq)]
struct Counts {
    messages: u64,
    bytes: u64,
    per_kind: String,
    result_bits: Vec<u64>,
    policy: String,
}

impl Counts {
    fn of(prep: &Prepared, v: Variant) -> Counts {
        let (rep, result) = prep.run(v, SimTime::ZERO);
        Counts {
            messages: rep.messages,
            bytes: rep.bytes,
            per_kind: format!("{:?}", rep.net.map(|n| n.per_kind)),
            result_bits: result.iter().map(|x| x.to_bits()).collect(),
            policy: format!("{:?}", rep.policy),
        }
    }

    /// The first count in which `other` differs from `self`.
    fn first_difference(&self, other: &Counts) -> Option<String> {
        let field = |name: &str, a: &dyn std::fmt::Debug, b: &dyn std::fmt::Debug| {
            let (a, b) = (format!("{a:?}"), format!("{b:?}"));
            (a != b).then(|| format!("{name}: {a} vs {b}"))
        };
        if let Some(i) = (0..self.result_bits.len().max(other.result_bits.len()))
            .find(|&i| self.result_bits.get(i) != other.result_bits.get(i))
        {
            let bits = |c: &Counts| c.result_bits.get(i).map(|&b| f64::from_bits(b));
            return Some(format!(
                "result[{i}]: {:?} vs {:?}",
                bits(self),
                bits(other)
            ));
        }
        field("messages", &self.messages, &other.messages)
            .or_else(|| field("bytes", &self.bytes, &other.bytes))
            .or_else(|| field("per-kind counts", &self.per_kind, &other.per_kind))
            .or_else(|| field("PolicyReport", &self.policy, &other.policy))
    }
}

/// A sink that only counts, proving the traced run really traced.
#[derive(Debug, Default)]
struct CountingSink(AtomicU64);

impl TraceSink for CountingSink {
    fn record(&self, _p: ProcId, _t: SimTime, _ev: TraceEvent) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }
}

/// `base` with every timing field the protocol charges scaled: network
/// latency, per-byte, handler, page fault, barrier, `Validate` index
/// scan, CHAOS translation and diff creation.
fn perturbed(base: &CostModel, k: f64) -> CostModel {
    CostModel {
        msg_latency_us: base.msg_latency_us * 7.0 * k,
        per_byte_us: base.per_byte_us * 3.0 * k,
        handler_us: base.handler_us * 0.5 * k,
        page_fault_us: base.page_fault_us * 2.0 * k,
        barrier_us: base.barrier_us * 5.0 * k,
        index_scan_us: base.index_scan_us * 0.25 * k,
        translate_us: base.translate_us * 3.0 * k,
        diff_create_per_byte_us: base.diff_create_per_byte_us * 2.0 * k,
        ..base.clone()
    }
}

/// The quick grid's static cell of `structure` at 4 processors.
fn p4(structure: Structure) -> SynthConfig {
    SynthConfig::quick(structure, Dynamics::Static)
}

/// The quick grid's 64-processor uniform cell (`synth::scenario_grid`).
fn p64() -> SynthConfig {
    let mut cfg = p4(Structure::Uniform);
    (cfg.nprocs, cfg.n, cfg.refs, cfg.iters) = (64, 8192, 12288, 6);
    cfg
}

/// Run `variants` of `cfg` fresh and untraced under the default cost
/// model, then under each perturbed model — the second one traced — and
/// on a recycled cluster; panic naming the cell, the variant and the
/// first count that moved.
fn check(cfg: SynthConfig, variants: &[Variant]) {
    let cell = cfg.label();
    let fresh = Prepared::new(cfg.clone());
    let with_cost = |k: f64| {
        let mut c = cfg.clone();
        c.cost = perturbed(&cfg.cost, k);
        Prepared::new(c)
    };
    let (slow, fast) = (with_cost(1.5), with_cost(0.5));
    let pooled = Prepared::new(cfg.clone());
    pooled.set_reuse(true);
    // The pool is per thread and keyed by configuration: one run fills
    // it, and every later pooled run of the cell takes a recycled
    // cluster.
    Counts::of(&pooled, variants[0]);
    for &v in variants {
        let want = Counts::of(&fresh, v);
        let check = |run: &str, got: Counts| {
            if let Some(diff) = want.first_difference(&got) {
                panic!("{cell} {}: {run} moved a count — {diff}", v.label());
            }
        };
        check("cost model ×0.5", Counts::of(&fast, v));
        let sink = Arc::new(CountingSink::default());
        let traced = with_trace_sink(sink.clone(), || Counts::of(&slow, v));
        assert!(sink.0.load(Ordering::Relaxed) > 0, "{cell}: nothing traced");
        check("cost model ×1.5, traced", traced);
        check("recycled cluster", Counts::of(&pooled, v));
    }
}

#[test]
fn static_p4_counts_ignore_cost_pool_and_tracer() {
    for s in [
        Structure::Uniform,
        Structure::PowerLaw { alpha: 2.0 },
        Structure::Banded { width: 128 },
    ] {
        check(p4(s), &Variant::PARALLEL);
    }
}

// The 64-processor cell in three test functions, so the harness can run
// them side by side.

#[test]
fn p64_base_and_opt_counts_ignore_cost_pool_and_tracer() {
    check(p64(), &[Variant::TmkBase, Variant::TmkOpt]);
}

#[test]
fn p64_adaptive_and_push_counts_ignore_cost_pool_and_tracer() {
    check(p64(), &[Variant::TmkAdaptive, Variant::TmkPush]);
}

#[test]
fn p64_chaos_counts_ignore_cost_pool_and_tracer() {
    check(p64(), &[Variant::Chaos]);
}
