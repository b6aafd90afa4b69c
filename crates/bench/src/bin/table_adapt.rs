//! The fourth-system comparison: sequential vs plain TreadMarks vs
//! compiler-optimized (`Validate`) vs **runtime-adaptive** on all three
//! applications. This is the table the `adapt` crate exists for — how
//! much of the compiler's aggregation win does a purely runtime policy
//! recover, with no source analysis at all?
//!
//! ```text
//! cargo run --release -p bench --bin table_adapt            # paper scale
//! cargo run --release -p bench --bin table_adapt -- --quick # reduced scale
//! cargo run --release -p bench --bin table_adapt -- --quick --trace t.json
//! ```
//!
//! `--trace PATH` additionally runs the reduced-scale moldyn adaptive
//! build once more under the structured trace sink and writes a Chrome
//! trace (faults, barriers per phase tag, policy decisions, prefetch
//! rounds) viewable in Perfetto.
//!
//! The run doubles as the acceptance check for the adaptive engine: it
//! verifies (per the `simnet` counters) that on moldyn and nbf the
//! adaptive build sends ≥ 25% fewer messages than plain Tmk and the
//! update-push build sends strictly fewer than the pull-mode adaptive
//! build — *with the explicit push-subscription cost counted* — that
//! push ≤ prefetch ≤ base holds on every application, and that the
//! phase-keyed quiesce streaks actually fire on the multi-barrier apps
//! (quiesced plans > 0 on moldyn and nbf, which a globally-keyed
//! streak provably never achieves — their alternating barrier sites
//! reset it every epoch).

use std::sync::Arc;

use apps::report::RunReport;
use apps::umesh::UmeshConfig;
use apps::workload::{
    run_variants, MoldynWorkload, NbfWorkload, UmeshWorkload, Variant, Workload, WorkloadMatrix,
};
use bench::cli::Cli;
use bench::Scale;
use trace::{chrome_trace_json, json_well_formed, with_trace_sink, Tracer};

/// One app's seq + four Tmk builds, cross-checked by `run_variants`
/// (each against sequential per the app's contract, and the parallel
/// builds bitwise among themselves).
struct Group {
    app: &'static str,
    m: WorkloadMatrix,
}

impl Group {
    fn run(app: &'static str, w: &dyn Workload) -> Group {
        Group {
            app,
            m: run_variants(w, &Variant::TMK),
        }
    }

    fn report(&self, v: Variant) -> &RunReport {
        &self.m.get(v).report
    }

    fn messages(&self, v: Variant) -> u64 {
        self.report(v).messages
    }

    /// Percent fewer messages than `Tmk base`.
    fn reduction_vs_base(&self, v: Variant) -> f64 {
        let base = self.messages(Variant::TmkBase);
        100.0 * base.saturating_sub(self.messages(v)) as f64 / base.max(1) as f64
    }

    fn print(&self) {
        self.m.print_titled(self.app);
        let pol = self
            .report(Variant::TmkAdaptive)
            .policy
            .as_ref()
            .expect("adaptive policy report");
        println!(
            "  adaptive vs base: {:.1}% fewer messages (opt reaches {:.1}%)",
            self.reduction_vs_base(Variant::TmkAdaptive),
            self.reduction_vs_base(Variant::TmkOpt),
        );
        println!(
            "  policy decisions: {} epochs, {} promotions, {} demotions, {} probes; \
             {} prefetch rounds covering {} pages",
            pol.epochs,
            pol.promotions,
            pol.demotions,
            pol.probes,
            pol.prefetch_rounds,
            pol.prefetch_pages
        );
        println!(
            "  phase-keyed quiesce: {} plans deferred, {} quiesced untouched across {} phases",
            pol.deferred_plans,
            pol.quiesced_plans,
            pol.per_phase.len(),
        );
        for row in pol.per_phase.iter().filter(|r| r.quiesced_plans > 0) {
            println!(
                "    phase {:>2}: {} deferred, {} quiesced ({} pages saved)",
                row.phase, row.deferred_plans, row.quiesced_plans, row.quiesced_pages
            );
        }
        let pp = self
            .report(Variant::TmkPush)
            .policy
            .as_ref()
            .expect("push policy report");
        let adaptive = self.messages(Variant::TmkAdaptive);
        println!(
            "  update-push: {:.1}% fewer messages than pull-mode adaptive \
             ({} push rounds covering {} pages, {} one-way subscription msgs counted)",
            100.0 * adaptive.saturating_sub(self.messages(Variant::TmkPush)) as f64
                / adaptive.max(1) as f64,
            pp.push_rounds,
            pp.push_pages,
            pp.subscriptions,
        );
    }
}

/// moldyn at rebuild interval 15. At quick scale, 1/8 the molecules
/// with 1/4 the page size keeps the paper's pages-per-array regime
/// (~dozens of coordinate pages), which is what both aggregation paths
/// feed on.
fn moldyn_workload(scale: Scale) -> MoldynWorkload {
    let mut cfg = scale.moldyn(15);
    if scale == Scale::Quick {
        cfg.page_size = 1024;
    }
    MoldynWorkload::new(cfg)
}

fn nbf_workload(scale: Scale) -> NbfWorkload {
    let mut cfg = scale.nbf(65536);
    if scale == Scale::Quick {
        cfg.page_size = 1024; // preserve the pages-per-array regime
    }
    NbfWorkload::new(cfg)
}

fn umesh_workload(scale: Scale) -> UmeshWorkload {
    UmeshWorkload::new(if scale == Scale::Quick {
        let mut c = UmeshConfig::small();
        c.side = 64;
        c.sweeps = 8;
        c
    } else {
        UmeshConfig::medium()
    })
}

fn main() {
    let cli = Cli::parse("table_adapt [--quick] [--trace PATH]");
    let scale = cli.scale();
    println!("=== table_adapt: the runtime-adaptive fourth and fifth systems ===");
    println!("(seq / Tmk base / Tmk+compiler / Tmk adaptive / Tmk push; times simulated;");
    println!(" the adaptive builds use NO compiler hints and NO inspector;");
    println!(" push = same predictor, writer-initiated one-way diffs)");

    let groups = [
        Group::run("moldyn (rebuild every 15 steps)", &moldyn_workload(scale)),
        Group::run("nbf (static partner list)", &nbf_workload(scale)),
        Group::run("umesh (static mesh)", &umesh_workload(scale)),
    ];
    for g in &groups {
        g.print();
    }

    // Acceptance checks, per the simnet counters.
    let (base, adaptive, push) = (Variant::TmkBase, Variant::TmkAdaptive, Variant::TmkPush);
    for g in &groups {
        assert!(
            g.messages(adaptive) <= g.messages(base),
            "{}: adaptive sent MORE messages than plain Tmk ({} > {})",
            g.app,
            g.messages(adaptive),
            g.messages(base)
        );
        assert!(
            g.messages(push) <= g.messages(adaptive),
            "{}: push sent MORE messages than pull-mode adaptive ({} > {})",
            g.app,
            g.messages(push),
            g.messages(adaptive)
        );
        let pp = g.report(push).policy.as_ref().expect("push policy report");
        assert!(
            pp.subscriptions > 0,
            "{}: push must pay its subscription traffic (0 AdaptSub billed)",
            g.app
        );
    }
    for g in &groups[..2] {
        assert!(
            g.reduction_vs_base(adaptive) >= 25.0,
            "{}: adaptive reduction {:.1}% below the 25% bar",
            g.app,
            g.reduction_vs_base(adaptive)
        );
        assert!(
            g.messages(push) < g.messages(adaptive),
            "{}: update-push must be strictly cheaper than prefetch ({} !< {})",
            g.app,
            g.messages(push),
            g.messages(adaptive)
        );
        // The phase-keyed quiesce win: the multi-barrier apps' plans
        // build per-site streaks and the final exchanges go untriggered
        // — a globally-keyed streak never fires here, because the
        // alternating barrier sites reset it every epoch.
        let pol = g
            .report(adaptive)
            .policy
            .as_ref()
            .expect("adaptive policy report");
        assert!(
            pol.deferred_plans > 0,
            "{}: phase-keyed streaks must defer steady plans",
            g.app
        );
        assert!(
            pol.quiesced_plans > 0,
            "{}: the final-barrier exchange must quiesce (0 plans quiesced)",
            g.app
        );
    }
    println!("\nacceptance: adaptive ≥25% fewer messages on moldyn and nbf,");
    println!("            push ≤ prefetch ≤ base everywhere (subscriptions counted),");
    println!("            push strictly beats prefetch on moldyn and nbf, and the");
    println!("            phase-keyed streaks quiesce plans on both  ✓");

    if let Some(path) = cli.value("--trace") {
        write_trace(path);
    }
}

/// One reduced-scale moldyn adaptive run under the structured trace
/// sink, exported as Chrome trace JSON — the phase-tagged barriers and
/// the policy's promote/demote/prefetch decisions, on a timeline.
fn write_trace(path: &str) {
    let w = moldyn_workload(Scale::Quick);
    let tracer = Arc::new(Tracer::new(w.cfg.nprocs, 1 << 16));
    let _ = with_trace_sink(tracer.clone(), || run_variants(&w, &[Variant::TmkAdaptive]));
    let trace = tracer.capture();
    let json = chrome_trace_json(&trace);
    assert!(json_well_formed(&json), "trace JSON malformed");
    std::fs::write(path, &json).expect("write --trace output");
    println!(
        "\nwrote {path}: {} events over {} lanes from one moldyn adaptive run",
        trace.len(),
        w.cfg.nprocs
    );
}
