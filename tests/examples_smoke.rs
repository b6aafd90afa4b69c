//! Smoke tests mirroring the runnable examples at quick scale, so an
//! example-level regression fails `cargo test` instead of rotting until
//! someone happens to `cargo run` it. Each test follows the corresponding
//! example's code path (`examples/*.rs`) with its printout replaced by
//! assertions; scales are cut to keep the whole suite in seconds.

use sdsm_repro::apps::umesh::UmeshConfig;
use sdsm_repro::apps::workload::{
    run_variants, MoldynWorkload, NbfWorkload, UmeshWorkload, Variant,
};
use sdsm_repro::apps::{moldyn, nbf};
use sdsm_repro::core_rt::{Cluster, DsmConfig};
use sdsm_repro::{apps, fcc};

/// `examples/quickstart.rs`: barriers, locks, multiple-writer sharing, and
/// the traffic report on 4 simulated processors.
#[test]
fn quickstart_path() {
    let cl = Cluster::new(DsmConfig::with_nprocs(4));
    let data = cl.alloc::<f64>(4096);
    let total = cl.alloc::<f64>(8);

    cl.run(|p| {
        let me = p.rank();
        let n = data.len();
        let chunk = n / p.nprocs();
        for i in me * chunk..(me + 1) * chunk {
            p.write(&data, i, (i % 7) as f64);
        }
        p.barrier();

        let nb = (me + 1) % p.nprocs();
        let mut sum = 0.0;
        for i in nb * chunk..(nb + 1) * chunk {
            sum += p.read(&data, i);
        }

        p.lock(1);
        let cur = p.read(&total, 0);
        p.write(&total, 0, cur + sum);
        p.unlock(1);
        p.barrier();

        if me == 0 {
            let grand = p.read(&total, 0);
            assert_eq!(grand, (0..data.len()).map(|i| (i % 7) as f64).sum());
        }
    });

    let rep = cl.report();
    assert!(rep.messages > 0, "sharing must generate protocol traffic");
    assert!(rep.bytes > 0);
    assert!(cl.elapsed().as_secs_f64() > 0.0);
}

/// `examples/moldyn.rs` at quick scale: seq and the paper's three systems
/// run cross-checked and the optimized DSM beats base on messages.
#[test]
fn moldyn_example_path() {
    let mut cfg = moldyn::MoldynConfig::small();
    cfg.n = 512;
    cfg.steps = 4;
    cfg.update_interval = 2;
    let m = run_variants(&MoldynWorkload::new(cfg), &Variant::PAPER);
    let [chaos, base, opt] = Variant::PAPER.map(|v| &m.get(v).report);
    assert!(opt.messages < base.messages);
    assert!(chaos.time.as_secs_f64() > 0.0);
}

/// `examples/nbf.rs` at quick scale.
#[test]
fn nbf_example_path() {
    let mut cfg = nbf::NbfConfig::small();
    cfg.n = 1024;
    cfg.partners = 8;
    let m = run_variants(&NbfWorkload::new(cfg), &Variant::PAPER);
    assert!(m.get(Variant::TmkOpt).report.messages < m.get(Variant::TmkBase).report.messages);
}

/// `examples/umesh.rs` at small scale: the third workload's three systems
/// agree and the cached Validate schedule is reused on the static mesh.
#[test]
fn umesh_example_path() {
    // Fixed-order owner-side accumulation: every build replays the
    // sequential flux order, so `run_variants` checks agreement bitwise
    // (`UmeshWorkload::check_mode`).
    let m = run_variants(&UmeshWorkload::new(UmeshConfig::small()), &Variant::PAPER);
    let [seq, chaos, _, opt] = [0, 1, 2, 3].map(|i| &m.runs[i].report);
    assert!(chaos.untimed_inspector_s > 0.0);
    assert!(opt.time < seq.time);
}

/// `examples/adaptive.rs`: the fourth variant learns a stable irregular
/// pattern and cuts messages without compiler hints.
#[test]
fn adaptive_example_path() {
    use sdsm_repro::adapt::{AdaptConfig, AdaptivePolicy};
    let cl = Cluster::new(DsmConfig::with_nprocs(4));
    let data = cl.alloc::<f64>(8 * 512);
    cl.run(|p| p.set_policy(Box::new(AdaptivePolicy::new(AdaptConfig::default()))));
    cl.run(|p| {
        let me = p.rank();
        let n = data.len();
        let chunk = n / p.nprocs();
        for e in 0..6 {
            for i in me * chunk..(me + 1) * chunk {
                p.write(&data, i, (e + i) as f64);
            }
            p.barrier();
            // Fixed irregular read set: the same remote elements each epoch.
            let mut acc = 0.0;
            for k in 0..32 {
                acc += p.read(&data, (me * 97 + k * 131) % n);
            }
            assert!(acc >= 0.0);
            p.barrier();
        }
    });
    let pol = cl.net().policy_report();
    assert!(pol.promotions > 0, "the stable pattern must be learned");
    assert!(pol.prefetch_rounds > 0);
    let rep = cl.report();
    assert!(rep.messages_per_kind(sdsm_repro::simnet::MsgKind::AdaptRequest) > 0);
}

/// `examples/synth.rs` at reduced scale: one synthetic scenario through
/// the generic `Workload` runner — six variants, bitwise agreement
/// asserted inside `run_matrix`, adaptive within base's message count.
#[test]
fn synth_example_path() {
    use sdsm_repro::apps::workload::run_matrix;
    use sdsm_repro::synth::{Dynamics, Prepared, Structure, SynthConfig};
    let mut cfg = SynthConfig::quick(
        Structure::PowerLaw { alpha: 2.0 },
        Dynamics::PeriodicRemap { period: 3 },
    );
    cfg.n = 512;
    cfg.refs = 1536;
    cfg.iters = 6;
    cfg.page_size = 256;
    let matrix = run_matrix(&Prepared::new(cfg));
    let base = &matrix.get(Variant::TmkBase).report;
    assert!(matrix.get(Variant::TmkAdaptive).report.messages <= base.messages);
    assert!(matrix.get(Variant::Chaos).report.inspector_s > 0.0);
}

/// `examples/compiler_pipeline.rs`: Figure 1 compiles and the Validate
/// call of Figure 2 is regenerated.
#[test]
fn compiler_pipeline_path() {
    let r = fcc::compile(fcc::fixtures::MOLDYN_SOURCE).unwrap();
    assert!(!r.sites.is_empty());
    assert!(r.source.contains("call Validate"));
}

/// The report/table plumbing every example's printout goes through.
#[test]
fn report_table_plumbing() {
    let header = apps::report::table_header();
    assert!(header.contains("Time"));
}
