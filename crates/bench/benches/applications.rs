//! End-to-end application benchmarks at reduced scale: the Table-1 and
//! Table-2 pipelines (workload generation → three systems → verified
//! results), measured as wall-clock of the whole simulation. These keep
//! `cargo bench` fast while exercising exactly the code paths the table
//! harnesses use at paper scale.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use apps::moldyn::MoldynConfig;
use apps::nbf::NbfConfig;
use apps::workload::{MoldynWorkload, NbfWorkload, Variant, Workload};
use simnet::SimTime;

/// One group per app: the sequential reference and the paper's three
/// systems, each a whole simulated run through `Workload::run`.
fn bench_app(c: &mut Criterion, group: &str, w: &dyn Workload) {
    let mut g = c.benchmark_group(group);
    g.sample_size(10);
    let seq_time = w.run(Variant::Seq, SimTime::ZERO).0.time;
    for (name, v) in [
        ("seq", Variant::Seq),
        ("tmk_base", Variant::TmkBase),
        ("tmk_opt", Variant::TmkOpt),
        ("chaos", Variant::Chaos),
    ] {
        g.bench_function(name, |b| b.iter(|| black_box(w.run(v, seq_time).0.time)));
    }
    g.finish();
}

fn bench_moldyn(c: &mut Criterion) {
    let mut cfg = MoldynConfig::small();
    cfg.n = 1024;
    cfg.steps = 4;
    cfg.update_interval = 3;
    bench_app(c, "moldyn_small", &MoldynWorkload::new(cfg));
}

fn bench_nbf(c: &mut Criterion) {
    let mut cfg = NbfConfig::small();
    cfg.n = 2048;
    cfg.partners = 16;
    bench_app(c, "nbf_small", &NbfWorkload::new(cfg));
}

fn bench_compiler(c: &mut Criterion) {
    let mut g = c.benchmark_group("compiler");
    g.bench_function("compile_moldyn_figure1", |b| {
        b.iter(|| black_box(fcc::compile(fcc::fixtures::MOLDYN_SOURCE).unwrap().sites.len()))
    });
    g.bench_function("compile_nbf", |b| {
        b.iter(|| black_box(fcc::compile(fcc::fixtures::NBF_SOURCE).unwrap().sites.len()))
    });
    g.finish();
}

criterion_group!(benches, bench_moldyn, bench_nbf, bench_compiler);
criterion_main!(benches);
