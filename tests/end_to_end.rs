//! Workspace-level integration: the compiler drives the run-time, the
//! run-time drives the DSM, and the whole pipeline reproduces the
//! paper's qualitative results at test scale.

use sdsm_repro::apps::moldyn::{self, MoldynConfig};
use sdsm_repro::apps::nbf::{self, NbfConfig};
use sdsm_repro::apps::Variant;
use sdsm_repro::core_rt::{validate, AccessType, Cluster, Desc, DsmConfig, RegionRef, Validator};
use sdsm_repro::fcc;
use sdsm_repro::rsd::Env;

/// The compiler's moldyn descriptor, evaluated with a processor's
/// bindings, drives a real aggregated prefetch on the DSM.
#[test]
fn compiler_descriptor_drives_validate() {
    let result = fcc::compile(fcc::fixtures::MOLDYN_SOURCE).unwrap();
    let site = &result.sites[0];
    let sd = &site.descriptors[0];
    assert_eq!(sd.ind.as_deref(), Some("interaction_list"));

    let cl = Cluster::new(DsmConfig::with_nprocs(2));
    let n = 512usize;
    let x = cl.alloc::<f64>(n);
    let ilist = cl.alloc::<i32>(2 * 64);

    // Evaluate the symbolic section with a run-time binding, exactly as
    // the application does.
    let env = Env::new().bind("num_interactions", 64);
    let section = sd.section.eval(&env).expect("binds");
    assert_eq!(section.len(), 128);

    cl.run(|p| {
        if p.rank() == 0 {
            for i in 0..n {
                p.write(&x, i, i as f64);
            }
            for k in 0..64 {
                p.write(&ilist, 2 * k, (k * 8 + 1) as i32);
                p.write(&ilist, 2 * k + 1, (k * 8 + 2) as i32);
            }
        }
        p.barrier();
        if p.rank() == 1 {
            let mut v = Validator::new();
            validate(
                p,
                &mut v,
                &[Desc::Indirect {
                    data: RegionRef::of(&x),
                    ind: ilist,
                    ind_dims: vec![2, 64],
                    section: section.clone(),
                    access: AccessType::Read,
                    sched: 1,
                }],
            );
            // Prefetched: the irregular loop takes no faults.
            let faults = p.counters().read_faults;
            let mut acc = 0.0;
            for k in 0..64 {
                let n1 = p.read(&ilist, 2 * k) as usize - 1;
                let n2 = p.read(&ilist, 2 * k + 1) as usize - 1;
                acc += p.read(&x, n1) - p.read(&x, n2);
            }
            assert_eq!(p.counters().read_faults, faults);
            assert_eq!(acc, -64.0);
        }
        p.barrier();
    });
}

/// Figure 2 comes out of the pipeline byte-for-byte.
#[test]
fn figures_regenerate() {
    let r = fcc::compile(fcc::fixtures::MOLDYN_SOURCE).unwrap();
    assert!(r.source.contains(
        "call Validate(1, INDIRECT, x, interaction_list[1:2, 1:num_interactions], READ, 1)"
    ));
    assert!(r
        .source
        .contains("local_forces(n1) = local_forces(n1) + force"));
}

/// The paper's Table-1 shape at reduced scale: the optimized build beats
/// base; its advantage over CHAOS grows with rebuild frequency once the
/// inspector is counted.
#[test]
fn table1_shape_reduced_scale() {
    let mut cfg = MoldynConfig::small();
    cfg.n = 1024;
    cfg.steps = 8;
    cfg.update_interval = 4;
    let world = moldyn::gen_positions(&cfg);
    let seq = moldyn::run_seq(&cfg, &world);
    let (chaos, _) = moldyn::run_chaos(&cfg, &world, seq.report.time);
    let (base, _) = moldyn::run_tmk(&cfg, &world, Variant::TmkBase, seq.report.time);
    let (opt, _) = moldyn::run_tmk(&cfg, &world, Variant::TmkOpt, seq.report.time);

    assert!(
        opt.time < base.time,
        "aggregation must win over demand paging"
    );
    assert!(opt.messages * 2 < base.messages);
    // "the software DSM-based approach is always faster than CHAOS" once
    // the inspector is included.
    let chaos_total = chaos.time.as_secs_f64() + chaos.untimed_inspector_s;
    assert!(opt.time.as_secs_f64() < chaos_total);
    // All three scale: nobody slower than sequential.
    for r in [&chaos, &base, &opt] {
        assert!(r.time < seq.report.time);
    }
}

/// The paper's Table-2 false-sharing contrast at reduced scale: the
/// misaligned size sends more messages and data than the aligned one.
#[test]
fn table2_false_sharing_shape() {
    let run = |n: usize| {
        let mut cfg = NbfConfig::paper(n);
        cfg.n = n;
        cfg.partners = 24;
        cfg.steps = 4;
        cfg.page_size = 1024;
        let world = nbf::gen_world(&cfg);
        let seq = nbf::run_seq(&cfg, &world);
        nbf::run_tmk(&cfg, &world, Variant::TmkOpt, seq.report.time).0
    };
    let aligned = run(8192); // 8192/8 procs = 1024 f64 = 8 KB: page aligned
    let misaligned = run(8000); // 1000 f64 = 7.8125 pages
    assert!(
        misaligned.messages > aligned.messages,
        "false sharing must add messages: {} vs {}",
        misaligned.messages,
        aligned.messages
    );
    assert!(misaligned.bytes > aligned.bytes);
}

/// Barriers, Validate and an owner-computes reduction coexist (the full
/// DSM API surface).
#[test]
fn full_api_surface() {
    let cl = Cluster::new(DsmConfig::with_nprocs(4));
    let data = cl.alloc::<f64>(1024);
    let partials = cl.alloc::<f64>(4);
    cl.run(|p| {
        let me = p.rank();
        let chunk = data.len() / p.nprocs();
        for i in me * chunk..(me + 1) * chunk {
            p.write(&data, i, 1.0);
        }
        p.barrier();

        let mut v = Validator::new();
        validate(
            p,
            &mut v,
            &[Desc::Direct {
                data: RegionRef::of(&data),
                section: sdsm_repro::rsd::Rsd::dense1(1, data.len() as i64),
                access: AccessType::Read,
                sched: 1,
            }],
        );
        let mut local = 0.0;
        for i in 0..data.len() {
            local += p.read(&data, i);
        }
        p.write(&partials, me, local);
        p.barrier();
        if me == 0 {
            let sum: f64 = (0..p.nprocs()).map(|q| p.read(&partials, q)).sum();
            assert_eq!(sum, (4 * data.len()) as f64);
        }
        p.barrier();
    });
}
