//! nbf on the DSM, all four Tmk builds from one SPMD program: base and
//! optimized — the `Tmk` rows of Table 2 — plus the runtime-adaptive
//! and update-push builds (the base program with an
//! [`adapt::AdaptivePolicy`] installed per processor).
//!
//! BLOCK partition; the static partner list is written once during
//! initialization. Each timed step: `Validate` (optimized) prefetches
//! the coordinate pages named by the partner section, forces accumulate
//! into a private array, the shared force array is updated in the
//! pipelined owner-last fashion, and owners integrate their coordinates.
//!
//! Because the paper's 64×1000 size makes the per-processor blocks
//! misaligned with pages, the boundary pages of `x` and `forces` are
//! written by two processors — the false-sharing overhead §5.2.1
//! measures falls out of the protocol here with no special handling.
//!
//! nbf is the adaptive engine's best case: the partner list is
//! *static*, so the set of coordinate pages each processor reads
//! through it never changes. After `promote_after` steps the whole
//! remote read set is promoted and every step's page-at-a-time demand
//! traffic collapses into one exchange per peer — the same shape
//! `Validate` reaches, but learned instead of compiled. (This is the
//! paper's §5.2 workload whose indirection even a compiler can handle;
//! the point of the adaptive build is that *nothing* about the source
//! was needed.) The pattern is perfectly stable, so the default
//! [`adapt::AdaptConfig`] is right.

use rsd::{Dim, Env, Rsd};
use sdsm_core::{validate, AccessType, Cluster, Desc, DsmConfig, RegionRef, Validator};
use simnet::SimTime;

use chaos::block_partition;

use super::{nbf_force, NbfConfig, NbfWorld, DT};
use crate::harness::{install_policy, Capture};
use crate::report::{RunReport, Variant};
use crate::work;

/// Run nbf on the simulated DSM as one of the [`Variant::TMK`] builds.
/// Returns the Table-2 row ([`RunReport::policy`] filled for the
/// adaptive builds) and the final coordinates.
pub fn run_tmk(
    cfg: &NbfConfig,
    world: &NbfWorld,
    variant: Variant,
    seq_time: SimTime,
) -> (RunReport, Vec<f64>) {
    variant.expect_tmk("nbf::run_tmk");
    let nprocs = cfg.nprocs;
    let n = cfg.n;
    let part = block_partition(n, nprocs);

    // Compile the nbf source; the optimized build uses its INDIRECT site.
    let compiled = fcc::compile(fcc::fixtures::NBF_SOURCE).expect("nbf source compiles");
    let site = compiled
        .sites
        .iter()
        .find(|s| s.unit == "computenbfforces")
        .expect("nbf Validate site")
        .clone();
    let ind_desc = site
        .descriptors
        .iter()
        .find(|d| d.ind.as_deref() == Some("partners"))
        .expect("partners INDIRECT descriptor")
        .clone();

    let cl = Cluster::new(DsmConfig {
        nprocs,
        page_size: cfg.page_size,
        cost: cfg.cost.clone(),
    });
    let x = cl.alloc::<f64>(n);
    let forces = cl.alloc::<f64>(n);
    let partners = cl.alloc::<i32>(world.partners.len());
    let last = cl.alloc::<i32>(n + 1);

    let ranks = cl.run(|p| {
        install_policy(p, variant, &adapt::AdaptConfig::default());
        let me = p.rank();
        let my = part.range_of(me);
        let mut v = Validator::new();
        let mut local = vec![0.0f64; n];

        // --- untimed init: owner writes its block of x, partner list ---
        for i in my.clone() {
            p.write(&x, i, world.x0[i]);
        }
        let (klo, khi) = (
            world.last[my.start] as usize,
            world.last[my.end] as usize,
        );
        for k in klo..khi {
            p.write(&partners, k, world.partners[k]);
        }
        for i in my.start..=my.end {
            p.write(&last, i, world.last[i]);
        }
        // First invalidation of the coordinate pages — same site as the
        // per-step owner-integrate barrier, so that phase's event axis
        // starts here (the partner/last pages it also invalidates are
        // never written again, so their attribution is moot).
        p.barrier_tagged(crate::phases::UPDATE);

        for step in 1..=(cfg.warmup + cfg.steps) {
            if step == cfg.warmup + 1 {
                p.start_timed_region();
                p.reset_counters();
            }

            // ---- ComputeNbfForces ----
            if variant == Variant::TmkOpt {
                // Bind the compiler's section: the opaque bound symbols
                // `last(0)` and `last(num_molecules)` become this
                // processor's partner-list extent (its molecules' lists).
                let env = Env::new()
                    .bind("last(0)", klo as i64)
                    .bind("last(num_molecules)", khi as i64);
                let sec = ind_desc.section.eval(&env).expect("bound section");
                validate(
                    p,
                    &mut v,
                    &[
                        Desc::Indirect {
                            data: RegionRef::of(&x),
                            ind: partners,
                            ind_dims: vec![partners.len()],
                            section: sec,
                            access: AccessType::Read,
                            sched: 1,
                        },
                        // The direct reads of x(i) and last(i) over my
                        // block (the site's DIRECT descriptors, bound to
                        // my range).
                        Desc::Direct {
                            data: RegionRef::of(&x),
                            section: Rsd::dense1(my.start as i64 + 1, my.end as i64),
                            access: AccessType::Read,
                            sched: 2,
                        },
                        Desc::Direct {
                            data: RegionRef::of(&last),
                            section: Rsd::dense1(my.start as i64 + 1, my.end as i64 + 1),
                            access: AccessType::Read,
                            sched: 3,
                        },
                    ],
                );
            }
            for l in local.iter_mut() {
                *l = 0.0;
            }
            p.compute(work::t(work::ZERO_US, n));
            let mut pairs = 0usize;
            for i in my.clone() {
                let lo = p.read(&last, i) as usize;
                let hi = p.read(&last, i + 1) as usize;
                let xi = p.read(&x, i);
                for k in lo..hi {
                    let j = p.read(&partners, k) as usize - 1;
                    let xj = p.read(&x, j);
                    let f = nbf_force(xi, xj);
                    local[i] += f;
                    local[j] -= f;
                }
                pairs += hi - lo;
            }
            p.compute(work::t(work::NBF_PAIR_US, pairs));

            // ---- pipelined reduction, owner last ----
            for s in 0..p.nprocs() {
                let chunk = (me + s + 1) % p.nprocs();
                let cr = part.range_of(chunk);
                if variant == Variant::TmkOpt {
                    let access = if s == 0 {
                        AccessType::WriteAll
                    } else {
                        AccessType::ReadWriteAll
                    };
                    validate(
                        p,
                        &mut v,
                        &[Desc::Direct {
                            data: RegionRef::of(&forces),
                            section: Rsd::new(vec![Dim::dense(
                                cr.start as i64 + 1,
                                cr.end as i64,
                            )]),
                            access,
                            sched: 100 + chunk as u32,
                        }],
                    );
                }
                if s == 0 {
                    for i in cr {
                        p.write(&forces, i, local[i]);
                    }
                } else {
                    for i in cr {
                        let cur = p.read(&forces, i);
                        p.write(&forces, i, cur + local[i]);
                    }
                }
                // Per-round phase tag: each reduction round is its own
                // barrier site (crate::phases), so the adaptive engine
                // keeps one chunk plan per round.
                p.barrier_tagged(crate::phases::PIPELINE + s as u32);
            }

            // ---- owner integrates ----
            if variant == Variant::TmkOpt {
                validate(
                    p,
                    &mut v,
                    &[Desc::Direct {
                        data: RegionRef::of(&x),
                        section: Rsd::dense1(my.start as i64 + 1, my.end as i64),
                        access: AccessType::ReadWriteAll,
                        sched: 200,
                    }],
                );
            }
            for i in my.clone() {
                let f = p.read(&forces, i);
                let cur = p.read(&x, i);
                p.write(&x, i, cur + DT * f);
            }
            p.compute(work::t(work::NBF_UPDATE_US, my.len()));
            p.barrier_tagged(crate::phases::UPDATE);
        }

        let out = Capture::tmk(me, &cl, v.scan_seconds());
        p.barrier();
        out
    });

    let (policy, final_x) = Capture::extract(variant, &cl, &x);

    let checksum = final_x.iter().map(|v| v.abs()).sum();
    (Capture::report(variant, ranks, policy, seq_time, checksum), final_x)
}
