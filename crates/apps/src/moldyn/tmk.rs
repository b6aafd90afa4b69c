//! moldyn on the DSM, all four Tmk builds from one SPMD program: base
//! TreadMarks (pure demand paging) and the compiler-optimized build
//! (`Validate` aggregation) — the `Tmk base` / `Tmk optimized` rows of
//! Table 1 — plus the runtime-adaptive and update-push builds, which
//! run the *base* program (no `Validate` calls, no compiler
//! involvement) with an [`adapt::AdaptivePolicy`] installed per
//! processor.
//!
//! Program structure (paper §5.1): molecules are assigned to processors
//! with the RCB partitioner and *remapped* so each processor's molecules
//! are contiguous. Each step:
//!
//! 1. (on rebuild steps) every processor reads all positions and
//!    rebuilds its section of the shared interaction list;
//! 2. `ComputeForces`: each processor walks its list section, reading
//!    `x` through the indirection and accumulating into a private
//!    `local_forces` (the Figure-2 transformation);
//! 3. the shared `forces` array is updated in a *pipelined* fashion in
//!    `nprocs` barrier-separated rounds — each round a processor updates
//!    1/nprocs of the data, the first writer of a chunk overwriting
//!    (`WRITE_ALL`) and the rest accumulating (`READ&WRITE_ALL`), with
//!    the chunk's *owner* going last;
//! 4. owners integrate positions from their force chunk.
//!
//! The optimized build takes its `INDIRECT` descriptor from `fcc`
//! compiling the paper's Figure-1 source — the compiler genuinely drives
//! the run-time.
//!
//! What the adaptive engine learns here is moldyn's whole story:
//! between list rebuilds, every step re-reads the *same* 30–50% of the
//! coordinate pages through the interaction list, and the pipelined
//! force reduction touches the same chunk pages every `nprocs + 1`
//! barriers. Both repeat, so both get promoted to batched barrier-time
//! prefetch within two steps. A rebuild shifts part of the read set;
//! the default two-window promotion re-learns a shifted page in two
//! steps, and the probe cadence retires pages that left the working
//! set — so the default [`adapt::AdaptConfig`] is used as is.

use rsd::{Dim, Env, Rsd};
use sdsm_core::{validate, AccessType, Cluster, Desc, DsmConfig, RegionRef, Validator};
use simnet::SimTime;

use chaos::{rcb_partition, Partition};

use super::geometry::{build_interaction_list_for, pair_force, MoldynWorld};
use super::{MoldynConfig, DT};
use crate::harness::{install_policy, Capture};
use crate::report::{RunReport, Variant};
use crate::work;

/// Run moldyn on the simulated DSM as one of the [`Variant::TMK`]
/// builds. Returns the Table-1 row ([`RunReport::policy`] filled for the
/// adaptive builds) and the final positions in *original* numbering
/// for verification.
pub fn run_tmk(
    cfg: &MoldynConfig,
    world: &MoldynWorld,
    variant: Variant,
    seq_time: SimTime,
) -> (RunReport, Vec<[f64; 3]>) {
    variant.expect_tmk("moldyn::run_tmk");
    let nprocs = cfg.nprocs;
    let n = cfg.n;

    // --- untimed setup: partition, remap, compile ---
    let part = rcb_partition(&world.pos, nprocs);
    let pos_new: Vec<[f64; 3]> = (0..n).map(|k| world.pos[part.old_of[k] as usize]).collect();

    // Compile Figure 1; the optimized build uses the emitted site.
    let compiled = fcc::compile(fcc::fixtures::MOLDYN_SOURCE).expect("figure-1 source compiles");
    let site = compiled
        .sites
        .iter()
        .find(|s| s.unit == "computeforces")
        .expect("ComputeForces Validate site")
        .clone();
    assert_eq!(site.reductions[0].local, "local_forces");

    // Interaction-list capacity per processor (the 1997 program sized
    // this statically too).
    let per_proc_counts: Vec<usize> = (0..nprocs)
        .map(|p| {
            let r = part.range_of(p);
            build_interaction_list_for(&pos_new, world.cutoff, world.box_l, r.start, r.end).len()
        })
        .collect();
    let cap_pp = per_proc_counts.iter().max().unwrap() * 3 / 2 + 64;
    let cap_total = cap_pp * nprocs;

    let cl = Cluster::new(DsmConfig {
        nprocs,
        page_size: cfg.page_size,
        cost: cfg.cost.clone(),
    });
    let x = cl.alloc::<f64>(3 * n);
    let forces = cl.alloc::<f64>(3 * n);
    let ilist = cl.alloc::<i32>(2 * cap_total);
    let npairs = cl.alloc::<i64>(nprocs);

    let rebuilds = cfg.rebuild_steps();
    let ranks = cl.run(|p| {
        install_policy(p, variant, &adapt::AdaptConfig::default());
        let me = p.rank();
        let my_mols = part.range_of(me);
        let rc2 = world.cutoff * world.cutoff;
        let mut v = Validator::new();
        let mut local = vec![0.0f64; 3 * n]; // private local_forces (Figure 2)
        let mut xbuf = vec![0.0f64; 3 * n]; // private position snapshot for rebuilds
        let mut my_npairs;

        // --- untimed initialization: positions + initial list build ---
        for i in my_mols.clone() {
            for (d, &c) in pos_new[i].iter().enumerate() {
                p.write(&x, 3 * i + d, c);
            }
        }
        // First invalidation of the coordinate pages — the same pages
        // the position-update barrier re-invalidates every step, so it
        // carries that site's tag and starts that phase's event axis.
        p.barrier_tagged(crate::phases::UPDATE);
        my_npairs = rebuild_list(
            p, &part, me, &x, &ilist, &npairs, cap_pp, world, &mut xbuf, variant, &mut v, n,
        );
        // Phase tags name the barrier *sites* of the step loop so the
        // adaptive engine learns one plan per site (crate::phases); the
        // init-time rebuild barrier shares the in-loop rebuild site.
        p.barrier_tagged(crate::phases::REBUILD);

        p.start_timed_region();
        p.reset_counters();

        for step in 1..=cfg.steps {
            // ---- (maybe) rebuild the interaction list ----
            if rebuilds.contains(&step) {
                my_npairs = rebuild_list(
                    p, &part, me, &x, &ilist, &npairs, cap_pp, world, &mut xbuf, variant, &mut v,
                    n,
                );
                p.barrier_tagged(crate::phases::REBUILD);
            }

            // ---- ComputeForces (the Figure-2 transformation) ----
            let my_start_pairs = me * cap_pp;
            if variant == Variant::TmkOpt {
                // Bind the compiler's symbolic section to this processor:
                // num_interactions = my count, offset by my list section.
                let sd = &site.descriptors[0];
                let env = Env::new().bind("num_interactions", my_npairs as i64);
                let mut sec = sd.section.eval(&env).expect("bound section");
                sec.dims[1].lo += my_start_pairs as i64;
                sec.dims[1].hi += my_start_pairs as i64;
                validate(
                    p,
                    &mut v,
                    &[Desc::Indirect {
                        data: molecule_region(&x),
                        ind: ilist,
                        ind_dims: vec![2, cap_total],
                        section: sec,
                        access: AccessType::Read,
                        sched: 1,
                    }],
                );
            }
            for l in local.iter_mut() {
                *l = 0.0;
            }
            p.compute(work::t(work::ZERO_US, 3 * n));
            for k in 0..my_npairs {
                let flat = 2 * (my_start_pairs + k);
                let n1 = p.read(&ilist, flat) as usize - 1; // 1-based entries
                let n2 = p.read(&ilist, flat + 1) as usize - 1;
                let xi = read3(p, &x, n1);
                let xj = read3(p, &x, n2);
                let f = pair_force(&xi, &xj, rc2);
                for d in 0..3 {
                    local[3 * n1 + d] += f[d];
                    local[3 * n2 + d] -= f[d];
                }
            }
            p.compute(work::t(work::MOLDYN_PAIR_US, my_npairs));

            // ---- pipelined reduction, owner last ----
            for s in 0..p.nprocs() {
                let chunk = (me + s + 1) % p.nprocs();
                let mr = part.range_of(chunk);
                let (elo, ehi) = (3 * mr.start, 3 * mr.end);
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
                            section: Rsd::new(vec![Dim::dense(elo as i64 + 1, ehi as i64)]),
                            access,
                            sched: 100 + chunk as u32,
                        }],
                    );
                }
                // `e` is simultaneously the shared-array and private-array
                // index (owner-computes), so the range loop is the honest form.
                #[allow(clippy::needless_range_loop)]
                if s == 0 {
                    for e in elo..ehi {
                        p.write(&forces, e, local[e]);
                    }
                } else {
                    for e in elo..ehi {
                        let cur = p.read(&forces, e);
                        p.write(&forces, e, cur + local[e]);
                    }
                }
                p.barrier_tagged(crate::phases::PIPELINE + s as u32);
            }

            // ---- position update (owner) ----
            let (elo, ehi) = (3 * my_mols.start, 3 * my_mols.end);
            if variant == Variant::TmkOpt {
                validate(
                    p,
                    &mut v,
                    &[Desc::Direct {
                        data: region3(&x),
                        section: Rsd::new(vec![Dim::dense(elo as i64 + 1, ehi as i64)]),
                        access: AccessType::ReadWriteAll,
                        sched: 200,
                    }],
                );
            }
            for e in elo..ehi {
                let f = p.read(&forces, e);
                let cur = p.read(&x, e);
                p.write(&x, e, cur + DT * f);
            }
            p.compute(work::t(work::MOLDYN_UPDATE_US, my_mols.len()));
            p.barrier_tagged(crate::phases::UPDATE);
        }

        // Capture the timed region before any result extraction.
        let out = Capture::tmk(me, &cl, v.scan_seconds());
        p.barrier();
        out
    });

    // --- untimed result extraction, back to original numbering ---
    let (policy, remapped) = Capture::extract(variant, &cl, &x);
    let mut final_x = vec![[0.0; 3]; n];
    for (k, xyz) in remapped.chunks_exact(3).enumerate() {
        final_x[part.old_of[k] as usize].copy_from_slice(xyz);
    }

    let checksum = final_x.iter().flatten().map(|v| v.abs()).sum();
    (Capture::report(variant, ranks, policy, seq_time, checksum), final_x)
}

/// One processor's share of a list (re)build: read every position
/// through the DSM, scan candidate pairs (charged at the 1997 O(N²)
/// cost), and write this processor's section of the shared list.
#[allow(clippy::too_many_arguments)]
fn rebuild_list(
    p: &mut sdsm_core::TmkProc,
    part: &Partition,
    me: usize,
    x: &sdsm_core::SharedSlice<f64>,
    ilist: &sdsm_core::SharedSlice<i32>,
    npairs: &sdsm_core::SharedSlice<i64>,
    cap_pp: usize,
    world: &MoldynWorld,
    xbuf: &mut [f64],
    variant: Variant,
    v: &mut Validator,
    n: usize,
) -> usize {
    let my_mols = part.range_of(me);
    if variant == Variant::TmkOpt {
        // Regular read of the whole coordinate array: aggregate the fetch.
        validate(
            p,
            v,
            &[Desc::Direct {
                data: region3(x),
                section: Rsd::dense1(1, 3 * n as i64),
                access: AccessType::Read,
                sched: 300,
            }],
        );
    }
    for (e, slot) in xbuf.iter_mut().enumerate() {
        *slot = p.read(x, e);
    }
    let pos: Vec<[f64; 3]> = (0..n)
        .map(|i| [xbuf[3 * i], xbuf[3 * i + 1], xbuf[3 * i + 2]])
        .collect();
    let list = build_interaction_list_for(&pos, world.cutoff, world.box_l, my_mols.start, my_mols.end);
    // Charged at the 1997 naive O(N²/2) scan, divided evenly: production
    // triangular loops balance the rows (Newton's-third-law pairing), so
    // every processor performs ~N²/2P pair tests regardless of which
    // rows' pairs it records. The recorded pair set is unchanged.
    let tested = n * (n - 1) / 2 / p.nprocs();
    p.compute(work::t(work::MOLDYN_PAIRTEST_US, tested));

    assert!(
        list.len() <= cap_pp,
        "interaction list overflow: {} > {}",
        list.len(),
        cap_pp
    );
    let my_start = me * cap_pp;
    if variant == Variant::TmkOpt {
        // Pre-twin this processor's list section (regular WRITE).
        validate(
            p,
            v,
            &[Desc::Direct {
                data: RegionRef::of(ilist),
                section: Rsd::dense1(
                    2 * my_start as i64 + 1,
                    2 * (my_start + list.len().max(1)) as i64,
                ),
                access: AccessType::Write,
                sched: 400,
            }],
        );
    }
    for (k, &(i, j)) in list.iter().enumerate() {
        let flat = 2 * (my_start + k);
        p.write(ilist, flat, i as i32 + 1); // 1-based, Fortran-style
        p.write(ilist, flat + 1, j as i32 + 1);
    }
    p.write(npairs, me, list.len() as i64);
    list.len()
}

#[inline]
fn read3(p: &mut sdsm_core::TmkProc, x: &sdsm_core::SharedSlice<f64>, i: usize) -> [f64; 3] {
    [
        p.read(x, 3 * i),
        p.read(x, 3 * i + 1),
        p.read(x, 3 * i + 2),
    ]
}

/// Element view of the coordinate array (for DIRECT sections).
fn region3(x: &sdsm_core::SharedSlice<f64>) -> RegionRef {
    RegionRef::of(x)
}

/// Molecule-grained view of the coordinate array: the indirection targets
/// are molecule numbers, and one molecule is three f64s (24 bytes, which
/// may straddle a page boundary — Read_indices handles the split).
fn molecule_region(x: &sdsm_core::SharedSlice<f64>) -> RegionRef {
    RegionRef {
        base: x.base_byte(),
        len: x.len() / 3,
        elem: 24,
    }
}
