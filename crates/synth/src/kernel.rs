//! The generic gather–compute–scatter reduction kernel, in all six
//! system variants.
//!
//! Each iteration walks the effective interaction list: a *flux* is
//! computed from the two endpoint values and accumulated into both
//! (`+` into the higher endpoint, `-` into the lower, like umesh's edge
//! relaxation), then every element absorbs its accumulator. The flux
//! weight `kappa` is sized from the hottest element's degree so the
//! relaxation is a contraction for every generated structure.
//!
//! All parallel builds use the fixed-order **owner-side** reduction
//! (the owner of element `i` recomputes each of `i`'s incident fluxes
//! from the coherent start-of-iteration values, in global list order),
//! so seq, the four Tmk builds, and CHAOS agree
//! **bitwise** on every scenario — the contract `table_synth` asserts
//! across the whole grid.

use std::collections::HashMap;
use std::ops::Range;

use rsd::{Dim, Rsd};
use sdsm_core::{
    validate, AccessType, Cluster, ClusterPool, Desc, DsmConfig, RegionRef, Validator,
};
use simnet::{MsgKind, SimTime};

use apps::harness::{install_policy, Capture};
use apps::report::{RunReport, Variant};
use apps::work;
use chaos::{
    block_partition, gather, inspector, ChaosWorld, Ghosted, Partition, TTable, TTableCache,
};

use crate::{Dynamics, SynthConfig, SynthWorld};

/// Barrier-site phase tag of the end-of-iteration barrier (see
/// `apps::phases` for the idea). Under [`Dynamics::Alternating`] the
/// tag is split by iteration parity — the two interleaved lists are two
/// distinct sites, exactly like a classic app's alternating barriers.
pub const PHASE_ITER: u32 = 2;

/// Barrier-site phase tag of the post-rebuild barrier (parity-split
/// under [`Dynamics::Alternating`], like [`PHASE_ITER`]).
pub const PHASE_REMAP: u32 = 4;

/// Modeled cost of one incident-flux evaluation (per visit; cross-block
/// pairs are evaluated by both endpoint owners, as in umesh).
pub const REF_US: f64 = 20.0;

/// Modeled cost of scanning one raw candidate during a list rebuild
/// (divided evenly across processors in the parallel builds).
pub const REMAP_US: f64 = 2.0;

/// One element's contribution from one incident pair, exactly as the
/// sequential sweep applies it.
#[inline]
fn accumulate(acc: &mut f64, node: u32, a: u32, flux: f64) {
    if node == a {
        *acc -= flux;
    } else {
        *acc += flux;
    }
}

/// The sequential reference: real arithmetic, modeled time. In-loop
/// list rebuilds are timed (like moldyn's); the initial build is
/// initialization.
pub fn run_seq(cfg: &SynthConfig, world: &SynthWorld) -> (RunReport, Vec<f64>) {
    let n = cfg.n;
    let mut x = world.x0.clone();
    let mut acc = vec![0.0f64; n];
    let mut time = SimTime::ZERO;
    let mut cur_ver = world.version_of_iter[0];
    for it in 0..cfg.iters {
        let ver = world.version_of_iter[it];
        if ver != cur_ver {
            time += work::t(REMAP_US, cfg.refs);
            cur_ver = ver;
        }
        let list = &world.lists[ver];
        acc.iter_mut().for_each(|a| *a = 0.0);
        for &(a, b) in list {
            let flux = (x[a as usize] - x[b as usize]) * world.kappa;
            acc[a as usize] -= flux;
            acc[b as usize] += flux;
        }
        for (xi, a) in x.iter_mut().zip(&acc) {
            *xi += a;
        }
        time += work::t(REF_US, list.len()) + work::t(work::ZERO_US, 2 * n);
    }
    let checksum = x.iter().map(|v| v.abs()).sum();
    (RunReport::sequential(time, checksum), x)
}

/// Per-schedule-version, per-processor owner-side work plan,
/// precomputed once (untimed setup) and shared by the Tmk and CHAOS
/// builds.
///
/// A *schedule version* (`sv`) is one distinct (partition epoch, list
/// version) pair, enumerated in first-use order. For every regime
/// except [`Dynamics::Rebalance`] there is exactly one partition, so
/// schedule versions coincide with list versions and the plan is the
/// classic per-list one. A rebalance re-cuts the partition mid-run
/// without touching the list, producing a second schedule version over
/// the *same* list — the stale-schedule case CHAOS must detect and
/// re-inspect its way out of.
pub(crate) struct Plan {
    /// Distinct data partitions, in epoch order. All ascending-
    /// contiguous (identity remap), so `range_of` speaks original
    /// element ids — the kernels index the shared array with it.
    pub parts: Vec<Partition>,
    /// Per iteration: its schedule version.
    pub sv_of_iter: Vec<usize>,
    /// Per schedule version: index into [`Plan::parts`].
    pub sv_part: Vec<usize>,
    /// `flat[sv][q]`: proc `q`'s owned incident pairs under schedule
    /// version `sv`, concatenated in global list order.
    pub flat: Vec<Vec<Vec<(u32, u32)>>>,
    /// `deg[sv][q][li]`: incident count of `q`'s `li`-th owned element.
    pub deg: Vec<Vec<Vec<usize>>>,
    /// Capacity of one processor's shared-list section, in pairs.
    pub cap_pp: usize,
}

/// The re-cut partition a [`Dynamics::Rebalance`] switches to: every
/// interior block boundary slides forward by half a block, so roughly
/// half of each processor's elements change owner while ownership stays
/// ascending-contiguous (identity remap — the kernels' indexing
/// contract, see [`Plan::parts`]).
fn rebalanced_partition(n: usize, nprocs: usize) -> Partition {
    let base = block_partition(n, nprocs);
    let shift = ((n / nprocs) / 2).max(1);
    let mut starts = base.starts.clone();
    for (s, &b) in starts[1..nprocs].iter_mut().zip(&base.starts[1..nprocs]) {
        *s = (b + shift).min(n);
    }
    for p in 1..=nprocs {
        starts[p] = starts[p].max(starts[p - 1]);
    }
    let mut owner = vec![0usize; n];
    for p in 0..nprocs {
        owner[starts[p]..starts[p + 1]].fill(p);
    }
    Partition::from_owners(owner, nprocs)
}

pub(crate) fn plan(cfg: &SynthConfig, world: &SynthWorld) -> Plan {
    let n = cfg.n;
    let nprocs = cfg.nprocs;
    let mut parts = vec![block_partition(n, nprocs)];
    if cfg.dynamics.partition_epochs(cfg.iters) == 2 {
        parts.push(rebalanced_partition(n, nprocs));
    }

    // Schedule versions: distinct (partition epoch, list version)
    // pairs in first-use order.
    let mut sv_of_iter = Vec::with_capacity(cfg.iters);
    let mut sv_part: Vec<usize> = Vec::new();
    let mut sv_list: Vec<usize> = Vec::new();
    let mut seen: HashMap<(usize, usize), usize> = HashMap::new();
    for it in 0..cfg.iters {
        let pe = cfg.dynamics.partition_epoch(it);
        let lv = world.version_of_iter[it];
        let sv = *seen.entry((pe, lv)).or_insert_with(|| {
            sv_part.push(pe);
            sv_list.push(lv);
            sv_part.len() - 1
        });
        sv_of_iter.push(sv);
    }

    let mut incidents: Vec<Vec<Vec<(u32, u32)>>> = Vec::with_capacity(world.lists.len());
    for list in &world.lists {
        let mut incident: Vec<Vec<(u32, u32)>> = vec![Vec::new(); n];
        for &(a, b) in list {
            incident[a as usize].push((a, b));
            incident[b as usize].push((a, b));
        }
        incidents.push(incident);
    }
    let mut flat = Vec::with_capacity(sv_part.len());
    let mut deg = Vec::with_capacity(sv_part.len());
    for sv in 0..sv_part.len() {
        let part = &parts[sv_part[sv]];
        let incident = &incidents[sv_list[sv]];
        let mut vflat = Vec::with_capacity(nprocs);
        let mut vdeg = Vec::with_capacity(nprocs);
        for q in 0..nprocs {
            let r = part.range_of(q);
            let mut f = Vec::new();
            let mut d = Vec::with_capacity(r.len());
            for i in r {
                d.push(incident[i].len());
                f.extend_from_slice(&incident[i]);
            }
            vflat.push(f);
            vdeg.push(d);
        }
        flat.push(vflat);
        deg.push(vdeg);
    }
    let cap_pp = flat
        .iter()
        .flat_map(|v| v.iter().map(Vec::len))
        .max()
        .unwrap_or(0)
        + 1;
    Plan {
        parts,
        sv_of_iter,
        sv_part,
        flat,
        deg,
        cap_pp,
    }
}

thread_local! {
    /// Recycled clusters for the reusable-scratch path (one pool per
    /// executor thread, so serving workers never contend on it). Only
    /// [`run_tmk_prepared`] with `reuse = true` touches it; otherwise
    /// every run builds a cold cluster.
    static CLUSTERS: ClusterPool = const { ClusterPool::new() };
}

/// The cluster shape a scenario's Tmk builds run on.
pub(crate) fn dsm_config(cfg: &SynthConfig) -> DsmConfig {
    DsmConfig {
        nprocs: cfg.nprocs,
        page_size: cfg.page_size,
        cost: cfg.cost.clone(),
    }
}

/// The kernel on the DSM as one of the [`Variant::TMK`] builds, selected
/// exactly as in the three classic apps, against a prebuilt [`Plan`]
/// ([`crate::Prepared`] holds one per scenario). With `reuse`, the
/// cluster is checked out of (and recycled back into) a thread-local
/// [`ClusterPool`] instead of being built and dropped per run.
pub(crate) fn run_tmk_prepared(
    cfg: &SynthConfig,
    world: &SynthWorld,
    pl: &Plan,
    variant: Variant,
    seq_time: SimTime,
    reuse: bool,
) -> (RunReport, Vec<f64>) {
    let dsm_cfg = dsm_config(cfg);
    let cl = if reuse {
        CLUSTERS.with(|p| p.checkout(&dsm_cfg))
    } else {
        Cluster::new(dsm_cfg)
    };
    let out = run_tmk_on(&cl, cfg, world, pl, variant, seq_time);
    if reuse {
        CLUSTERS.with(|p| p.checkin(cl));
    }
    out
}

/// [`run_tmk_prepared`] on a given just-built (or recycled) cluster.
pub(crate) fn run_tmk_on(
    cl: &Cluster,
    cfg: &SynthConfig,
    world: &SynthWorld,
    pl: &Plan,
    variant: Variant,
    seq_time: SimTime,
) -> (RunReport, Vec<f64>) {
    variant.expect_tmk("synth::kernel::run_tmk_prepared");
    let n = cfg.n;
    let nprocs = cfg.nprocs;
    let cap_pp = pl.cap_pp;

    cl.net().set_label(&cfg.label());
    let x = cl.alloc::<f64>(n);
    let ilist = cl.alloc::<i32>(2 * cap_pp * nprocs);

    // Phase identity of the kernel's two barrier sites: constant tags
    // normally; split by iteration parity for the alternating cell so
    // its two interleaved lists register as two plans.
    let alternating = cfg.dynamics == Dynamics::Alternating;
    let site = move |base: u32, it: usize| {
        if alternating {
            base + (it % 2) as u32
        } else {
            base
        }
    };

    let ranks = cl.run(|p| {
        install_policy(p, variant, &cfg.adapt);
        let me = p.rank();
        let mut cur_sv = pl.sv_of_iter[0];
        let mut my = pl.parts[pl.sv_part[cur_sv]].range_of(me);
        let my_start = me * cap_pp;
        let mut v = if variant == Variant::TmkOpt {
            Validator::incremental()
        } else {
            Validator::new()
        };
        let mut acc = vec![0.0f64; my.len()];

        // Writes this processor's current incident section into the
        // shared list (1-based entries, Fortran-style like the apps).
        let write_section = |p: &mut sdsm_core::TmkProc, sec: &[(u32, u32)]| {
            for (k, &(a, b)) in sec.iter().enumerate() {
                let flat = 2 * (my_start + k);
                p.write(&ilist, flat, a as i32 + 1);
                p.write(&ilist, flat + 1, b as i32 + 1);
            }
        };

        // --- untimed init: own x block + version-0 incident section ---
        for i in my.clone() {
            p.write(&x, i, world.x0[i]);
        }
        write_section(p, &pl.flat[cur_sv][me]);
        // The init barrier covers iteration 0's reads, i.e. it stands
        // where the end-of-iteration barrier of a (virtual) iteration
        // −1 would: same site, so that phase's event axis starts here.
        p.barrier_tagged(site(PHASE_ITER, 1));
        p.start_timed_region();
        p.reset_counters();

        for it in 0..cfg.iters {
            let sv = pl.sv_of_iter[it];
            if sv != cur_sv {
                // Rebuild: regenerate (balanced candidate scan) and
                // rewrite this processor's section of the shared list.
                // A partition re-cut (rebalance) lands here too: the
                // owned ranges move, but the DSM keeps the value array
                // coherent, so only the local views change hands.
                write_section(p, &pl.flat[sv][me]);
                p.compute(work::t(REMAP_US, cfg.refs / nprocs));
                p.barrier_tagged(site(PHASE_REMAP, it));
                if pl.sv_part[sv] != pl.sv_part[cur_sv] {
                    my = pl.parts[pl.sv_part[sv]].range_of(me);
                    acc = vec![0.0f64; my.len()];
                }
                cur_sv = sv;
            }
            let my_flat = pl.flat[sv][me].len();
            if variant == Variant::TmkOpt && my_flat > 0 {
                validate(
                    p,
                    &mut v,
                    &[
                        // Endpoint reads through the current list section.
                        Desc::Indirect {
                            data: RegionRef::of(&x),
                            ind: ilist,
                            ind_dims: vec![2, cap_pp * nprocs],
                            section: Rsd::new(vec![
                                Dim::dense(1, 2),
                                Dim::dense(my_start as i64 + 1, (my_start + my_flat) as i64),
                            ]),
                            access: AccessType::Read,
                            sched: 1,
                        },
                        // The owner-side x update over my block.
                        Desc::Direct {
                            data: RegionRef::of(&x),
                            section: Rsd::dense1(my.start as i64 + 1, my.end as i64),
                            access: AccessType::ReadWriteAll,
                            sched: 2,
                        },
                    ],
                );
            }
            // Fixed-order owner-side accumulation.
            acc.iter_mut().for_each(|a| *a = 0.0);
            let mut k = my_start;
            for (li, i) in my.clone().enumerate() {
                for _ in 0..pl.deg[sv][me][li] {
                    let a = p.read(&ilist, 2 * k) as u32 - 1;
                    let b = p.read(&ilist, 2 * k + 1) as u32 - 1;
                    let flux = (p.read(&x, a as usize) - p.read(&x, b as usize)) * world.kappa;
                    accumulate(&mut acc[li], i as u32, a, flux);
                    k += 1;
                }
            }
            p.compute(work::t(REF_US, my_flat) + work::t(work::ZERO_US, 2 * my.len()));

            // Owner-only update from coherent start-of-iteration values.
            for (li, i) in my.clone().enumerate() {
                let cur = p.read(&x, i);
                p.write(&x, i, cur + acc[li]);
            }
            p.barrier_tagged(site(PHASE_ITER, it));
        }

        let out = Capture::tmk(me, cl, v.scan_seconds());
        p.barrier();
        out
    });

    let (policy, final_x) = Capture::extract(variant, cl, &x);
    let checksum = final_x.iter().map(|v| v.abs()).sum();
    let report = Capture::report(variant, ranks, policy, seq_time, checksum);
    (report, final_x)
}

/// The kernel under CHAOS, against a prebuilt [`Plan`] and its
/// translation tables (one per partition epoch; the replicated `TTable`s
/// are immutable, so [`crate::Prepared`] builds them once per scenario):
/// inspector at start (untimed) and again after every list change
/// (timed, like moldyn's rebuilds); gather endpoint values per
/// iteration; owner-side accumulation needs no scatter.
pub(crate) fn run_chaos_prepared(
    cfg: &SynthConfig,
    world: &SynthWorld,
    pl: &Plan,
    tts: &[TTable],
    seq_time: SimTime,
) -> (RunReport, Vec<f64>) {
    let w = ChaosWorld::new(cfg.nprocs, cfg.cost.clone());
    run_chaos_on(&w, cfg, world, pl, tts, seq_time)
}

/// The elements two ranges share (empty, possibly with `start > end`,
/// if none).
fn overlap(a: &Range<usize>, b: &Range<usize>) -> Range<usize> {
    a.start.max(b.start)..a.end.min(b.end)
}

/// [`run_chaos_prepared`] on a given just-built world.
fn run_chaos_on(
    w: &ChaosWorld,
    cfg: &SynthConfig,
    world: &SynthWorld,
    pl: &Plan,
    tts: &[TTable],
    seq_time: SimTime,
) -> (RunReport, Vec<f64>) {
    let nprocs = cfg.nprocs;

    w.net().set_label(&cfg.label());
    let out = w.run(|cp| {
        let me = cp.rank();
        let mut cur_sv = pl.sv_of_iter[0];
        let mut pe = pl.sv_part[cur_sv];
        let mut my = pl.parts[pe].range_of(me);
        let mut cache = TTableCache::new();

        let resolve = |sec: &[(u32, u32)], sched: &chaos::CommSchedule, tt: &TTable| {
            sec.iter()
                .map(|&(a, b)| {
                    let (oa, fa) = tt.translate_free(a);
                    let (ob, fb) = tt.translate_free(b);
                    (sched.locate(me, oa, fa), sched.locate(me, ob, fb))
                })
                .collect::<Vec<_>>()
        };

        // --- untimed: the inspector for the initial list ---
        let t0 = cp.now();
        let mut sched = inspector(
            cp,
            &tts[pe],
            &mut cache,
            pl.flat[cur_sv][me].iter().flat_map(|&(a, b)| [a, b]),
        );
        let untimed_inspector_s = (cp.now() - t0).as_secs_f64();
        let mut locs = resolve(&pl.flat[cur_sv][me], &sched, &tts[pe]);
        // One ghosted array and one accumulator per rank for the whole
        // run: the owned block is `x.owned`, and a gather refills every
        // ghost slot, so both are only resized when the schedule or the
        // partition changes.
        let mut x = Ghosted::new(world.x0[my.clone()].to_vec(), &sched);
        let mut acc = vec![0.0f64; my.len()];

        cp.start_timed_region();
        let mut insp_in_region = 0.0f64;

        for it in 0..cfg.iters {
            let sv = pl.sv_of_iter[it];
            if sv != cur_sv {
                // The schedule went stale: either the list changed, or
                // (rebalance) the partition was re-cut under an
                // unchanged list. Either way CHAOS regenerates
                // (balanced candidate scan) and pays inspection inside
                // the timed region.
                cp.compute(work::t(REMAP_US, cfg.refs / nprocs));
                let new_pe = pl.sv_part[sv];
                if new_pe != pe {
                    // Partition re-cut: first migrate owned values to
                    // their new homes (bulk exchange, ascending global
                    // element id per pair — deterministic, and the f64
                    // payloads move verbatim, so results stay bitwise).
                    let old_part = &pl.parts[pe];
                    let new_part = &pl.parts[new_pe];
                    let new_my = new_part.range_of(me);
                    // Both partitions are ascending-contiguous, so what
                    // moves from `p` to `q` is `p`'s old range overlapped
                    // with `q`'s new one.
                    let out = (0..nprocs)
                        .filter(|&q| q != me)
                        .map(|q| (q, overlap(&my, &new_part.range_of(q))))
                        .filter(|(_, r)| !r.is_empty())
                        .map(|(q, r)| {
                            let (a, b) = (r.start - my.start, r.end - my.start);
                            (q, x.owned[a..b].iter().copied())
                        });
                    let mut new_x = vec![0.0f64; new_my.len()];
                    let kept = overlap(&new_my, &my);
                    if !kept.is_empty() {
                        let (a, b) = (kept.start - new_my.start, kept.start - my.start);
                        new_x[a..a + kept.len()].copy_from_slice(&x.owned[b..b + kept.len()]);
                    }
                    cp.exchange(MsgKind::Scatter, out, |from, vals| {
                        let r = overlap(&new_my, &old_part.range_of(from));
                        debug_assert_eq!(vals.len(), r.len());
                        for (xi, v) in new_x[r.start - new_my.start..].iter_mut().zip(vals) {
                            *xi = v;
                        }
                    });
                    x.owned = new_x;
                    acc.resize(new_my.len(), 0.0);
                    my = new_my;
                    // Then pay inspection again, auditable as such.
                    let t0 = cp.now();
                    sched = chaos::reinspect(
                        cp,
                        &tts[new_pe],
                        &mut cache,
                        pl.flat[sv][me].iter().flat_map(|&(a, b)| [a, b]),
                    );
                    insp_in_region += (cp.now() - t0).as_secs_f64();
                    pe = new_pe;
                } else {
                    let t0 = cp.now();
                    sched = inspector(
                        cp,
                        &tts[pe],
                        &mut cache,
                        pl.flat[sv][me].iter().flat_map(|&(a, b)| [a, b]),
                    );
                    insp_in_region += (cp.now() - t0).as_secs_f64();
                }
                locs = resolve(&pl.flat[sv][me], &sched, &tts[pe]);
                x.ghosts.resize(sched.ghost_count(), 0.0);
                cur_sv = sv;
            }
            let my_flat = pl.flat[sv][me].len();

            gather(cp, &sched, &mut x);

            acc.fill(0.0);
            let mut k = 0usize;
            for (li, i) in my.clone().enumerate() {
                for _ in 0..pl.deg[sv][me][li] {
                    let (la, lb) = locs[k];
                    let (a, _) = pl.flat[sv][me][k];
                    let flux = (x.get(la) - x.get(lb)) * world.kappa;
                    accumulate(&mut acc[li], i as u32, a, flux);
                    k += 1;
                }
            }
            cp.compute(work::t(REF_US, my_flat) + work::t(work::ZERO_US, 2 * my.len()));
            for (xi, a) in x.owned.iter_mut().zip(&acc) {
                *xi += a;
            }
            cp.sync();
        }

        let rank = Capture::chaos(cp, untimed_inspector_s, insp_in_region);
        (rank, x.owned)
    });

    // Every partition is ascending-contiguous (see [`Plan::parts`]), so
    // the owned blocks in rank order are the whole array — whichever
    // partition the run *ended* on.
    let (ranks, blocks): (Vec<_>, Vec<_>) = out.into_iter().unzip();
    let final_x = blocks.concat();
    let checksum = final_x.iter().map(|v| v.abs()).sum();
    (Capture::report(Variant::Chaos, ranks, None, seq_time, checksum), final_x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{scenario_grid, Prepared};

    /// Host rendezvous crossings are exact host *work*: they depend on
    /// the program's barrier structure, never on the host schedule. Pin
    /// them for one 4-processor and one 64-processor static cell so a
    /// refactor that re-adds a crossing fails here with a number instead
    /// of hiding inside the host clock's noise band. A Tmk variant is
    /// init + `start_timed_region` + one per iteration + final =
    /// `iters + 4` barriers at two crossings each, plus the one bare
    /// crossing that zeroes the clocks. CHAOS, as measured: the
    /// inspector's one exchange and a gather per iteration at two each,
    /// one per `sync`, two for `start_timed_region`. And every variant
    /// is exactly one SPMD launch (`nprocs` thread spawns): the result
    /// read-back happens on the calling thread.
    #[test]
    fn static_cells_cross_the_host_rendezvous_an_exact_number_of_times() {
        for (nprocs, tmk_want, chaos_want) in [(4, 29, 34), (64, 21, 22)] {
            let cfg = scenario_grid(true)
                .into_iter()
                .find(|c| c.nprocs == nprocs && c.dynamics == Dynamics::Static)
                .expect("the quick grid has a static cell at this size");
            let p = Prepared::new(cfg);
            let (cfg, world, plan) = (p.cfg(), p.world(), &p.plan);
            let barriers = cfg.iters as u64 + 4;
            assert_eq!(2 * barriers + 1, tmk_want, "{}", cfg.label());
            for v in Variant::TMK {
                let cl = Cluster::new(dsm_config(cfg));
                run_tmk_on(&cl, cfg, world, plan, v, SimTime::ZERO);
                assert_eq!(
                    (
                        cl.barrier_epoch(),
                        cl.rendezvous_crossings(),
                        cl.spmd_launches()
                    ),
                    (barriers, tmk_want, 1),
                    "{} {v:?}",
                    cfg.label()
                );
            }
            let w = ChaosWorld::new(nprocs, cfg.cost.clone());
            run_chaos_on(&w, cfg, world, plan, &p.ttables, SimTime::ZERO);
            assert_eq!(
                (w.rendezvous_crossings(), w.spmd_launches()),
                (chaos_want, 1),
                "{} CHAOS",
                cfg.label()
            );
        }
    }
}
