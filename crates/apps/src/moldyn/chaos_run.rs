//! moldyn on CHAOS: the hand-coded inspector/executor build — the
//! `CHAOS` row of Table 1.
//!
//! Following paper §5.1: the RCB partitioner assigns molecules (this
//! partition lasts the whole run); the translation table is
//! **distributed** ("We were unable to use a replicated translation
//! table, owing to the amount of memory that it required"); the
//! inspector runs once at start-up (untimed, like the paper's) and again
//! after every interaction-list rebuild (timed); the executor gathers
//! remote `x` values before the force loop and scatters force
//! contributions back after it.

use simnet::{MsgKind, SimTime};

use chaos::{
    gather, inspector, rcb_partition, scatter_add, ChaosWorld, TTable, TTableCache, TTableKind,
};

use super::geometry::{build_interaction_list_for, pair_force, MoldynWorld};
use super::{MoldynConfig, DT};
use crate::harness::Capture;
use crate::report::{RunReport, Variant};
use crate::work;

/// Run moldyn under CHAOS. Returns the Table-1 row and final positions
/// (original numbering).
pub fn run_chaos(
    cfg: &MoldynConfig,
    world: &MoldynWorld,
    seq_time: SimTime,
) -> (RunReport, Vec<[f64; 3]>) {
    let nprocs = cfg.nprocs;
    let n = cfg.n;

    // Partition + remap (untimed, as in the paper).
    let (part, old_of) = rcb_partition(&world.pos, nprocs);
    let pos_new: Vec<[f64; 3]> = old_of.iter().map(|&e| world.pos[e as usize]).collect();
    // The table is over the renumbered block layout: element k lives on
    // its owner at offset k - start.
    let tt = TTable::new(TTableKind::Distributed, &part);

    let w = ChaosWorld::new(nprocs, cfg.cost.clone());
    let rebuilds = cfg.rebuild_steps();

    let out = w.run(|cp| {
        let me = cp.rank();
        let my_range = part.range_of(me);
        let rc2 = world.cutoff * world.cutoff;
        let mut cache = TTableCache::new();

        // Local positions and forces (remapped numbering): the owned
        // block, then one ghost triple per scheduled remote molecule.
        let mut x: Vec<[f64; 3]> = pos_new[my_range.clone()].to_vec();
        let mut f: Vec<[f64; 3]> = Vec::new();
        let nloc = x.len();

        // Position snapshot used for list building (allgather).
        let mut pos_snap = pos_new.clone();

        // --- untimed: initial list + inspector ---
        let mut pairs = build_interaction_list_for(
            &pos_snap,
            world.cutoff,
            world.box_l,
            my_range.start,
            my_range.end,
        );
        let t0 = cp.now();
        let mut sched = inspector(cp, &tt, &mut cache, pairs.iter().flat_map(|&(i, j)| [i, j]));
        let untimed_inspector_s = (cp.now() - t0).as_secs_f64();
        let mut locs: Vec<(u32, u32)> = pairs
            .iter()
            .map(|&(i, j)| (sched.localize(&tt, i), sched.localize(&tt, j)))
            .collect();

        cp.start_timed_region();
        let mut inspector_in_region = 0.0f64;

        for step in 1..=cfg.steps {
            if rebuilds.contains(&step) {
                // Rebuild: allgather positions, rebuild my pairs, re-run
                // the inspector (this is what the paper charges CHAOS
                // for: "CHAOS suffers from having to rerun the
                // inspector").
                allgather_x(cp, &part, &x[..nloc], &mut pos_snap);
                pairs = build_interaction_list_for(
                    &pos_snap,
                    world.cutoff,
                    world.box_l,
                    my_range.start,
                    my_range.end,
                );
                // Balanced triangular scan (see the Tmk build's note).
                let tested = n * (n - 1) / 2 / cp.nprocs();
                cp.compute(work::t(work::MOLDYN_PAIRTEST_US, tested));
                let t0 = cp.now();
                sched = inspector(cp, &tt, &mut cache, pairs.iter().flat_map(|&(i, j)| [i, j]));
                inspector_in_region += (cp.now() - t0).as_secs_f64();
                locs = pairs
                    .iter()
                    .map(|&(i, j)| (sched.localize(&tt, i), sched.localize(&tt, j)))
                    .collect();
            }
            // Room for this schedule's ghosts (a no-op between rebuilds).
            x.resize(sched.local_len(), [0.0; 3]);
            f.resize(sched.local_len(), [0.0; 3]);

            // --- gather remote x; zero forces; compute; scatter ---
            // The schedule is molecule-granular; payloads are triples.
            gather(cp, &sched, 3, x.as_flattened_mut());

            f.fill([0.0; 3]);
            // Paper §5.1: "each processor uses the schedule created by
            // the inspector to gather remote values of x and forces
            // before the main loop. Both x and forces are modified
            // elsewhere, necessitating the gather." Our kernel subset has
            // no "elsewhere" writes (owners just zeroed the array), so
            // the gathered values are zeros — but the communication is
            // part of the CHAOS program the paper measures, and the
            // ghost slots must be (re)zeroed before accumulation either
            // way.
            gather(cp, &sched, 3, f.as_flattened_mut());
            f[nloc..].fill([0.0; 3]);
            for &(li, lj) in &locs {
                let (li, lj) = (li as usize, lj as usize);
                let fij = pair_force(&x[li], &x[lj], rc2);
                for d in 0..3 {
                    f[li][d] += fij[d];
                    f[lj][d] -= fij[d];
                }
            }
            cp.compute(work::t(work::MOLDYN_PAIR_US, pairs.len()));
            scatter_add(cp, &sched, 3, f.as_flattened_mut());

            // --- owner integrates positions ---
            for (xi, fi) in x[..nloc].iter_mut().zip(&f) {
                for (c, fd) in xi.iter_mut().zip(fi) {
                    *c += DT * fd;
                }
            }
            cp.compute(work::t(work::MOLDYN_UPDATE_US, nloc));
            cp.sync();
        }

        let rank = Capture::chaos(cp, untimed_inspector_s, inspector_in_region);
        x.truncate(nloc);
        (rank, x)
    });

    // The owned blocks in rank order are the remapped array (a
    // processor's range ascends with its rank); back to original
    // numbering.
    let (ranks, blocks): (Vec<_>, Vec<_>) = out.into_iter().unzip();
    let mut final_x = vec![[0.0f64; 3]; n];
    for (k, v) in blocks.into_iter().flatten().enumerate() {
        final_x[old_of[k] as usize] = v;
    }

    let checksum = final_x.iter().flatten().map(|v| v.abs()).sum();
    (
        Capture::report(Variant::Chaos, ranks, None, seq_time, checksum),
        final_x,
    )
}

/// All-to-all broadcast of owned position blocks (used by the rebuild:
/// every processor needs every position to scan its candidate pairs).
fn allgather_x(
    cp: &mut chaos::ChaosProc,
    part: &chaos::Partition,
    x_own: &[[f64; 3]],
    snap: &mut [[f64; 3]],
) {
    let me = cp.rank();
    let out = (0..cp.nprocs())
        .filter(|&q| q != me)
        .map(|q| (q, x_own.iter().flatten().copied()));
    cp.exchange(MsgKind::Gather, out, |from, vals| {
        for (c, v) in snap[part.range_of(from)].iter_mut().flatten().zip(vals) {
            *c = v;
        }
    });
    // Own block.
    snap[part.range_of(me)].copy_from_slice(x_own);
}
