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

use chaos::{inspector, rcb_partition, ChaosWorld, Ghosted, TTable, TTableCache, TTableKind};

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
    let part = rcb_partition(&world.pos, nprocs);
    let pos_new: Vec<[f64; 3]> = (0..n).map(|k| world.pos[part.old_of[k] as usize]).collect();
    // Build the table over the *remapped* block layout: element k (new
    // numbering) lives on its owner at offset k - start.
    let remapped_part = {
        let owner: Vec<usize> = (0..n).map(|k| part.owner_of_new(k)).collect();
        chaos::Partition::from_owners(owner, nprocs)
    };
    let tt = TTable::new(TTableKind::Distributed, &remapped_part);

    let w = ChaosWorld::new(nprocs, cfg.cost.clone());
    let rebuilds = cfg.rebuild_steps();

    let out = w.run(|cp| {
        let me = cp.rank();
        let my_range = part.range_of(me);
        let rc2 = world.cutoff * world.cutoff;
        let mut cache = TTableCache::new();

        // Owned blocks (remapped/new numbering, locally dense).
        let mut x_own: Vec<[f64; 3]> = pos_new[my_range.clone()].to_vec();
        let nloc = x_own.len();

        // Position snapshot used for list building (allgather).
        let mut pos_snap = pos_new.clone();

        // --- untimed: initial list + inspector ---
        let mut pairs =
            build_interaction_list_for(&pos_snap, world.cutoff, world.box_l, my_range.start, my_range.end);
        let t0 = cp.now();
        let mut sched = inspector(
            cp,
            &tt,
            &mut cache,
            pairs.iter().flat_map(|&(i, j)| [i, j]),
        );
        let untimed_inspector_s = (cp.now() - t0).as_secs_f64();
        let mut locs: Vec<(chaos::Loc, chaos::Loc)> = resolve(&pairs, &tt, &sched, me);

        cp.start_timed_region();
        let mut inspector_in_region = 0.0f64;

        for step in 1..=cfg.steps {
            if rebuilds.contains(&step) {
                // Rebuild: allgather positions, rebuild my pairs, re-run
                // the inspector (this is what the paper charges CHAOS
                // for: "CHAOS suffers from having to rerun the
                // inspector").
                allgather_x(cp, &part, &x_own, &mut pos_snap);
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
                locs = resolve(&pairs, &tt, &sched, me);
            }

            // --- gather remote x; zero forces; compute; scatter ---
            // The schedule is molecule-granular; payloads are triples.
            let mut xg = Ghosted {
                owned: flatten(&x_own),
                ghosts: vec![0.0; 3 * sched.ghost_count()],
            };
            gather3(cp, &sched, &mut xg);

            let mut fg = Ghosted {
                owned: vec![0.0; 3 * nloc],
                ghosts: vec![0.0; 3 * sched.ghost_count()],
            };
            // Paper §5.1: "each processor uses the schedule created by
            // the inspector to gather remote values of x and forces
            // before the main loop. Both x and forces are modified
            // elsewhere, necessitating the gather." Our kernel subset has
            // no "elsewhere" writes (owners just zeroed the array), so
            // the gathered values are zeros — but the communication is
            // part of the CHAOS program the paper measures, and the
            // ghost slots must be (re)zeroed before accumulation either
            // way.
            gather3(cp, &sched, &mut fg);
            fg.ghosts.iter_mut().for_each(|g| *g = 0.0);
            for (k, &(i, j)) in pairs.iter().enumerate() {
                let (li, lj) = locs[k];
                let xi = get3(&xg, li);
                let xj = get3(&xg, lj);
                let f = pair_force(&xi, &xj, rc2);
                add3(&mut fg, li, f, 1.0);
                add3(&mut fg, lj, f, -1.0);
                let _ = (i, j);
            }
            cp.compute(work::t(work::MOLDYN_PAIR_US, pairs.len()));
            scatter3(cp, &sched, &mut fg);

            // --- owner integrates positions ---
            for (l, xi) in x_own.iter_mut().enumerate() {
                for (d, c) in xi.iter_mut().enumerate() {
                    *c += DT * fg.owned[3 * l + d];
                }
            }
            cp.compute(work::t(work::MOLDYN_UPDATE_US, nloc));
            cp.sync();
        }

        let rank = Capture::chaos(cp, untimed_inspector_s, inspector_in_region);
        (rank, x_own)
    });

    // The owned blocks in rank order are the remapped array (a
    // processor's range ascends with its rank); back to original
    // numbering.
    let (ranks, blocks): (Vec<_>, Vec<_>) = out.into_iter().unzip();
    let mut final_x = vec![[0.0f64; 3]; n];
    for (k, v) in blocks.into_iter().flatten().enumerate() {
        final_x[part.old_of[k] as usize] = v;
    }

    let checksum = final_x.iter().flatten().map(|v| v.abs()).sum();
    (Capture::report(Variant::Chaos, ranks, None, seq_time, checksum), final_x)
}

/// Pre-resolve every pair's two molecule locations (owned / ghost).
fn resolve(
    pairs: &[(u32, u32)],
    tt: &TTable,
    sched: &chaos::CommSchedule,
    me: usize,
) -> Vec<(chaos::Loc, chaos::Loc)> {
    pairs
        .iter()
        .map(|&(i, j)| {
            let (oi, offi) = tt.translate_free(i);
            let (oj, offj) = tt.translate_free(j);
            (sched.locate(me, oi, offi), sched.locate(me, oj, offj))
        })
        .collect()
}

#[inline]
fn get3(g: &Ghosted, loc: chaos::Loc) -> [f64; 3] {
    let b = match loc {
        chaos::Loc::Own(o) => 3 * o as usize,
        chaos::Loc::Ghost(gi) => 3 * gi as usize,
    };
    match loc {
        chaos::Loc::Own(_) => [g.owned[b], g.owned[b + 1], g.owned[b + 2]],
        chaos::Loc::Ghost(_) => [g.ghosts[b], g.ghosts[b + 1], g.ghosts[b + 2]],
    }
}

#[inline]
fn add3(g: &mut Ghosted, loc: chaos::Loc, f: [f64; 3], sign: f64) {
    let b = match loc {
        chaos::Loc::Own(o) => 3 * o as usize,
        chaos::Loc::Ghost(gi) => 3 * gi as usize,
    };
    let dst = match loc {
        chaos::Loc::Own(_) => &mut g.owned,
        chaos::Loc::Ghost(_) => &mut g.ghosts,
    };
    for d in 0..3 {
        dst[b + d] += sign * f[d];
    }
}

fn flatten(v: &[[f64; 3]]) -> Vec<f64> {
    v.iter().flatten().copied().collect()
}

/// Gather molecule triples according to the (molecule-granular) schedule.
fn gather3(cp: &mut chaos::ChaosProc, sched: &chaos::CommSchedule, data: &mut Ghosted) {
    // Expand ghost storage to triples.
    data.ghosts.resize(3 * sched.ghost_count(), 0.0);
    let me = cp.rank();
    let cost = cp.net().cost().clone();
    let mut out = Vec::new();
    let mut packed = 0usize;
    for q in 0..cp.nprocs() {
        let list = sched.send(q);
        if q == me || list.is_empty() {
            continue;
        }
        let mut vals = Vec::with_capacity(3 * list.len());
        for &o in list {
            let b = 3 * o as usize;
            vals.extend_from_slice(&data.owned[b..b + 3]);
        }
        packed += vals.len() * 8;
        out.push((q, vals));
    }
    cp.compute(cost.pack(packed));
    let incoming = cp.exchange_f64(MsgKind::Gather, out);
    for (from, vals) in incoming {
        let start = 3 * sched.ghost_starts[from] as usize;
        data.ghosts[start..start + vals.len()].copy_from_slice(&vals);
    }
    cp.compute(cost.pack(packed));
}

/// Scatter-add molecule triples back to their owners.
fn scatter3(cp: &mut chaos::ChaosProc, sched: &chaos::CommSchedule, data: &mut Ghosted) {
    let me = cp.rank();
    let cost = cp.net().cost().clone();
    let mut out = Vec::new();
    let mut packed = 0usize;
    for q in 0..cp.nprocs() {
        let list = sched.recv(q);
        if q == me || list.is_empty() {
            continue;
        }
        let start = 3 * sched.ghost_starts[q] as usize;
        let vals: Vec<f64> = data.ghosts[start..start + 3 * list.len()].to_vec();
        packed += vals.len() * 8;
        out.push((q, vals));
    }
    cp.compute(cost.pack(packed));
    let incoming = cp.exchange_f64(MsgKind::Scatter, out);
    for (from, vals) in incoming {
        let list = sched.send(from);
        for (k, &o) in list.iter().enumerate() {
            let b = 3 * o as usize;
            for d in 0..3 {
                data.owned[b + d] += vals[3 * k + d];
            }
        }
    }
    cp.compute(cost.pack(packed));
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
    let flat = flatten(x_own);
    let out: Vec<(usize, Vec<f64>)> = (0..cp.nprocs())
        .filter(|&q| q != me)
        .map(|q| (q, flat.clone()))
        .collect();
    let incoming = cp.exchange_f64(MsgKind::Gather, out);
    // Own block.
    let r = part.range_of(me);
    snap[r.clone()].copy_from_slice(x_own);
    for (from, vals) in incoming {
        let r = part.range_of(from);
        for (off, chunk) in vals.chunks_exact(3).enumerate() {
            snap[r.start + off] = [chunk[0], chunk[1], chunk[2]];
        }
    }
}
