//! nbf on CHAOS — the `CHAOS` row of Table 2.
//!
//! "In the CHAOS program, the inspector is called at the beginning of the
//! program, outside the loop simulating the time steps. At the start of
//! each time step, a gather is called to collect the updated values of
//! coordinates from remote processors. A scatter is invoked at the end of
//! each time step to propagate the modifications to the force array."

use simnet::SimTime;

use chaos::{
    block_partition, gather, inspector, scatter_add, ChaosWorld, Ghosted, TTable, TTableCache,
    TTableKind,
};

use super::{nbf_force, NbfConfig, NbfWorld, DT};
use crate::harness::Capture;
use crate::report::{RunReport, Variant};
use crate::work;

/// Run nbf under CHAOS. Returns the Table-2 row and final coordinates.
pub fn run_chaos(cfg: &NbfConfig, world: &NbfWorld, seq_time: SimTime) -> (RunReport, Vec<f64>) {
    let nprocs = cfg.nprocs;
    let n = cfg.n;
    let part = block_partition(n, nprocs);
    // 84% of the molecules interact (paper §5.2) — remapping buys little,
    // and BLOCK makes translation trivial; the replicated table fits.
    let tt = TTable::new(TTableKind::Replicated, &part);

    let w = ChaosWorld::new(nprocs, cfg.cost.clone());
    let out = w.run(|cp| {
        let me = cp.rank();
        let my = part.range_of(me);
        let mut cache = TTableCache::new();

        let mut x_own: Vec<f64> = world.x0[my.clone()].to_vec();
        let nloc = x_own.len();
        let (klo, khi) = (world.last[my.start] as usize, world.last[my.end] as usize);

        // --- untimed: the inspector, once, outside the time-step loop ---
        let t0 = cp.now();
        let sched = inspector(
            cp,
            &tt,
            &mut cache,
            world.partners[klo..khi].iter().map(|&j| j as u32 - 1),
        );
        let untimed_inspector_s = (cp.now() - t0).as_secs_f64();

        // Pre-resolve each partner reference.
        let locs: Vec<chaos::Loc> = world.partners[klo..khi]
            .iter()
            .map(|&j| {
                let (o, off) = tt.translate_free(j as u32 - 1);
                sched.locate(me, o, off)
            })
            .collect();

        for step in 1..=(cfg.warmup + cfg.steps) {
            if step == cfg.warmup + 1 {
                cp.start_timed_region();
            }

            // gather updated coordinates
            let mut xg = Ghosted::new(x_own.clone(), &sched);
            gather(cp, &sched, &mut xg);

            // accumulate forces (owned + ghost contributions)
            let mut fg = Ghosted::new(vec![0.0; nloc], &sched);
            let mut pairs = 0usize;
            for (li, i) in my.clone().enumerate() {
                let xi = xg.owned[li];
                let (lo, hi) = (world.last[i] as usize, world.last[i + 1] as usize);
                for k in lo..hi {
                    let loc = locs[k - klo];
                    let xj = xg.get(loc);
                    let f = nbf_force(xi, xj);
                    fg.owned[li] += f;
                    fg.add(loc, -f);
                }
                pairs += hi - lo;
            }
            cp.compute(work::t(work::ZERO_US, nloc) + work::t(work::NBF_PAIR_US, pairs));

            // scatter force contributions back to the owners
            scatter_add(cp, &sched, &mut fg);

            // owner integrates
            for (li, xi) in x_own.iter_mut().enumerate() {
                *xi += DT * fg.owned[li];
            }
            cp.compute(work::t(work::NBF_UPDATE_US, nloc));
            cp.sync();
        }

        (Capture::chaos(cp, untimed_inspector_s, 0.0), x_own)
    });

    // BLOCK ranges ascend with the rank, so the owned blocks in rank
    // order are the whole array.
    let (ranks, blocks): (Vec<_>, Vec<_>) = out.into_iter().unzip();
    let final_x = blocks.concat();

    let checksum = final_x.iter().map(|v| v.abs()).sum();
    (
        Capture::report(Variant::Chaos, ranks, None, seq_time, checksum),
        final_x,
    )
}
