//! The executor: schedule-driven gather and scatter (paper §4).
//!
//! "The executor uses the communication schedule generated by the
//! inspector to gather and scatter data. Gather fetches off-processor
//! data, and scatter propagates modifications to off-processor data back
//! to their owners."
//!
//! Both work on a processor's local array of a distributed array — the
//! owned block, then the ghosts, in the order
//! [`CommSchedule::localize`] numbers them — of `width` values per
//! element (1 for a scalar array, 3 for moldyn's coordinate triples).
//! Each runs inside [`StallCat::Exchange`] and its trace span, and bills
//! one rule: pack what is sent, unpack what is received.

use simnet::{MsgKind, SpanTag, StallCat};

use crate::inspector::CommSchedule;
use crate::world::ChaosProc;

/// Split `local` at the end of the owned block, checking its length.
fn split<'a>(
    sched: &CommSchedule,
    width: usize,
    local: &'a mut [f64],
) -> (&'a mut [f64], &'a mut [f64]) {
    assert_eq!(
        local.len(),
        width * sched.local_len(),
        "a local array holds {width} values per owned and ghost element"
    );
    local.split_at_mut(width * sched.owned())
}

/// Gather: owners push the elements named in the schedule; ghosts fill.
/// One message per communicating pair (collective).
pub fn gather(cp: &mut ChaosProc, sched: &CommSchedule, width: usize, local: &mut [f64]) {
    let cost = cp.net().cost().clone();
    let me = cp.rank();
    let _ex = cp.net().scope(me, StallCat::Exchange);
    cp.span_begin(SpanTag::Gather);
    cp.compute(cost.pack(width * sched.traffic_elems() * 8));
    let (owned, ghosts) = split(sched, width, local);
    let out = (0..cp.nprocs())
        .filter(|&q| !sched.send(q).is_empty())
        .map(|q| {
            let vals = sched
                .send(q)
                .iter()
                .flat_map(|&o| &owned[width * o as usize..][..width]);
            (q, vals.copied())
        });
    let mut unpacked = 0usize;
    cp.exchange(MsgKind::Gather, out, |from, vals| {
        let slots = sched.ghost_range(from);
        debug_assert_eq!(vals.len(), width * slots.len());
        unpacked += vals.len() * 8;
        for (g, v) in ghosts[width * slots.start..].iter_mut().zip(vals) {
            *g = v;
        }
    });
    cp.compute(cost.pack(unpacked));
    cp.span_end(SpanTag::Gather);
}

/// Scatter-add: push accumulated ghost contributions back to the owners,
/// which reduce them into their owned elements. One message per pair.
///
/// The owner reduces in the order of the pipelined owner-last reduction
/// the Tmk builds run over the same per-processor partials: on owner
/// `c`, each owned value starts from +0.0, adds what peers `c − 1`,
/// `c − 2`, …, `c + 1` (mod `nprocs`) sent, and adds the owner's own
/// partial last. So CHAOS and the Tmk builds agree bit for bit. Where a
/// peer referenced no copy of an element, it sends nothing and the Tmk
/// reduction adds that peer's untouched +0.0; a partial accumulated from
/// +0.0 never becomes −0.0 under round-to-nearest, so adding +0.0
/// changes no value and skipping it is exact. Messages are still picked
/// up in sender order, as the receiver's clock awaits them, and reduced
/// once all have arrived.
pub fn scatter_add(cp: &mut ChaosProc, sched: &CommSchedule, width: usize, local: &mut [f64]) {
    let cost = cp.net().cost().clone();
    let (me, nprocs) = (cp.rank(), cp.nprocs());
    let _ex = cp.net().scope(me, StallCat::Exchange);
    cp.span_begin(SpanTag::Scatter);
    cp.compute(cost.pack(width * sched.ghost_count() * 8));
    let (owned, ghosts) = split(sched, width, local);
    let ghosts = &*ghosts;
    let out = (0..nprocs).filter(|&q| !sched.recv(q).is_empty()).map(|q| {
        let slots = sched.ghost_range(q);
        (
            q,
            ghosts[width * slots.start..width * slots.end]
                .iter()
                .copied(),
        )
    });
    // What each peer sent lands beside our send list to it (their recv
    // list from us == our send list to them); `sum` is the reduction.
    let mut scratch = vec![0.0; owned.len() + width * sched.traffic_elems()];
    let (sum, recvd) = scratch.split_at_mut(owned.len());
    let mut unpacked = 0usize;
    cp.exchange(MsgKind::Scatter, out, |from, vals| {
        let seg = sched.send_range(from);
        debug_assert_eq!(vals.len(), width * seg.len());
        unpacked += vals.len() * 8;
        for (r, v) in recvd[width * seg.start..].iter_mut().zip(vals) {
            *r = v;
        }
    });
    for q in (1..nprocs).map(|k| (me + nprocs - k) % nprocs) {
        let seg = sched.send_range(q);
        let slots = sched
            .send(q)
            .iter()
            .flat_map(|&o| width * o as usize..width * (o as usize + 1));
        for (i, &v) in slots.zip(&recvd[width * seg.start..width * seg.end]) {
            sum[i] += v;
        }
    }
    for (o, s) in owned.iter_mut().zip(sum) {
        *o += *s;
    }
    cp.compute(cost.pack(unpacked));
    cp.span_end(SpanTag::Scatter);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inspector::inspector;
    use crate::partition::block_partition;
    use crate::ttable::{TTable, TTableCache, TTableKind};
    use crate::world::ChaosWorld;
    use simnet::CostModel;

    /// 2 procs × 4 elements each; each references two remote elements,
    /// accumulates into them, scatters back.
    #[test]
    fn gather_compute_scatter_roundtrip() {
        let w = ChaosWorld::new(2, CostModel::default());
        let part = block_partition(8, 2);
        let tt = TTable::new(TTableKind::Replicated, &part);
        w.run(|cp| {
            let me = cp.rank();
            let mut cache = TTableCache::new();
            // Refs: my own elements + the other side's first two.
            let mine: Vec<u32> = (me as u32 * 4..me as u32 * 4 + 4).collect();
            let theirs: Vec<u32> = if me == 0 { vec![4, 5] } else { vec![0, 1] };
            let refs: Vec<u32> = mine.iter().chain(&theirs).copied().collect();
            let sched = inspector(cp, &tt, &mut cache, refs.iter().copied());

            // owned values: global id as f64
            let mut x: Vec<f64> = mine.iter().map(|&g| g as f64).collect();
            x.resize(sched.local_len(), 0.0);
            gather(cp, &sched, 1, &mut x);
            // Ghosts now hold the remote values.
            for &g in &theirs {
                assert_eq!(x[sched.localize(&tt, g) as usize], g as f64);
            }

            // Accumulate +10 into every referenced element, then scatter.
            let mut f = vec![0.0; sched.local_len()];
            for &g in &refs {
                f[sched.localize(&tt, g) as usize] += 10.0;
            }
            scatter_add(cp, &sched, 1, &mut f);
            // My elements 0,1 (locally) were touched by me once and by the
            // remote side once; elements 2,3 only by me.
            assert_eq!(f[..4], [20.0, 20.0, 10.0, 10.0]);
            cp.sync();
        });
        let rep = w.report();
        // gather: 2 msgs, scatter: 2 msgs, schedule: 2, sync: 2.
        assert_eq!(rep.messages_per_kind(simnet::MsgKind::Gather), 2);
        assert_eq!(rep.messages_per_kind(simnet::MsgKind::Scatter), 2);
        assert_eq!(rep.bytes_per_kind(simnet::MsgKind::Gather), 2 * 2 * 8);
    }

    /// Width 3: 3 procs × 3 triples each; every processor references
    /// every element, so each gathers and scatters whole triples to both
    /// peers, in one message per pair and direction.
    #[test]
    fn triples_gather_and_scatter_whole() {
        let w = ChaosWorld::new(3, CostModel::default());
        let part = block_partition(9, 3);
        let tt = TTable::new(TTableKind::Replicated, &part);
        let triple = |e: u32| [e as f64, 10.0 * e as f64, 100.0 * e as f64];
        let owned = w.run(|cp| {
            let me = cp.rank();
            let sched = inspector(cp, &tt, &mut TTableCache::new(), 0..9);
            assert_eq!((sched.owned(), sched.local_len()), (3, 9));
            let mut x = vec![[0.0; 3]; sched.local_len()];
            for (slot, e) in x.iter_mut().zip(part.range_of(me)) {
                *slot = triple(e as u32);
            }
            gather(cp, &sched, 3, x.as_flattened_mut());
            for e in 0..9 {
                assert_eq!(x[sched.localize(&tt, e) as usize], triple(e));
            }

            // Every processor adds its rank + 1 to every coordinate of
            // every element; each owner ends with 1 + 2 + 3 = 6.
            let mut f = vec![[me as f64 + 1.0; 3]; sched.local_len()];
            scatter_add(cp, &sched, 3, f.as_flattened_mut());
            f.truncate(sched.owned());
            f
        });
        assert!(owned.concat().iter().all(|&t| t == [6.0; 3]), "{owned:?}");
        let rep = w.report();
        // 6 ordered pairs, 3 triples of 8 B each per message.
        for kind in [MsgKind::Gather, MsgKind::Scatter] {
            assert_eq!(rep.messages_per_kind(kind), 6);
            assert_eq!(rep.bytes_per_kind(kind), 6 * 3 * 3 * 8);
        }
    }
}
