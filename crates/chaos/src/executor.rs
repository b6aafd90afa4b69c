//! The executor: schedule-driven gather and scatter (paper §4).
//!
//! "The executor uses the communication schedule generated by the
//! inspector to gather and scatter data. Gather fetches off-processor
//! data, and scatter propagates modifications to off-processor data back
//! to their owners."

use simnet::{MsgKind, SpanTag, StallCat, TraceEvent};

use crate::inspector::{CommSchedule, Loc};
use crate::world::ChaosProc;

/// A processor's view of one distributed data array: the owned block
/// plus ghost slots laid out by the schedule.
#[derive(Debug, Clone)]
pub struct Ghosted {
    pub owned: Vec<f64>,
    pub ghosts: Vec<f64>,
}

impl Ghosted {
    pub fn new(owned: Vec<f64>, sched: &CommSchedule) -> Self {
        Ghosted {
            owned,
            ghosts: vec![0.0; sched.ghost_count()],
        }
    }

    /// Read via a resolved location.
    #[inline]
    pub fn get(&self, loc: Loc) -> f64 {
        match loc {
            Loc::Own(o) => self.owned[o as usize],
            Loc::Ghost(g) => self.ghosts[g as usize],
        }
    }

    /// Accumulate into a resolved location (reduction pattern).
    #[inline]
    pub fn add(&mut self, loc: Loc, v: f64) {
        match loc {
            Loc::Own(o) => self.owned[o as usize] += v,
            Loc::Ghost(g) => self.ghosts[g as usize] += v,
        }
    }

    /// Zero the ghost slots (before an accumulate phase).
    pub fn clear_ghosts(&mut self) {
        self.ghosts.iter_mut().for_each(|g| *g = 0.0);
    }
}

/// Gather: owners push the elements named in the schedule; ghosts fill.
/// One message per communicating pair (collective).
pub fn gather(cp: &mut ChaosProc, sched: &CommSchedule, data: &mut Ghosted) {
    let cost = cp.net().cost().clone();
    let me = cp.rank();
    let _ex = cp.net().scope(me, StallCat::Exchange);
    cp.net().trace(
        me,
        TraceEvent::SpanBegin {
            tag: SpanTag::Gather,
        },
    );
    cp.compute(cost.pack(sched.traffic_elems() * 8));
    let (owned, ghosts) = (&data.owned, &mut data.ghosts);
    let out = (0..cp.nprocs())
        .filter(|&q| !sched.send(q).is_empty())
        .map(|q| (q, sched.send(q).iter().map(|&o| owned[o as usize])));
    let mut unpacked = 0usize;
    cp.exchange(MsgKind::Gather, out, |from, vals| {
        let start = sched.ghost_starts[from] as usize;
        debug_assert_eq!(vals.len(), sched.recv(from).len());
        unpacked += vals.len() * 8;
        for (g, v) in ghosts[start..].iter_mut().zip(vals) {
            *g = v;
        }
    });
    cp.compute(cost.pack(unpacked));
    cp.net().trace(
        me,
        TraceEvent::SpanEnd {
            tag: SpanTag::Gather,
        },
    );
}

/// Scatter-add: push accumulated ghost contributions back to the owners,
/// which add them into their owned elements. One message per pair.
pub fn scatter_add(cp: &mut ChaosProc, sched: &CommSchedule, data: &mut Ghosted) {
    let cost = cp.net().cost().clone();
    let me = cp.rank();
    let _ex = cp.net().scope(me, StallCat::Exchange);
    cp.net().trace(
        me,
        TraceEvent::SpanBegin {
            tag: SpanTag::Scatter,
        },
    );
    cp.compute(cost.pack(sched.ghost_count() * 8));
    let (owned, ghosts) = (&mut data.owned, &data.ghosts);
    let out = (0..cp.nprocs())
        .filter(|&q| !sched.recv(q).is_empty())
        .map(|q| {
            let start = sched.ghost_starts[q] as usize;
            (
                q,
                ghosts[start..start + sched.recv(q).len()].iter().copied(),
            )
        });
    let mut unpacked = 0usize;
    cp.exchange(MsgKind::Scatter, out, |from, vals| {
        // Their recv list from us == our send list to them.
        let list = sched.send(from);
        debug_assert_eq!(vals.len(), list.len());
        for (&off, v) in list.iter().zip(vals) {
            owned[off as usize] += v;
        }
        unpacked += list.len() * 8;
    });
    cp.compute(cost.pack(unpacked));
    cp.net().trace(
        me,
        TraceEvent::SpanEnd {
            tag: SpanTag::Scatter,
        },
    );
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
            let owned: Vec<f64> = mine.iter().map(|&g| g as f64).collect();
            let mut x = Ghosted::new(owned, &sched);
            gather(cp, &sched, &mut x);
            // Ghosts now hold the remote values.
            for &g in &theirs {
                let (o, off) = tt.translate_free(g);
                assert_eq!(x.get(sched.locate(me, o, off)), g as f64);
            }

            // Accumulate +10 into every referenced element, then scatter.
            let mut f = Ghosted::new(vec![0.0; 4], &sched);
            for &g in &refs {
                let (o, off) = tt.translate_free(g);
                f.add(sched.locate(me, o, off), 10.0);
            }
            scatter_add(cp, &sched, &mut f);
            // My elements 0,1 (locally) were touched by me once and by the
            // remote side once; elements 2,3 only by me.
            assert_eq!(f.owned, vec![20.0, 20.0, 10.0, 10.0]);
            cp.sync();
        });
        let rep = w.report();
        // gather: 2 msgs, scatter: 2 msgs, schedule: 2, sync: 2.
        assert_eq!(rep.messages_per_kind(simnet::MsgKind::Gather), 2);
        assert_eq!(rep.messages_per_kind(simnet::MsgKind::Scatter), 2);
        assert_eq!(rep.bytes_per_kind(simnet::MsgKind::Gather), 2 * 2 * 8);
    }

    #[test]
    fn ghost_clear() {
        let sched = CommSchedule::default();
        let mut g = Ghosted::new(vec![1.0], &sched);
        assert!(g.ghosts.is_empty());
        g.clear_ghosts();
        assert_eq!(g.owned, vec![1.0]);
    }
}
