//! Property-based tests for partitioners, translation tables, and the
//! inspector/executor pair.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use proptest::prelude::*;

use chaos::{
    assign_iterations_almost_owner, block_partition, cyclic_partition, gather, inspector,
    rcb_partition, reinspect, scatter_add, ChaosWorld, Ghosted, Partition, TTable, TTableCache,
    TTableKind,
};
use simnet::{
    with_trace_sink, CostModel, MsgKind, ProcId, SimTime, SpanTag, TraceEvent, TraceSink,
};

fn owners(n: usize, nprocs: usize) -> impl Strategy<Value = Vec<usize>> {
    proptest::collection::vec(0..nprocs, n)
}

proptest! {
    #[test]
    fn partition_remap_is_bijective(o in owners(64, 4)) {
        let p = Partition::from_owners(o, 4);
        let mut seen = [false; 64];
        for e in 0..64 {
            let k = p.new_of[e] as usize;
            prop_assert!(!seen[k]);
            seen[k] = true;
            prop_assert_eq!(p.old_of[k] as usize, e);
            prop_assert_eq!(p.owner_of_new(k), p.owner[e]);
        }
        prop_assert_eq!(p.counts.iter().sum::<usize>(), 64);
        // Remapped blocks are owner-contiguous and ascending.
        for proc in 0..4 {
            for k in p.range_of(proc) {
                prop_assert_eq!(p.owner_of_new(k), proc);
            }
        }
    }

    #[test]
    fn block_and_cyclic_are_balanced(n in 1usize..200, nprocs in 1usize..9) {
        for part in [block_partition(n, nprocs), cyclic_partition(n, nprocs)] {
            let max = part.counts.iter().max().unwrap();
            let min = part.counts.iter().min().unwrap();
            prop_assert!(max - min <= 1, "{:?}", part.counts);
        }
    }

    #[test]
    fn rcb_is_balanced_and_deterministic(
        seeds in proptest::collection::vec(0u64..1000, 32..128),
        nprocs in prop::sample::select(vec![2usize, 4, 8]),
    ) {
        let pos: Vec<[f64; 3]> = seeds
            .iter()
            .map(|&s| {
                let f = s as f64;
                [(f * 0.37).sin() * 50.0, (f * 0.73).cos() * 50.0, (f * 1.3).sin() * 50.0]
            })
            .collect();
        let a = rcb_partition(&pos, nprocs);
        let b = rcb_partition(&pos, nprocs);
        prop_assert_eq!(&a, &b);
        let max = a.counts.iter().max().unwrap();
        let min = a.counts.iter().min().unwrap();
        prop_assert!(max - min <= nprocs, "counts {:?}", a.counts);
    }

    #[test]
    fn translation_table_agrees_with_partition(o in owners(48, 3)) {
        let part = Partition::from_owners(o, 3);
        let tt = TTable::new(TTableKind::Replicated, &part);
        let mut next = [0u32; 3];
        for e in 0..48u32 {
            let (owner, off) = tt.translate_free(e);
            prop_assert_eq!(owner, part.owner[e as usize]);
            prop_assert_eq!(off, next[owner]);
            next[owner] += 1;
        }
    }

    #[test]
    fn almost_owner_computes_majority(o in owners(32, 4), iters in proptest::collection::vec(proptest::collection::vec(0u32..32, 1..5), 1..20)) {
        let part = Partition::from_owners(o, 4);
        let assign = assign_iterations_almost_owner(&part, iters.clone().into_iter());
        for (it, a) in iters.iter().zip(&assign) {
            // The chosen processor owns at least as many accessed
            // elements as any other processor.
            let count = |p: usize| it.iter().filter(|&&e| part.owner[e as usize] == p).count();
            let chosen = count(*a);
            for p in 0..4 {
                prop_assert!(chosen >= count(p));
            }
        }
    }
}

/// Counts `Reinspect` span events across all lanes (installed as the
/// simulated network's trace sink).
#[derive(Debug, Default)]
struct ReinspectSpans {
    begins: AtomicU64,
    ends: AtomicU64,
}

impl TraceSink for ReinspectSpans {
    fn record(&self, _p: ProcId, _t: SimTime, ev: TraceEvent) {
        match ev {
            TraceEvent::SpanBegin {
                tag: SpanTag::Reinspect,
            } => {
                self.begins.fetch_add(1, Ordering::Relaxed);
            }
            TraceEvent::SpanEnd {
                tag: SpanTag::Reinspect,
            } => {
                self.ends.fetch_add(1, Ordering::Relaxed);
            }
            _ => {}
        }
    }
}

/// Gather every processor's refs against `part` on a fresh world and
/// return the values read, in ref order per processor.
fn fresh_gather(refs: &[Vec<u32>], part: &Partition, value: impl Fn(usize) -> f64 + Sync) -> Vec<Vec<f64>> {
    let nprocs = part.counts.len();
    let tt = TTable::new(TTableKind::Replicated, part);
    let w = ChaosWorld::new(nprocs, CostModel::default());
    w.run(|cp| {
        let me = cp.rank();
        let my = part.range_of(me);
        let mut cache = TTableCache::new();
        let sched = inspector(cp, &tt, &mut cache, refs[me].iter().copied());
        let owned: Vec<f64> = my.map(&value).collect();
        let mut x = Ghosted::new(owned, &sched);
        gather(cp, &sched, &mut x);
        refs[me]
            .iter()
            .map(|&r| {
                let (o, off) = tt.translate_free(r);
                x.get(sched.locate(me, o, off))
            })
            .collect()
    })
}

/// The mid-run rebalance contract, end to end at the chaos layer:
/// inspect on partition A, gather, then re-cut to partition B — every
/// processor migrates the owned values it loses, `chaos::reinspect`
/// rebuilds the communication schedule against B — and gather again.
///
/// Claims: (1) post-rebalance reads are **bitwise** equal to a run
/// fresh-inspected on B from the start (migration moves the f64 bits
/// verbatim; re-inspection rebuilds routing, never data); (2) the
/// re-inspection is billed exactly once — the collective counter says
/// one pass, and the trace shows exactly one `Reinspect` span per lane,
/// so the span accounting and the counter agree.
#[test]
fn rebalance_matches_fresh_inspection_and_bills_reinspect_once() {
    let n = 64usize;
    let nprocs = 4usize;
    // Deterministic but irregular per-proc ref streams, with overlap
    // and duplicates (the inspector dedups them into the schedule).
    let refs: Vec<Vec<u32>> = (0..nprocs)
        .map(|me| {
            (0..20)
                .map(|k| ((me * 13 + 7 * k + k * k) % n) as u32)
                .collect()
        })
        .collect();
    let value = |e: usize| (e as f64) * 1.5 + 0.25;

    let part_a = block_partition(n, nprocs);
    // The re-cut: every interior boundary shifted forward half a block.
    let shift = n / nprocs / 2;
    let part_b = Partition::from_owners(
        (0..n).map(|e| (e.saturating_sub(shift) * nprocs / n).min(nprocs - 1)).collect(),
        nprocs,
    );
    assert_ne!(part_a.owner, part_b.owner, "the re-cut must move elements");

    let tt_a = TTable::new(TTableKind::Replicated, &part_a);
    let tt_b = TTable::new(TTableKind::Replicated, &part_b);
    let spans = Arc::new(ReinspectSpans::default());

    let (rebalanced, reinspections) = with_trace_sink(spans.clone(), || {
        let w = ChaosWorld::new(nprocs, CostModel::default());
        let reads: Vec<Vec<f64>> = w.run(|cp| {
            let me = cp.rank();
            let my = part_a.range_of(me);
            let mut cache = TTableCache::new();
            let sched = inspector(cp, &tt_a, &mut cache, refs[me].iter().copied());
            let mut x_own: Vec<f64> = my.clone().map(value).collect();
            let mut x = Ghosted::new(x_own.clone(), &sched);
            gather(cp, &sched, &mut x);
            for &r in &refs[me] {
                let (o, off) = tt_a.translate_free(r);
                assert_eq!(x.get(sched.locate(me, o, off)), value(r as usize));
            }

            // Rebalance: ship each owned value to its new owner …
            let new_my = part_b.range_of(me);
            let out: Vec<(usize, Vec<f64>)> = (0..nprocs)
                .filter(|&q| q != me)
                .map(|q| {
                    let vals: Vec<f64> = my
                        .clone()
                        .filter(|&e| part_b.owner[e] == q)
                        .map(|e| x_own[e - my.start])
                        .collect();
                    (q, vals)
                })
                .filter(|(_, vals)| !vals.is_empty())
                .collect();
            let incoming = cp.exchange_f64(MsgKind::Scatter, out);
            let mut new_x = vec![0.0f64; new_my.len()];
            for e in new_my.clone() {
                if part_a.owner[e] == me {
                    new_x[e - new_my.start] = x_own[e - my.start];
                }
            }
            for (from, vals) in incoming {
                let mut vi = 0;
                for e in new_my.clone() {
                    if part_a.owner[e] == from {
                        new_x[e - new_my.start] = vals[vi];
                        vi += 1;
                    }
                }
                assert_eq!(vi, vals.len(), "migration payload fully consumed");
            }
            x_own = new_x;

            // … and re-run the inspector against the new partition.
            let sched_b = reinspect(cp, &tt_b, &mut cache, refs[me].iter().copied());
            let mut x = Ghosted::new(x_own, &sched_b);
            gather(cp, &sched_b, &mut x);
            refs[me]
                .iter()
                .map(|&r| {
                    let (o, off) = tt_b.translate_free(r);
                    x.get(sched_b.locate(me, o, off))
                })
                .collect()
        });
        (reads, w.net().reinspections())
    });

    // (2) billed exactly once: one collective pass on the counter, one
    // span per lane in the trace — the two accountings agree.
    assert_eq!(reinspections, 1, "one rebalance = one re-inspection pass");
    assert_eq!(spans.begins.load(Ordering::Relaxed), nprocs as u64);
    assert_eq!(spans.ends.load(Ordering::Relaxed), nprocs as u64);

    // (1) bitwise equal to a run fresh-inspected on B from the start.
    let fresh = fresh_gather(&refs, &part_b, value);
    assert_eq!(rebalanced, fresh, "rebalanced reads must match fresh-inspected reads bitwise");
}

/// Gather/scatter round-trip under arbitrary cross-references: the sum
/// scattered back to owners equals the per-element reference count.
#[test]
fn executor_roundtrip_counts_references() {
    let n = 64usize;
    let nprocs = 4usize;
    let part = block_partition(n, nprocs);
    let tt = TTable::new(TTableKind::Replicated, &part);
    let w = ChaosWorld::new(nprocs, CostModel::default());
    let blocks = w.run(|cp| {
        let me = cp.rank();
        let my = part.range_of(me);
        // Every processor references elements me, me+5, me+10, ... (mod n),
        // plus all of its own.
        let mut refs: Vec<u32> = my.clone().map(|e| e as u32).collect();
        refs.extend((0..12).map(|k| ((me + 5 * k) % n) as u32));
        let mut cache = TTableCache::new();
        let sched = inspector(cp, &tt, &mut cache, refs.iter().copied());

        // Gather: values = global id.
        let owned: Vec<f64> = my.clone().map(|e| e as f64).collect();
        let mut x = Ghosted::new(owned, &sched);
        gather(cp, &sched, &mut x);
        for &r in &refs {
            let (o, off) = tt.translate_free(r);
            assert_eq!(x.get(sched.locate(me, o, off)), r as f64);
        }

        // Scatter: +1 per reference.
        let mut f = Ghosted::new(vec![0.0; my.len()], &sched);
        for &r in &refs {
            let (o, off) = tt.translate_free(r);
            f.add(sched.locate(me, o, off), 1.0);
        }
        scatter_add(cp, &sched, &mut f);
        f.owned
    });
    // Block partition: the owned blocks in rank order are the array.
    let got = blocks.concat();
    // Reference counts: 1 (owner) + number of procs referencing each elem.
    for (e, &g) in got.iter().enumerate() {
        let mut want = 1.0; // owner's own reference
        for me in 0..nprocs {
            for k in 0..12 {
                if (me + 5 * k) % n == e && !part.range_of(me).contains(&e) {
                    want += 1.0;
                }
            }
        }
        // own duplicates: (me+5k)%n may also hit own range — those were
        // deduplicated by the schedule but still contributed 1.0 each
        // via `f.add`.
        for me in 0..nprocs {
            if part.range_of(me).contains(&e) {
                for k in 0..12 {
                    if (me + 5 * k) % n == e {
                        want += 1.0;
                    }
                }
            }
        }
        assert_eq!(g, want, "element {e}");
    }
}
