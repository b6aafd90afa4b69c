//! Property-based tests for partitioners, translation tables, and the
//! inspector/executor pair.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use proptest::prelude::*;

use chaos::{
    block_partition, gather, inspector, rcb_partition, reinspect, scatter_add, ChaosWorld, Ghosted,
    Partition, TTable, TTableCache, TTableKind,
};
use simnet::{
    with_trace_sink, CostModel, MsgKind, ProcId, SimTime, SpanTag, TraceEvent, TraceSink,
};

/// Positions with many ties (few distinct coordinates), so the
/// id tie-break of RCB's median split is exercised.
fn positions(n: usize) -> impl Strategy<Value = Vec<[f64; 3]>> {
    proptest::collection::vec((0u8..6, 0u8..6, 0u8..6), n).prop_map(|v| {
        v.into_iter()
            .map(|(x, y, z)| [x as f64, y as f64, z as f64])
            .collect()
    })
}

/// Block lengths of `part`, in processor order.
fn counts(part: &Partition) -> Vec<usize> {
    (0..part.nprocs()).map(|p| part.range_of(p).len()).collect()
}

/// A layout over `n` elements with arbitrary (possibly empty) blocks.
fn layouts(n: usize, nprocs: usize) -> impl Strategy<Value = Partition> {
    proptest::collection::vec(0..n + 1, nprocs - 1).prop_map(move |mut cuts| {
        cuts.sort_unstable();
        Partition::from_starts(std::iter::once(0).chain(cuts).chain([n]).collect())
    })
}

proptest! {
    #[test]
    fn partition_remap_is_bijective(pos in positions(64), nprocs in 1usize..9) {
        let (p, old_of) = rcb_partition(&pos, nprocs);
        prop_assert_eq!((p.nprocs(), p.len()), (nprocs, 64));
        // `old_of` is a permutation of the original ids …
        let mut seen = [false; 64];
        for &e in &old_of {
            prop_assert!(!std::mem::replace(&mut seen[e as usize], true));
        }
        // … ascending within each processor's block.
        for proc in 0..nprocs {
            let ids = &old_of[p.range_of(proc)];
            prop_assert!(ids.windows(2).all(|w| w[0] < w[1]), "{:?}", ids);
        }
    }

    #[test]
    fn block_and_cyclic_are_balanced(n in 1usize..200, nprocs in 1usize..9) {
        let part = block_partition(n, nprocs);
        prop_assert_eq!(part.len(), n);
        let c = counts(&part);
        let (max, min) = (c.iter().max().unwrap(), c.iter().min().unwrap());
        prop_assert!(max - min <= 1, "{:?}", c);
        // The larger blocks come first.
        prop_assert!(c.windows(2).all(|w| w[0] >= w[1]), "{:?}", c);
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
        let c = counts(&a.0);
        let max = c.iter().max().unwrap();
        let min = c.iter().min().unwrap();
        prop_assert!(max - min <= nprocs, "counts {:?}", c);
    }

    #[test]
    fn translation_table_agrees_with_partition(part in layouts(48, 3)) {
        for kind in [TTableKind::Replicated, TTableKind::Distributed] {
            let tt = TTable::new(kind, &part);
            for p in 0..3 {
                for (off, e) in part.range_of(p).enumerate() {
                    prop_assert_eq!(tt.translate_free(e as u32), (p, off as u32));
                }
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
fn fresh_gather(
    refs: &[Vec<u32>],
    part: &Partition,
    value: impl Fn(usize) -> f64 + Sync,
) -> Vec<Vec<f64>> {
    let nprocs = part.nprocs();
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
    let interior = (1..nprocs).map(|p| part_a.range_of(p).start + shift);
    let part_b = Partition::from_starts(std::iter::once(0).chain(interior).chain([n]).collect());
    assert_ne!(part_a, part_b, "the re-cut must move elements");
    let owner_a = |e: usize| (0..nprocs).find(|&p| part_a.range_of(p).contains(&e));

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
            let (part_b, my) = (&part_b, &my);
            let moving =
                move |q: usize| my.clone().filter(move |&e| part_b.range_of(q).contains(&e));
            let out = (0..nprocs)
                .filter(|&q| q != me && moving(q).next().is_some())
                .map(|q| (q, moving(q).map(|e| x_own[e - my.start])));
            let mut new_x = vec![0.0f64; new_my.len()];
            for e in new_my.clone() {
                if owner_a(e) == Some(me) {
                    new_x[e - new_my.start] = x_own[e - my.start];
                }
            }
            cp.exchange(MsgKind::Scatter, out, |from, mut vals| {
                for e in new_my.clone() {
                    if owner_a(e) == Some(from) {
                        new_x[e - new_my.start] = vals.next().expect("a value per moved element");
                    }
                }
                assert_eq!(vals.len(), 0, "migration payload fully consumed");
            });
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
    assert_eq!(
        rebalanced, fresh,
        "rebalanced reads must match fresh-inspected reads bitwise"
    );
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

/// One superstep's traffic: `plan[s]` is sender `s`'s deposits in
/// order, `(receiver, values)`.
type Plan<T> = Vec<Vec<(ProcId, Vec<T>)>>;

/// A random plan with up to five deposits per sender and up to four
/// values per deposit. Empty payloads and a receiver named twice by one
/// sender are forced into every plan with two or more processors.
fn random_plan<T>(
    rng: &mut proptest::TestRng,
    nprocs: usize,
    mut value: impl FnMut(&mut proptest::TestRng) -> T,
) -> Plan<T> {
    let mut plan: Plan<T> = (0..nprocs).map(|_| Vec::new()).collect();
    if nprocs < 2 {
        return plan;
    }
    for (s, deposits) in plan.iter_mut().enumerate() {
        for _ in 0..rng.below(6) {
            let to = (s + 1 + rng.below(nprocs as u64 - 1) as usize) % nprocs;
            let len = rng.below(5);
            deposits.push((to, (0..len).map(|_| value(&mut *rng)).collect()));
        }
    }
    plan[0].push((1, Vec::new()));
    plan[0].push((1, vec![value(&mut *rng)]));
    plan
}

/// `f64` values weighted toward the bit patterns a numeric round trip
/// could lose: NaNs with payloads, both zeros, infinities, subnormals.
fn wire_f64(rng: &mut proptest::TestRng) -> f64 {
    const SPECIAL: [u64; 7] = [
        0x7ff8_0000_0000_0001, // quiet NaN with a payload
        0xfff4_0000_dead_beef, // negative signalling NaN
        0x8000_0000_0000_0000, // -0.0
        0x0000_0000_0000_0000,
        0x7ff0_0000_0000_0000, // +inf
        0x0000_0000_0000_0001, // smallest subnormal
        0x800f_ffff_ffff_ffff, // largest negative subnormal
    ];
    match rng.below(3) {
        0 => f64::from_bits(SPECIAL[rng.below(SPECIAL.len() as u64) as usize]),
        _ => f64::from_bits(rng.next_u64()),
    }
}

/// What receiver `r` should get: every deposit addressed to it, by
/// sender, and in deposit order within a sender.
fn delivered<T: Copy, B>(
    plan: &Plan<T>,
    r: ProcId,
    bits: impl Fn(T) -> B,
) -> Vec<(ProcId, Vec<B>)> {
    plan.iter()
        .enumerate()
        .flat_map(|(s, deposits)| deposits.iter().map(move |d| (s, d)))
        .filter(|(_, (to, _))| *to == r)
        .map(|(s, (_, vals))| (s, vals.iter().map(|&v| bits(v)).collect()))
        .collect()
}

/// `(messages, values)` a plan sends.
fn traffic<T>(plan: &Plan<T>) -> (u64, u64) {
    let deposits = plan.iter().flatten();
    let values = deposits.clone().map(|(_, v)| v.len() as u64).sum();
    (deposits.count() as u64, values)
}

/// `ChaosProc::exchange` against a naive model, for `f64` and `u32`
/// payloads at 1, 2, 4 and 64 processors: each receiver gets every
/// message addressed to it by sender, then in deposit order, with its
/// values bit for bit; each deposit, empty or not, is one message of
/// `len × SIZE` bytes of its exchange's kind; and an exchange is two
/// rendezvous crossings.
#[test]
fn exchange_matches_a_naive_model() {
    for nprocs in [1usize, 2, 4, 64] {
        let name = format!("exchange_matches_a_naive_model/p{nprocs}");
        proptest::run_cases(&name, |rng| {
            let floats = random_plan(rng, nprocs, wire_f64);
            let words = random_plan(rng, nprocs, |rng| rng.next_u64() as u32);
            let w = ChaosWorld::new(nprocs, CostModel::default());
            let got = w.run(|cp| {
                let me = cp.rank();
                let (mut f, mut u) = (Vec::new(), Vec::new());
                let out = floats[me].iter().map(|(q, v)| (*q, v.iter().copied()));
                cp.exchange(MsgKind::Gather, out, |from, vals| {
                    f.push((from, vals.map(f64::to_bits).collect::<Vec<_>>()))
                });
                let out = words[me].iter().map(|(q, v)| (*q, v.iter().copied()));
                cp.exchange(MsgKind::Schedule, out, |from, vals| {
                    u.push((from, vals.collect::<Vec<u32>>()))
                });
                (f, u)
            });
            for (r, (f, u)) in got.iter().enumerate() {
                assert_eq!(
                    *f,
                    delivered(&floats, r, f64::to_bits),
                    "f64 to rank {r}/{nprocs}"
                );
                assert_eq!(*u, delivered(&words, r, |x| x), "u32 to rank {r}/{nprocs}");
            }
            let rep = w.report();
            let ((fm, fv), (um, uv)) = (traffic(&floats), traffic(&words));
            assert_eq!(rep.messages_per_kind(MsgKind::Gather), fm);
            assert_eq!(rep.bytes_per_kind(MsgKind::Gather), 8 * fv);
            assert_eq!(rep.messages_per_kind(MsgKind::Schedule), um);
            assert_eq!(rep.bytes_per_kind(MsgKind::Schedule), 4 * uv);
            assert_eq!((rep.messages, rep.bytes), (fm + um, 8 * fv + 4 * uv));
            assert_eq!(
                w.net().rendezvous().generation(),
                4,
                "two crossings per exchange"
            );
        });
    }
}
