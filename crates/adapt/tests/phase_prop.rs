//! Property: on random multi-phase access sequences, the phase-keyed
//! policy never issues more messages than base TreadMarks, and the
//! results stay bitwise identical.
//!
//! The generator builds a random *cycle* of barrier positions — each
//! position a distinct phase tag with a random write set (producer) and
//! random per-reader read sets — and repeats it verbatim. That is the
//! multi-barrier app shape (moldyn's step loop is exactly such a cycle)
//! with the access pattern of each site held constant, which is the
//! regime the predictor is *supposed* to capture exactly: every
//! `(page, phase)` axis is constant-need, every lock is a true gap-1
//! cycle, and no prefetch is ever wasted — so message counts can only
//! go down. Failing seeds replay via `PROPTEST_TEST`/`PROPTEST_SEED`
//! (printed on failure by the proptest shim).
//!
//! Reads follow the barrier that invalidated the page *within its
//! epoch* (each position reads from its own write set plus the
//! never-written cold pool) — the access shape every barrier app in
//! this repo has. A reader that instead lags an invalidation by
//! several barriers drifts into the record store's GC-fold horizon,
//! where base demand paging gets multi-interval coalescing for free
//! (one master-page fetch covers everything folded so far) while an
//! eager prefetch, by construction never behind, pays one exchange per
//! interval: on such access shapes demand paging can legitimately beat
//! prefetching on message count, and no predictor choice changes that
//! — so the property is stated over the prompt-read regime.

use adapt::AdaptivePolicy;
use dsm::{Cluster, DsmConfig};
use proptest::prelude::*;

/// One barrier position of the cycle: pages proc 0 rewrites before the
/// barrier, and the pages each reader touches right after it.
#[derive(Debug, Clone)]
struct Position {
    writes: Vec<usize>,
    reads: Vec<Vec<usize>>, // per reader rank 1..nprocs
}

const PAGES: usize = 6;
const ELEMS_PER_PAGE: usize = 512; // f64s per 4 KB page
const CYCLES: usize = 8;

fn positions(nprocs: usize) -> impl Strategy<Value = Vec<Position>> {
    let page_set = || proptest::collection::vec(0..PAGES, 0..PAGES);
    let pos = (
        page_set(),
        proptest::collection::vec(page_set(), nprocs - 1),
    );
    proptest::collection::vec(pos, 1..4).prop_map(|raw| {
        // The cold pool: pages no position ever writes (read-only data).
        let written: Vec<usize> = raw.iter().flat_map(|(w, _)| w.iter().copied()).collect();
        raw.into_iter()
            .map(|(mut writes, reads)| {
                writes.sort_unstable();
                writes.dedup();
                let reads = reads
                    .into_iter()
                    .map(|mut r| {
                        // Prompt-read regime: this epoch reads its own
                        // freshly invalidated pages and cold pages.
                        r.retain(|pg| writes.contains(pg) || !written.contains(pg));
                        r.sort_unstable();
                        r.dedup();
                        r
                    })
                    .collect();
                Position { writes, reads }
            })
            .collect()
    })
}

/// Run the cycle workload on one cluster — with the adaptive engine in
/// pull (`Some(false)`) or push (`Some(true)`) mode, or none; returns
/// (checksum, messages).
fn run(cycle: &[Position], nprocs: usize, push: Option<bool>) -> (f64, u64) {
    let cl = Cluster::new(DsmConfig::with_nprocs(nprocs));
    let data = cl.alloc::<f64>(PAGES * ELEMS_PER_PAGE);
    if let Some(push) = push {
        cl.run(|p| p.set_policy(Box::new(AdaptivePolicy::new(push))));
    }

    let sums = cl.run(|p| {
        let me = p.rank();
        let mut acc = 0.0f64;
        for c in 0..CYCLES {
            for (i, pos) in cycle.iter().enumerate() {
                if me == 0 {
                    for &pg in &pos.writes {
                        // Rewrite the page head: same pages every cycle,
                        // fresh values (so readers must refetch).
                        p.write(&data, pg * ELEMS_PER_PAGE, (c * 31 + i * 7 + pg) as f64);
                    }
                }
                // Distinct stable tag per cycle position: the multi-
                // barrier loop body.
                p.barrier_tagged(1 + i as u32);
                if me > 0 {
                    for &pg in &cycle[i].reads[me - 1] {
                        acc += p.read(&data, pg * ELEMS_PER_PAGE);
                    }
                }
            }
        }
        acc
    });
    let total: f64 = sums.iter().sum();
    (total, cl.report().messages)
}

proptest! {
    #[test]
    fn phase_keyed_policy_never_exceeds_base(cycle in positions(3)) {
        let nprocs = 3;
        let (base_sum, base_msgs) = run(&cycle, nprocs, None);
        let (ad_sum, ad_msgs) = run(&cycle, nprocs, Some(false));
        let (push_sum, push_msgs) = run(&cycle, nprocs, Some(true));
        // The policy only moves fetches; every build reads identical data.
        prop_assert_eq!(ad_sum.to_bits(), base_sum.to_bits());
        prop_assert_eq!(push_sum.to_bits(), base_sum.to_bits());
        // Constant per-phase patterns are captured exactly: aggregation
        // and quiesce can only remove messages, never add them.
        prop_assert!(
            ad_msgs <= base_msgs,
            "adaptive {} > base {} on cycle {:?}",
            ad_msgs,
            base_msgs,
            cycle
        );
        // Push additionally halves each predicted exchange; even with
        // its one-way subscription traffic billed it stays within base.
        prop_assert!(
            push_msgs <= base_msgs,
            "push {} > base {} on cycle {:?}",
            push_msgs,
            base_msgs,
            cycle
        );
    }
}
