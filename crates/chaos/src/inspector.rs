//! The inspector: turn a processor's access pattern into a communication
//! schedule (paper §4).
//!
//! "Each processor executes the inspector to construct its communication
//! schedule. ... An important optimization in the inspector is to
//! eliminate duplication. ... A hash table whose size is proportional to
//! the size of the data array is employed to eliminate duplicates.
//! Because of the time to hash the indirection array, and the time to
//! look up the translation table, the inspector can be expensive."
//!
//! That expense — charged here per hashed entry and per translation
//! lookup, plus translation-table traffic — is exactly what the paper's
//! comparison hinges on.

use std::ops::Range;

use simnet::{MsgKind, ProcId, SpanTag, StallCat};

use crate::ttable::{TTable, TTableCache};
use crate::world::ChaosProc;

/// A communication schedule: for each peer, which of *its* elements we
/// receive (gather) and which of *ours* we send (the mirror lists), and
/// the local layout they imply. A processor's local copy of a
/// distributed array is its owned block followed by one ghost slot per
/// received element, in receive-list order, and
/// [`CommSchedule::localize`] maps every reference to one index into it.
///
/// Both per-peer list families are flat CSR (one offsets array + one
/// backing array), not `Vec<Vec<u32>>`: a 256-processor schedule with a
/// handful of actual neighbors used to carry 256 heap allocations per
/// direction; now it carries two.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CommSchedule {
    /// The elements this processor owned at inspection: local slots
    /// `0..owned()`.
    owned: Range<u32>,
    /// Backing array of receive lists: local offsets (at the owner) of
    /// the elements we receive, ascending per owner, concatenated in
    /// owner order. `ghost_starts` is its CSR offsets array — the ghost
    /// area and the receive lists correspond slot for slot by
    /// construction, which also makes `recv_idx` the whole ghost
    /// directory: a remote element's ghost slot is its position here,
    /// recovered by binary search within its owner's segment (each
    /// segment is sorted).
    recv_idx: Vec<u32>,
    /// CSR offsets into `send_idx`: peer `q`'s segment is
    /// `send_idx[send_starts[q]..send_starts[q+1]]`.
    send_starts: Vec<u32>,
    /// Backing array of send lists: local offsets (ours) of the
    /// elements we send to each peer in a gather (and
    /// receive-and-accumulate in a scatter).
    send_idx: Vec<u32>,
    /// Start of each peer's segment in the ghost area — also the CSR
    /// offsets of `recv_idx`.
    ghost_starts: Vec<u32>,
}

impl CommSchedule {
    /// Elements this processor owns: the first `owned()` local slots.
    pub fn owned(&self) -> usize {
        self.owned.len()
    }

    pub fn ghost_count(&self) -> usize {
        self.recv_idx.len()
    }

    /// Slots in a local array: the owned block, then the ghosts.
    pub fn local_len(&self) -> usize {
        self.owned() + self.ghost_count()
    }

    /// Positions in the ghost area of the elements we receive from `q`.
    /// Empty for unknown peers (e.g. a default schedule).
    #[inline]
    pub(crate) fn ghost_range(&self, q: ProcId) -> Range<usize> {
        match self.ghost_starts.get(q..=q + 1) {
            Some(&[a, b]) => a as usize..b as usize,
            _ => 0..0,
        }
    }

    /// Local offsets (at `q`) of the elements we receive from `q`,
    /// ascending.
    #[inline]
    pub fn recv(&self, q: ProcId) -> &[u32] {
        &self.recv_idx[self.ghost_range(q)]
    }

    /// Positions in the concatenated send lists of the elements we send
    /// to `q`. Empty for unknown peers.
    #[inline]
    pub(crate) fn send_range(&self, q: ProcId) -> Range<usize> {
        match self.send_starts.get(q..=q + 1) {
            Some(&[a, b]) => a as usize..b as usize,
            _ => 0..0,
        }
    }

    /// Local offsets (ours) of the elements we send to `q`.
    #[inline]
    pub fn send(&self, q: ProcId) -> &[u32] {
        &self.send_idx[self.send_range(q)]
    }

    /// The local slot of element `e` (a global id under `tt`, the table
    /// the schedule was inspected with): its offset in the owned block,
    /// or `owned()` plus its ghost slot — a binary search within its
    /// owner's (sorted) receive segment. Panics if `e` is neither owned
    /// nor scheduled.
    #[inline]
    pub fn localize(&self, tt: &TTable, e: u32) -> u32 {
        if self.owned.contains(&e) {
            return e - self.owned.start;
        }
        let (owner, off) = tt.translate_free(e);
        let seg = self.ghost_range(owner);
        match self.recv_idx[seg.clone()].binary_search(&off) {
            Ok(pos) => (self.owned() + seg.start + pos) as u32,
            Err(_) => panic!("localize: element {e} ({owner}, {off}) not in schedule"),
        }
    }

    /// Total elements moved per gather/scatter.
    pub fn traffic_elems(&self) -> usize {
        self.send_idx.len()
    }
}

/// Duplicate elimination with deterministic first-seen order — the
/// paper's "hash table whose size is proportional to the size of the
/// data array", realized as a dense bitmap over element ids: one
/// test-and-set per access, consuming the iterator directly so the
/// access stream is never materialized. Returns `(total accesses,
/// first-seen distinct list)`.
fn dedup_first_seen(accesses: impl Iterator<Item = u32>, words: usize) -> (usize, Vec<u32>) {
    let mut seen = vec![0u64; words];
    let mut distinct = Vec::new();
    let mut total = 0usize;
    for e in accesses {
        total += 1;
        let (word, bit) = ((e / 64) as usize, e % 64);
        if seen[word] & (1 << bit) == 0 {
            seen[word] |= 1 << bit;
            distinct.push(e);
        }
    }
    (total, distinct)
}

/// The schedule exchange: send each owner the offsets we want from it;
/// the wants we receive are our send lists, folded into CSR form.
///
/// Accumulates with `+=`, not assignment: the exchange delivers by
/// sender but does **not** promise each sender appears once — a peer
/// that deposited two messages in the superstep delivers two in a row,
/// and an assignment would keep only the last one.
fn exchange_wants<'a>(
    cp: &mut ChaosProc,
    wants: impl IntoIterator<Item = (ProcId, &'a [u32])>,
) -> (Vec<u32>, Vec<u32>) {
    let nprocs = cp.nprocs();
    let mut send_starts = vec![0u32; nprocs + 1];
    let mut send_idx = Vec::new();
    let out = wants.into_iter().map(|(q, w)| (q, w.iter().copied()));
    cp.exchange(MsgKind::Schedule, out, |from, w| {
        send_starts[from + 1] += w.len() as u32;
        send_idx.extend(w);
    });
    for q in 0..nprocs {
        send_starts[q + 1] += send_starts[q];
    }
    (send_starts, send_idx)
}

/// Run the inspector (collective): bitmap-dedup `accesses` (original
/// element ids), translate them, and build the communication schedule.
///
/// Charges: one hash per access (including duplicates — that is the
/// point of the hash table), translation lookups/traffic per the table
/// kind, and one schedule-exchange message per communicating pair.
/// The cache is unused (see [`TTableCache`]).
pub fn inspector(
    cp: &mut ChaosProc,
    ttable: &TTable,
    _cache: &mut TTableCache,
    accesses: impl Iterator<Item = u32>,
) -> CommSchedule {
    let me = cp.rank();
    let nprocs = cp.nprocs();
    let cost = cp.net().cost().clone();
    let _ins = cp.net().scope(me, StallCat::Inspector);
    cp.span_begin(SpanTag::Inspect);

    // Duplicate elimination (see `dedup_first_seen`): one O(1) bitmap
    // test-and-set per access. The simulated cost is a function of the
    // access count alone.
    cp.span_begin(SpanTag::Dedup);
    let (total, distinct) = dedup_first_seen(accesses, ttable.len().div_ceil(64));
    cp.span_end(SpanTag::Dedup);
    cp.compute(cost.inspector_hash(total));

    // Translate (collective for non-replicated tables).
    cp.span_begin(SpanTag::Translate);
    let translated = ttable.lookup_batch(cp, &distinct);
    cp.span_end(SpanTag::Translate);

    // Receive lists in CSR form: the remote (owner, offset) pairs,
    // sorted, are already the per-owner segments (ascending offsets
    // within each owner) laid out back to back. The sorted vector is
    // also the ghost directory (slot = position), so nothing else is
    // built.
    let mut remote: Vec<(ProcId, u32)> = translated
        .into_iter()
        .filter(|&(owner, _)| owner != me)
        .collect();
    remote.sort_unstable();
    remote.dedup();
    let recv_idx: Vec<u32> = remote.iter().map(|&(_, off)| off).collect();
    let mut ghost_starts = vec![0u32; nprocs + 1];
    for &(owner, _) in &remote {
        ghost_starts[owner + 1] += 1;
    }
    for q in 0..nprocs {
        ghost_starts[q + 1] += ghost_starts[q];
    }

    // Schedule exchange: tell each owner what we need; what we receive
    // back (as requests from others) becomes our send lists.
    let wants = (0..nprocs)
        .map(|q| {
            (
                q,
                &recv_idx[ghost_starts[q] as usize..ghost_starts[q + 1] as usize],
            )
        })
        .filter(|(_, w)| !w.is_empty());
    let (send_starts, send_idx) = exchange_wants(cp, wants);

    cp.span_end(SpanTag::Inspect);
    let owned = ttable.range_of(me);
    CommSchedule {
        owned: owned.start as u32..owned.end as u32,
        recv_idx,
        send_starts,
        send_idx,
        ghost_starts,
    }
}

/// Re-run the inspector because the *partition* moved under the
/// schedule — a mid-run rebalance re-cut data ownership, so the old
/// [`CommSchedule`] went stale with no list change of its own. CHAOS
/// must detect this and pay inspection again; this wrapper makes that
/// payment auditable: the whole collective sits inside a `Reinspect`
/// trace span on every lane, and rank 0 bills it once on the shared
/// re-inspection counter ([`simnet::Net::reinspections`]) so tests can
/// assert "billed exactly once" against the span count.
pub fn reinspect(
    cp: &mut ChaosProc,
    ttable: &TTable,
    cache: &mut TTableCache,
    accesses: impl Iterator<Item = u32>,
) -> CommSchedule {
    cp.span_begin(SpanTag::Reinspect);
    if cp.rank() == 0 {
        cp.net().add_reinspection();
    }
    let sched = inspector(cp, ttable, cache, accesses);
    cp.span_end(SpanTag::Reinspect);
    sched
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::block_partition;
    use crate::ttable::TTableKind;
    use crate::world::ChaosWorld;
    use simnet::CostModel;

    /// 2 procs, 8 elements block-partitioned; each proc references its
    /// own 4 plus two of the other's (with duplicates).
    fn run_inspector() -> (u64, u64) {
        let w = ChaosWorld::new(2, CostModel::default());
        let part = block_partition(8, 2);
        let tt = TTable::new(TTableKind::Replicated, &part);
        w.run(|cp| {
            let me = cp.rank();
            let mut cache = TTableCache::new();
            let refs: Vec<u32> = if me == 0 {
                vec![0, 1, 2, 3, 4, 5, 4, 5, 4] // dups on 4, 5
            } else {
                vec![4, 5, 6, 7, 0, 1, 0]
            };
            let sched = inspector(cp, &tt, &mut cache, refs.iter().copied());
            assert_eq!(sched.ghost_count(), 2);
            if me == 0 {
                assert_eq!(sched.recv(1), [0, 1]); // q1-local offsets of 4,5
                assert_eq!(sched.send(1), [0, 1]); // my 0,1 (q1 wants)
                assert_eq!((sched.owned(), sched.local_len()), (4, 6));
                assert_eq!(sched.localize(&tt, 2), 2);
                assert_eq!(sched.localize(&tt, 4), 4); // first ghost slot
                assert_eq!(sched.localize(&tt, 5), 5);
            } else {
                assert_eq!(sched.recv(0), [0, 1]);
                assert_eq!(sched.traffic_elems(), 2);
                assert!(sched.recv(7).is_empty(), "out-of-range peer is empty");
            }
        });
        let r = w.report();
        (r.messages, r.bytes)
    }

    #[test]
    fn inspector_builds_symmetric_schedule() {
        let (msgs, _) = run_inspector();
        // One schedule message each way.
        assert_eq!(msgs, 2);
    }

    #[test]
    fn inspector_deterministic() {
        assert_eq!(run_inspector(), run_inspector());
    }

    #[test]
    fn send_csr_accumulates_duplicate_senders() {
        // Regression: the exchange sorts by sender but a sender may
        // appear twice; the old `send_starts[from + 1] = wants.len()`
        // assignment kept only the last message (starts [0,1,1,2],
        // idx [1,2,3,7] — a corrupt CSR).
        let w = ChaosWorld::new(3, CostModel::default());
        let csr = w.run(|cp| {
            let wants: &[(ProcId, &[u32])] = match cp.rank() {
                0 => &[(1, &[1, 2]), (1, &[3])],
                2 => &[(1, &[7])],
                _ => &[],
            };
            exchange_wants(cp, wants.iter().copied())
        });
        assert_eq!(csr[1], (vec![0, 3, 3, 4], vec![1, 2, 3, 7]));
        assert_eq!(csr[0], (vec![0; 4], vec![]));
    }

    #[test]
    fn dedup_matches_the_hashset_oracle() {
        // Dense in dups and adversarial about order (a descending tail
        // revisits every id after its first sighting).
        let accesses: Vec<u32> = (0..17_384usize)
            .map(|i| ((i * 7919 + i / 3) % 4096) as u32)
            .chain((0..4096).rev())
            .collect();
        let mut seen = std::collections::HashSet::new();
        let oracle: Vec<u32> = accesses
            .iter()
            .copied()
            .filter(|&e| seen.insert(e))
            .collect();
        let (total, distinct) = dedup_first_seen(accesses.iter().copied(), 64);
        assert_eq!(total, accesses.len(), "every access counted, dups included");
        assert_eq!(distinct, oracle, "first-seen order");
    }

    #[test]
    #[should_panic(expected = "not in schedule")]
    fn localize_rejects_unscheduled_element() {
        let w = ChaosWorld::new(2, CostModel::default());
        let part = block_partition(8, 2);
        let tt = TTable::new(TTableKind::Replicated, &part);
        let sched = std::sync::Mutex::new(CommSchedule::default());
        w.run(|cp| {
            let mut cache = TTableCache::new();
            let s = inspector(cp, &tt, &mut cache, [4u32].iter().copied());
            if cp.rank() == 0 {
                *sched.lock().unwrap() = s;
            }
        });
        // Rank 0 scheduled element 4 (q1's offset 0), never element 7.
        sched.into_inner().unwrap().localize(&tt, 7);
    }

    #[test]
    fn dedup_reduces_ghosts_not_hash_cost() {
        // Duplicates are hashed (cost) but appear once in the schedule.
        let w = ChaosWorld::new(2, CostModel::default());
        let part = block_partition(4, 2);
        let tt = TTable::new(TTableKind::Replicated, &part);
        w.run(|cp| {
            let mut cache = TTableCache::new();
            let refs = if cp.rank() == 0 {
                vec![2u32; 100] // one distinct remote element, 100 dups
            } else {
                vec![1u32]
            };
            let t0 = cp.now();
            let sched = inspector(cp, &tt, &mut cache, refs.iter().copied());
            if cp.rank() == 0 {
                assert_eq!(sched.ghost_count(), 1);
                let hash_cost = cp.net().cost().inspector_hash(100);
                assert!(cp.now() - t0 >= hash_cost, "all 100 entries hashed");
            }
        });
    }
}
