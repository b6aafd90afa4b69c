//! Translation tables: the irregular element → (home processor, offset)
//! map (paper §4).
//!
//! "Depending on storage requirements, the translation table can be
//! replicated, distributed regularly, or stored in a paged fashion."
//! The *contents* are identical either way; what differs is the cost of a
//! lookup: replicated tables answer locally, distributed tables answer
//! remote lookups with batched request/reply messages (this is why the
//! paper's moldyn inspector moves 85 MB — they could not afford the
//! replicated table), and paged tables fetch and cache whole table pages.

use std::collections::HashSet;

use simnet::{MsgKind, ProcId};

use crate::partition::Partition;
use crate::world::ChaosProc;

/// Table organization (costs only; semantics identical).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TTableKind {
    /// Full copy on every processor: local lookups, O(n) memory each.
    Replicated,
    /// Entry `e` stored on processor `e / block`: remote lookups batch
    /// one request/reply per owning processor.
    Distributed,
    /// Like `Distributed`, but lookups fetch and cache whole pages of
    /// `entries_per_page` entries.
    Paged { entries_per_page: usize },
}

/// Per-processor lookup cache (meaningful for `Paged`).
#[derive(Debug, Default)]
pub struct TTableCache {
    pages: HashSet<u32>,
}

impl TTableCache {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn cached_pages(&self) -> usize {
        self.pages.len()
    }
}

/// One request message per storer from storer-sorted `(storer, value)`
/// pairs: each run of equal storers, its values in `flat`'s order.
fn by_storer(
    flat: &[(ProcId, u32)],
) -> impl Iterator<Item = (ProcId, impl Iterator<Item = u32> + '_)> {
    flat.chunk_by(|a, b| a.0 == b.0)
        .map(|run| (run[0].0, run.iter().map(|e| e.1)))
}

/// A reply of `n` table words (8 B each). Its content is never read:
/// every kind answers from the same local entries, so only the traffic
/// differs.
fn reply_words(
    asked: &[(ProcId, usize)],
) -> impl Iterator<Item = (ProcId, impl Iterator<Item = u64>)> + '_ {
    asked.iter().map(|&(q, n)| (q, std::iter::repeat_n(0u64, n)))
}

/// The translation table.
#[derive(Debug, Clone)]
pub struct TTable {
    kind: TTableKind,
    /// `(owner, local offset)` per original element id.
    entries: Vec<(u8, u32)>,
    nprocs: usize,
    /// For Distributed/Paged: entries per storing processor.
    block: usize,
}

impl TTable {
    /// Build from a partition (owner + dense local offsets).
    pub fn new(kind: TTableKind, part: &Partition) -> Self {
        let mut next = vec![0u32; part.nprocs()];
        let entries = part
            .owner
            .iter()
            .map(|&o| {
                let off = next[o];
                next[o] += 1;
                (o as u8, off)
            })
            .collect();
        TTable {
            kind,
            entries,
            nprocs: part.nprocs(),
            block: part.len().div_ceil(part.nprocs()),
        }
    }

    pub fn kind(&self) -> TTableKind {
        self.kind
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Memory footprint per processor, in bytes (the reason the paper
    /// could not replicate moldyn's table).
    pub fn bytes_per_proc(&self) -> usize {
        match self.kind {
            TTableKind::Replicated => self.entries.len() * 8,
            _ => self.block * 8,
        }
    }

    /// Which processor stores entry `e` (non-replicated kinds).
    fn storer(&self, e: u32) -> ProcId {
        ((e as usize) / self.block).min(self.nprocs - 1)
    }

    /// The pure local map `id → (owner, offset)` every table kind ends
    /// a lookup batch with. (Simulated lookup costs are charged by the
    /// caller.)
    fn translate_all(&self, ids: &[u32]) -> Vec<(ProcId, u32)> {
        ids.iter()
            .map(|&e| {
                let (o, off) = self.entries[e as usize];
                (o as ProcId, off)
            })
            .collect()
    }

    /// Translate a batch of (deduplicated) element ids, charging lookup
    /// costs and — for non-replicated tables — the remote-lookup traffic.
    ///
    /// All processors participating in an inspection must call this
    /// collectively (the underlying exchange is a BSP superstep).
    pub fn lookup_batch(
        &self,
        cp: &mut ChaosProc,
        ids: &[u32],
        cache: &mut TTableCache,
    ) -> Vec<(ProcId, u32)> {
        let me = cp.rank();
        let cost = cp.net().cost().clone();
        match self.kind {
            TTableKind::Replicated => {
                // Purely local: every processor holds the whole table.
                // (Non-replicated kinds are collective: every processor
                // must call lookup_batch in the same superstep.)
                cp.compute(cost.translate(ids.len()));
                self.translate_all(ids)
            }
            TTableKind::Distributed => {
                // Superstep 1 — requests: group remote ids by storing
                // processor, 4 B per id. Flat sort-and-group, not a
                // `Vec<Vec<u32>>` scratch of nprocs allocations: the
                // stable sort keys only on the storer, so each group
                // keeps the caller's id order.
                let mut flat: Vec<(ProcId, u32)> = ids
                    .iter()
                    .map(|&e| (self.storer(e), e))
                    .filter(|&(s, _)| s != me)
                    .collect();
                flat.sort_by_key(|&(s, _)| s);
                let mut asked = Vec::new();
                cp.exchange(MsgKind::Translate, by_storer(&flat), |from, req| {
                    asked.push((from, req.len()));
                });
                // Superstep 2 — replies: each storer answers with 8 B per
                // requested entry (owner + offset), charging its own
                // lookup work.
                let served: usize = asked.iter().map(|&(_, n)| n).sum();
                cp.compute(cost.translate(served));
                cp.exchange(MsgKind::Translate, reply_words(&asked), |_, _| {});
                cp.compute(cost.translate(ids.len()));
                self.translate_all(ids)
            }
            TTableKind::Paged { entries_per_page } => {
                // Superstep 1 — page requests for uncached table pages,
                // grouped by storer the same flat way as `Distributed`.
                let mut flat: Vec<(ProcId, u32)> = Vec::new();
                for &e in ids {
                    let page = e / entries_per_page as u32;
                    let s = self.storer(e);
                    if s != me && cache.pages.insert(page) {
                        flat.push((s, page));
                    }
                }
                flat.sort_by_key(|&(s, _)| s);
                let mut asked = Vec::new();
                cp.exchange(MsgKind::Translate, by_storer(&flat), |from, pages| {
                    asked.push((from, pages.len() * entries_per_page));
                });
                // Superstep 2 — whole table pages come back.
                cp.exchange(MsgKind::Translate, reply_words(&asked), |_, _| {});
                cp.compute(cost.translate(ids.len()));
                self.translate_all(ids)
            }
        }
    }

    /// Direct (uncosted) translation — for verification and test oracles.
    pub fn translate_free(&self, e: u32) -> (ProcId, u32) {
        let (o, off) = self.entries[e as usize];
        (o as ProcId, off)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::block_partition;
    use crate::world::ChaosWorld;
    use simnet::CostModel;

    #[test]
    fn table_matches_partition() {
        let part = block_partition(10, 3);
        let t = TTable::new(TTableKind::Replicated, &part);
        assert_eq!(t.translate_free(0), (0, 0));
        assert_eq!(t.translate_free(3), (0, 3));
        assert_eq!(t.translate_free(4), (1, 0));
        assert_eq!(t.translate_free(9), (2, 2));
        assert!(t.bytes_per_proc() > TTable::new(TTableKind::Distributed, &part).bytes_per_proc());
    }

    #[test]
    fn replicated_lookup_no_messages() {
        let part = block_partition(64, 2);
        let t = TTable::new(TTableKind::Replicated, &part);
        let w = ChaosWorld::new(2, CostModel::default());
        w.run(|cp| {
            let mut cache = TTableCache::new();
            let ids: Vec<u32> = (0..64).collect();
            let r = t.lookup_batch(cp, &ids, &mut cache);
            assert_eq!(r[40], (1, 8));
        });
        assert_eq!(w.report().messages_per_kind(MsgKind::Translate), 0);
    }

    #[test]
    fn distributed_lookup_batches_messages() {
        let part = block_partition(64, 2);
        let t = TTable::new(TTableKind::Distributed, &part);
        let w = ChaosWorld::new(2, CostModel::default());
        w.run(|cp| {
            let mut cache = TTableCache::new();
            // Each proc asks about 8 entries stored on the other side.
            let ids: Vec<u32> = if cp.rank() == 0 {
                (32..40).collect()
            } else {
                (0..8).collect()
            };
            let r = t.lookup_batch(cp, &ids, &mut cache);
            assert_eq!(r.len(), 8);
        });
        let rep = w.report();
        // One request + one reply per direction.
        assert_eq!(rep.messages_per_kind(MsgKind::Translate), 4);
    }

    #[test]
    fn paged_lookup_caches() {
        let part = block_partition(64, 2);
        let t = TTable::new(
            TTableKind::Paged {
                entries_per_page: 16,
            },
            &part,
        );
        let w = ChaosWorld::new(2, CostModel::default());
        w.run(|cp| {
            let mut cache = TTableCache::new();
            let ids: Vec<u32> = if cp.rank() == 0 { vec![40, 41, 42] } else { vec![1] };
            t.lookup_batch(cp, &ids, &mut cache);
            if cp.rank() == 0 {
                assert_eq!(cache.cached_pages(), 1, "one page covers 40-42");
            }
            // Second lookup: everything cached, empty superstep.
            t.lookup_batch(cp, &ids, &mut cache);
        });
        let rep = w.report();
        assert_eq!(rep.messages_per_kind(MsgKind::Translate), 4);
    }
}
