//! An independent oracle for the garbage-collection path: random
//! barrier-only SPMD programs at 4, 16 and 64 processors, whose every
//! read must equal a plain reference memory — the last value written
//! before the previous barrier. Each page has one to three writers on
//! disjoint words, and readers skip random epochs, so their copies fall
//! behind the fold horizon and come back through master-copy refills
//! that carry records newer than the horizon.

use std::cell::Cell;

use proptest::prelude::*;

use dsm::{Cluster, DsmConfig};

/// `u64` words per 64-byte page.
const WORDS: usize = 8;

/// A random barrier-only program: epoch `e` is "read, then write, then
/// barrier".
#[derive(Debug)]
struct Program {
    nprocs: usize,
    /// Each page's one to three distinct writers: writer `k` of `n` owns
    /// the page's words `w` with `w % n == k`.
    writers: Vec<Vec<usize>>,
    /// `writes[e][page][k]`: writer `k` of `page` stores its words in
    /// epoch `e`.
    writes: Vec<Vec<Vec<bool>>>,
    /// `reads[e][q]`: processor `q` reads every word in epoch `e`. There
    /// is one more read epoch than write epochs, in which everyone reads.
    reads: Vec<Vec<bool>>,
}

impl Program {
    fn new(nprocs: usize, seed: u64) -> Program {
        let mut s = seed;
        let mut below = move |n: usize| {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (s >> 33) as usize % n
        };
        let (npages, epochs) = (1 + below(4), 4 + below(5));
        let writers: Vec<Vec<usize>> = (0..npages)
            .map(|_| {
                let mut w = Vec::new();
                for _ in 0..1 + below(3) {
                    let q = below(nprocs);
                    if !w.contains(&q) {
                        w.push(q);
                    }
                }
                w
            })
            .collect();
        let mut writes = Vec::new();
        for _ in 0..epochs {
            let per_page = writers.iter();
            writes.push(
                per_page
                    .map(|w| w.iter().map(|_| below(2) == 0).collect())
                    .collect(),
            );
        }
        let mut reads: Vec<Vec<bool>> = (0..epochs)
            .map(|_| (0..nprocs).map(|_| below(3) == 0).collect())
            .collect();
        reads.push(vec![true; nprocs]);
        Program {
            nprocs,
            writers,
            writes,
            reads,
        }
    }

    /// Every store of epoch `e`: `(writer, word index, value)`.
    fn stores(&self, e: usize) -> Vec<(usize, usize, u64)> {
        let mut out = Vec::new();
        let Some(writes) = self.writes.get(e) else {
            return out;
        };
        for (page, ws) in self.writers.iter().enumerate() {
            for (k, &q) in ws.iter().enumerate().filter(|&(k, _)| writes[page][k]) {
                for w in (k..WORDS).step_by(ws.len()) {
                    let value = ((e as u64 + 1) << 32) | ((q as u64) << 8) | w as u64;
                    out.push((q, page * WORDS + w, value));
                }
            }
        }
        out
    }

    /// What every read of each epoch must see: memory as of the end of
    /// the previous epoch.
    fn reference(&self) -> Vec<Vec<u64>> {
        let mut mem = vec![0u64; self.writers.len() * WORDS];
        let mut seen = Vec::new();
        for e in 0..self.reads.len() {
            seen.push(mem.clone());
            for (_, i, v) in self.stores(e) {
                mem[i] = v;
            }
        }
        seen
    }

    /// Run the program on a fresh cluster, checking every read against
    /// the reference; returns the summed master-copy fetches.
    fn run(&self) -> u64 {
        let expect = self.reference();
        let cl = Cluster::new(DsmConfig {
            nprocs: self.nprocs,
            page_size: 64,
            ..DsmConfig::default()
        });
        let mem = cl.alloc::<u64>(expect[0].len());
        let fetches = cl.run(|p| {
            let me = p.rank();
            for (e, seen) in expect.iter().enumerate() {
                if self.reads[e][me] {
                    for (i, &want) in seen.iter().enumerate() {
                        assert_eq!(p.read(&mem, i), want, "proc {me}, epoch {e}, word {i}");
                    }
                }
                for (q, i, v) in self.stores(e) {
                    if q == me {
                        p.write(&mem, i, v);
                    }
                }
                p.barrier();
            }
            p.counters().master_fetches
        });
        fetches.iter().sum()
    }
}

#[test]
fn every_read_matches_a_reference_memory_across_gc() {
    let strat = (prop::sample::select(vec![4usize, 16, 64]), any::<u64>());
    let name = "gc_oracle::every_read_matches_a_reference_memory_across_gc";
    let fetches = Cell::new(0);
    proptest::run_shard(name, 0, 1, &strat, |(nprocs, seed)| {
        fetches.set(fetches.get() + Program::new(nprocs, seed).run());
    });
    assert!(
        fetches.get() > 0,
        "no master-copy fetch: the GC path went unexercised"
    );
}
