//! An independent oracle for the garbage-collection path: random
//! barrier-only SPMD programs at 4, 16 and 64 processors, whose every
//! read must equal a plain reference memory — the last value written
//! before the previous barrier. Each page has one to three writers on
//! disjoint words, and readers skip random epochs, so their copies fall
//! behind the fold horizon and come back through master-copy refills
//! that carry records newer than the horizon. Past the plain-diff path:
//! in some epochs one writer of a page rewrites every word under
//! `mark_full_write` (a `Full` record that prunes older ones and can
//! make the master copy unnecessary), some epochs write nothing at all,
//! and some readers bring every page in with one aggregated fetch before
//! reading.

use std::cell::Cell;

use proptest::prelude::*;

use dsm::{Cluster, DsmConfig, FetchClass};

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
    /// epoch `e`. All false in an epoch that writes nothing.
    writes: Vec<Vec<Vec<bool>>>,
    /// `full[e][page]`: `Some(k)` — writer `k` alone rewrites every word
    /// of `page` in epoch `e`, under `mark_full_write`.
    full: Vec<Vec<Option<usize>>>,
    /// `reads[e][q]`: processor `q` reads every word in epoch `e`. There
    /// is one more read epoch than write epochs, in which everyone reads.
    reads: Vec<Vec<bool>>,
    /// `prefetch[e][q]`: a reading `q` first fetches every page in one
    /// aggregated exchange.
    prefetch: Vec<Vec<bool>>,
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
        let (mut writes, mut full) = (Vec::new(), Vec::new());
        for _ in 0..epochs {
            let quiet = below(4) == 0;
            let mut w_e = Vec::new();
            let mut f_e = Vec::new();
            for w in &writers {
                let rewrite = (!quiet && below(4) == 0).then(|| below(w.len()));
                let diff = |_| !quiet && rewrite.is_none() && below(2) == 0;
                w_e.push(w.iter().map(diff).collect());
                f_e.push(rewrite);
            }
            writes.push(w_e);
            full.push(f_e);
        }
        let mut reads: Vec<Vec<bool>> = (0..epochs)
            .map(|_| (0..nprocs).map(|_| below(3) == 0).collect())
            .collect();
        reads.push(vec![true; nprocs]);
        let prefetch = (0..=epochs)
            .map(|_| (0..nprocs).map(|_| below(2) == 0).collect())
            .collect();
        Program {
            nprocs,
            writers,
            writes,
            full,
            reads,
            prefetch,
        }
    }

    /// The pages `q` rewrites whole in epoch `e`.
    fn full_writes(&self, e: usize, q: usize) -> impl Iterator<Item = usize> + '_ {
        let full = self.full.get(e).map_or(&[][..], Vec::as_slice);
        let writers = &self.writers;
        full.iter()
            .enumerate()
            .filter(move |&(page, k)| k.is_some_and(|k| writers[page][k] == q))
            .map(|(page, _)| page)
    }

    /// Every store of epoch `e`: `(writer, word index, value)`.
    fn stores(&self, e: usize) -> Vec<(usize, usize, u64)> {
        let mut out = Vec::new();
        let Some(writes) = self.writes.get(e) else {
            return out;
        };
        let value = |q: usize, w: usize| ((e as u64 + 1) << 32) | ((q as u64) << 8) | w as u64;
        for (page, ws) in self.writers.iter().enumerate() {
            if let Some(k) = self.full[e][page] {
                let q = ws[k];
                out.extend((0..WORDS).map(|w| (q, page * WORDS + w, value(q, w))));
                continue;
            }
            for (k, &q) in ws.iter().enumerate().filter(|&(k, _)| writes[page][k]) {
                for w in (k..WORDS).step_by(ws.len()) {
                    out.push((q, page * WORDS + w, value(q, w)));
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
    /// the reference; returns the summed master-copy fetches and full
    /// pages published.
    fn run(&self) -> (u64, u64) {
        let expect = self.reference();
        let cl = Cluster::new(DsmConfig {
            nprocs: self.nprocs,
            page_size: 64,
            ..DsmConfig::default()
        });
        let mem = cl.alloc::<u64>(expect[0].len());
        let pages: Vec<u32> = (0..self.writers.len() as u32).collect();
        let counts = cl.run(|p| {
            let me = p.rank();
            for (e, seen) in expect.iter().enumerate() {
                if self.reads[e][me] {
                    if self.prefetch[e][me] {
                        p.fetch_pages(&pages, FetchClass::Aggregated);
                    }
                    for (i, &want) in seen.iter().enumerate() {
                        assert_eq!(p.read(&mem, i), want, "proc {me}, epoch {e}, word {i}");
                    }
                }
                for page in self.full_writes(e, me) {
                    p.mark_full_write(&[page as u32]);
                }
                for (q, i, v) in self.stores(e) {
                    if q == me {
                        p.write(&mem, i, v);
                    }
                }
                p.barrier();
            }
            (p.counters().master_fetches, p.counters().fulls_published)
        });
        counts
            .iter()
            .fold((0, 0), |(m, f), &(dm, df)| (m + dm, f + df))
    }
}

#[test]
fn every_read_matches_a_reference_memory_across_gc() {
    let strat = (prop::sample::select(vec![4usize, 16, 64]), any::<u64>());
    let name = "gc_oracle::every_read_matches_a_reference_memory_across_gc";
    let (fetches, fulls) = (Cell::new(0), Cell::new(0));
    proptest::run_shard(name, 0, 1, &strat, |(nprocs, seed)| {
        let (m, f) = Program::new(nprocs, seed).run();
        fetches.set(fetches.get() + m);
        fulls.set(fulls.get() + f);
    });
    assert!(
        fetches.get() > 0,
        "no master-copy fetch: the GC path went unexercised"
    );
    assert!(fulls.get() > 0, "no full page published");
}
