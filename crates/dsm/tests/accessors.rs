//! An equivalence oracle for the page-run accessors: one random
//! barrier-only program runs on two identical clusters, element by
//! element (`read` / `write` / `update`) on one and through
//! `read_array` / `read_slice` / `write_slice` / `update_slice` on the
//! other. Every value read, every rank's `ProcCounters` and clock after
//! every epoch, every watch report and the whole protocol event stream
//! must agree: a bulk accessor may only skip page checks that cannot
//! fault.
//!
//! The programs mix `i32` and `f64` regions (one a sub-slice that starts
//! mid-page) on 64–256 B pages, so ranges and `read_array`s cross page
//! boundaries; every rank writes between barriers; some ranks arm a
//! `Validate`-style write watch on random pages or bring pages in with
//! an aggregated fetch before their accesses.

use std::fmt::Debug;
use std::sync::{Arc, Mutex};

use proptest::prelude::*;

use dsm::{Cluster, DsmConfig, FetchClass, Pod, ProcCounters, SharedSlice, TmkProc};
use simnet::{with_trace_sink, ProcId, SimTime, TraceEvent, TraceSink};

/// Every event the cluster's `Net` reports, in order.
#[derive(Debug, Default)]
struct Recorder(Mutex<Vec<(ProcId, u64, TraceEvent)>>);

impl TraceSink for Recorder {
    fn record(&self, p: ProcId, t: SimTime, ev: TraceEvent) {
        self.0.lock().unwrap().push((p, t.as_ns(), ev));
    }
}

/// An element type of the programs: its values and how they log.
trait Val: Pod + Debug {
    /// The value a write with `seed` stores at element `i`.
    fn make(seed: u64, i: usize) -> Self;
    /// The update applied to element `i`.
    fn step(i: usize, v: Self) -> Self;
    fn bits(self) -> u64;
}

impl Val for i32 {
    fn make(seed: u64, i: usize) -> i32 {
        (seed as i32).wrapping_add(i as i32)
    }
    fn step(i: usize, v: i32) -> i32 {
        v.wrapping_mul(3).wrapping_add(i as i32)
    }
    fn bits(self) -> u64 {
        self as u32 as u64
    }
}

impl Val for f64 {
    fn make(seed: u64, i: usize) -> f64 {
        (seed % 1000) as f64 + i as f64 * 0.25
    }
    fn step(i: usize, v: f64) -> f64 {
        v * 0.5 + i as f64
    }
    fn bits(self) -> u64 {
        self.to_bits()
    }
}

/// One access of one rank, on region `r` (0: `i32`, 1: `f64`, 2: an
/// `f64` sub-slice starting mid-page).
#[derive(Debug, Clone)]
enum Op {
    Read {
        r: usize,
        lo: usize,
        hi: usize,
    },
    /// `read_array` of 2 (`i32`) or 3 (`f64`) elements from `i`.
    Array {
        r: usize,
        i: usize,
    },
    Write {
        r: usize,
        lo: usize,
        hi: usize,
        seed: u64,
    },
    Update {
        r: usize,
        lo: usize,
        hi: usize,
    },
}

/// What one rank does in one epoch, before its barrier.
#[derive(Debug, Clone, Default)]
struct Step {
    /// Pages brought in by one aggregated fetch first.
    prefetch: Vec<u32>,
    /// Pages the rank's write watch is (re-)armed on first.
    watch: Vec<u32>,
    ops: Vec<Op>,
}

#[derive(Debug)]
struct Program {
    nprocs: usize,
    page_size: usize,
    /// Element counts of the `i32` and `f64` regions.
    lens: [usize; 2],
    /// Where the sub-slice of the `f64` region starts.
    sub_off: usize,
    /// `steps[e][q]`.
    steps: Vec<Vec<Step>>,
}

/// A seeded linear congruential stream.
struct Lcg(u64);

impl Lcg {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.0 >> 33) as usize % n.max(1)
    }

    /// Up to `k` distinct pages below `npages`, sorted.
    fn pages(&mut self, k: usize, npages: usize) -> Vec<u32> {
        let mut v: Vec<u32> = (0..k).map(|_| self.below(npages) as u32).collect();
        v.sort_unstable();
        v.dedup();
        v
    }
}

impl Program {
    fn new(nprocs: usize, page_size: usize, seed: u64) -> Program {
        let mut g = Lcg(seed);
        let lens = [
            (1 + g.below(4)) * page_size / 4 + g.below(page_size / 4),
            (2 + g.below(3)) * page_size / 8 + g.below(page_size / 8),
        ];
        let sub_off = 1 + g.below(page_size / 8 - 1);
        let npages = (lens[0] * 4).div_ceil(page_size) + (lens[1] * 8).div_ceil(page_size);
        let region_len = |r: usize| if r == 2 { lens[1] - sub_off } else { lens[r] };
        let epochs = 2 + g.below(4);
        let step = |g: &mut Lcg| {
            let prefetch = if g.below(4) == 0 {
                g.pages(3, npages)
            } else {
                Vec::new()
            };
            let watch = if g.below(3) == 0 {
                g.pages(2, npages)
            } else {
                Vec::new()
            };
            let ops = (0..g.below(6))
                .map(|_| {
                    let r = g.below(3);
                    let len = region_len(r);
                    let lo = g.below(len);
                    let hi = (lo + g.below(3 * page_size / 8)).min(len);
                    match g.below(4) {
                        0 => Op::Read { r, lo, hi },
                        1 => Op::Array {
                            r,
                            i: g.below(len - 2),
                        },
                        2 => Op::Write {
                            r,
                            lo,
                            hi,
                            seed: g.below(1 << 20) as u64,
                        },
                        _ => Op::Update { r, lo, hi },
                    }
                })
                .collect();
            Step {
                prefetch,
                watch,
                ops,
            }
        };
        let steps = (0..epochs)
            .map(|_| (0..nprocs).map(|_| step(&mut g)).collect())
            .collect();
        Program {
            nprocs,
            page_size,
            lens,
            sub_off,
            steps,
        }
    }
}

/// One access of `op` on `s`, element by element or in page runs,
/// logging every value read.
fn access<T: Val, const N: usize>(
    p: &mut TmkProc,
    s: &SharedSlice<T>,
    op: &Op,
    bulk: bool,
    log: &mut Vec<u64>,
) {
    match *op {
        Op::Read { lo, hi, .. } if bulk => {
            let mut out = vec![T::make(0, 0); hi - lo];
            p.read_slice(s, lo, &mut out);
            log.extend(out.into_iter().map(T::bits));
        }
        Op::Read { lo, hi, .. } => log.extend((lo..hi).map(|i| p.read(s, i).bits())),
        Op::Array { i, .. } if bulk => log.extend(p.read_array::<T, N>(s, i).map(T::bits)),
        Op::Array { i, .. } => log.extend((i..i + N).map(|k| p.read(s, k).bits())),
        Op::Write { lo, hi, seed, .. } if bulk => {
            let vals: Vec<T> = (lo..hi).map(|i| T::make(seed, i)).collect();
            p.write_slice(s, lo, &vals);
        }
        Op::Write { lo, hi, seed, .. } => {
            for i in lo..hi {
                p.write(s, i, T::make(seed, i));
            }
        }
        Op::Update { lo, hi, .. } if bulk => p.update_slice(s, lo..hi, T::step),
        Op::Update { lo, hi, .. } => {
            for i in lo..hi {
                p.update(s, i, |v| T::step(i, v));
            }
        }
    }
}

/// Everything a run can observe, per rank: the values read, and after
/// every epoch the watch report, the counters and the clock.
type Observed = Vec<(Vec<u64>, Vec<(bool, ProcCounters, u64)>)>;

fn run(prog: &Program, bulk: bool) -> (Observed, Vec<(ProcId, u64, TraceEvent)>) {
    let rec = Arc::new(Recorder::default());
    let mut cfg = DsmConfig::with_nprocs(prog.nprocs);
    cfg.page_size = prog.page_size;
    let cl = with_trace_sink(rec.clone(), || Cluster::new(cfg));
    let ints = cl.alloc::<i32>(prog.lens[0]);
    let floats = cl.alloc::<f64>(prog.lens[1]);
    let sub = floats.slice(prog.sub_off, prog.lens[1] - prog.sub_off);
    let observed = cl.run(|p| {
        let me = p.rank();
        let key = p.new_watch();
        let (mut log, mut epochs) = (Vec::new(), Vec::new());
        for step in &prog.steps {
            let step = &step[me];
            if !step.prefetch.is_empty() {
                p.fetch_pages(&step.prefetch, FetchClass::Aggregated);
            }
            p.watch_pages(key, step.watch.iter().copied());
            for op in &step.ops {
                match op {
                    Op::Read { r: 0, .. }
                    | Op::Array { r: 0, .. }
                    | Op::Write { r: 0, .. }
                    | Op::Update { r: 0, .. } => access::<i32, 2>(p, &ints, op, bulk, &mut log),
                    Op::Read { r: 1, .. }
                    | Op::Array { r: 1, .. }
                    | Op::Write { r: 1, .. }
                    | Op::Update { r: 1, .. } => access::<f64, 3>(p, &floats, op, bulk, &mut log),
                    _ => access::<f64, 3>(p, &sub, op, bulk, &mut log),
                }
            }
            p.barrier();
            let watch = p.take_modified(key);
            epochs.push((watch, p.counters().clone(), p.now().as_ns()));
        }
        (log, epochs)
    });
    drop(cl);
    let events = std::mem::take(&mut *rec.0.lock().unwrap());
    (observed, events)
}

proptest! {
    #[test]
    fn page_run_accessors_match_element_wise_access(
        nprocs in 2usize..5,
        page_size in proptest::sample::select(vec![64usize, 128, 256]),
        seed in any::<u64>(),
    ) {
        let prog = Program::new(nprocs, page_size, seed);
        let (want, want_events) = run(&prog, false);
        let (got, got_events) = run(&prog, true);
        prop_assert!(!want_events.is_empty());
        prop_assert_eq!(got, want, "{:?}", prog);
        prop_assert_eq!(got_events, want_events, "{:?}", prog);
    }
}
