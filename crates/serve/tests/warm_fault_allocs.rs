//! Allocation tripwire for the DSM fetch path and `Validate`: a warm
//! fault allocates nothing, neither does a warm `Validate` whose
//! schedule is unchanged, and a warm run of each parallel variant on the
//! quick grid's static uniform cells allocates exactly its pinned count.
//! In its own process so the [`serve::alloc::Counting`]
//! counters see only this test's traffic, and one test function because
//! those counters are process-global. Every simulated processor of a
//! cluster runs on the calling OS thread, so each delta below is exact.

use std::sync::atomic::{AtomicU64, Ordering};

use apps::workload::{Variant, Workload};
use dsm::{Cluster, DsmConfig, EpochDecision, FetchClass, ProtocolPolicy, SharedSlice, TmkProc};
use sdsm_core::{validate, AccessType, Desc, Dim, RegionRef, Rsd, Validator};
use simnet::SimTime;
use synth::{Dynamics, Prepared, Structure, SynthConfig};

#[global_allocator]
static ALLOC: serve::alloc::Counting = serve::alloc::Counting;

const NPROCS: usize = 64;
const PAGE: usize = 256;
const PER_PAGE: usize = PAGE / 8;
/// Pages owned (written) by each rank.
const OWN: usize = 4;
/// The barrier site whose epochs rank 0's policy answers with a push.
const PUSH_PHASE: u32 = 7;

/// Allocation count when rank 0's policy decided its last push round:
/// the push window runs from there to the end of that barrier.
static PUSH_START: AtomicU64 = AtomicU64::new(0);

/// Update-push every page of ranks 2..=9 at each `PUSH_PHASE` barrier.
#[derive(Debug)]
struct PushNeighbours;

impl ProtocolPolicy for PushNeighbours {
    fn epoch_end(&mut self, phase: u32, _invalidated: &[u32]) -> EpochDecision {
        if phase != PUSH_PHASE {
            return EpochDecision::none();
        }
        let picks = pages_of(2..=9);
        PUSH_START.store(serve::alloc::allocations(), Ordering::Relaxed);
        EpochDecision {
            picks,
            defer: false,
            push: true,
            events: Vec::new(),
        }
    }
}

fn pages_of(ranks: std::ops::RangeInclusive<usize>) -> Vec<u32> {
    ranks
        .flat_map(|r| (r * OWN..(r + 1) * OWN).map(|pg| pg as u32))
        .collect()
}

/// Allocations made by `f`.
fn allocs<R>(f: impl FnOnce() -> R) -> u64 {
    let a0 = serve::alloc::allocations();
    std::hint::black_box(f());
    serve::alloc::allocations() - a0
}

/// Every rank dirties one word on each page it owns.
fn write_own(p: &mut TmkProc, x: &SharedSlice<f64>, v: f64) {
    for pg in p.rank() * OWN..(p.rank() + 1) * OWN {
        p.write(x, pg * PER_PAGE, v);
    }
}

/// Rank 0's view of one run: allocation deltas of each fetch kind, in
/// the order `[demand, master, aggregated, prefetch, push]`, and its
/// master-copy fetches.
fn run(cl: &Cluster) -> ([u64; 5], u64) {
    let x = cl.alloc::<f64>(NPROCS * OWN * PER_PAGE);
    let (agg, pre) = (pages_of(2..=5), pages_of(6..=9));
    let rank0 = cl.run(|p| {
        let me = p.rank();
        if me == 0 {
            p.set_policy(Box::new(PushNeighbours));
        }
        let mut d = [0u64; 5];
        write_own(p, &x, 1.0);
        p.barrier();
        if me == 0 {
            // Rank 1's first page: one writer, one request/reply.
            d[0] = allocs(|| p.read(&x, OWN * PER_PAGE));
            d[2] = allocs(|| p.fetch_pages(&agg, FetchClass::Aggregated));
            d[3] = allocs(|| p.fetch_pages(&pre, FetchClass::Prefetch));
        }
        // Two more barriers fold the first interval into the master
        // copies; rank 10's page, untouched by rank 0 since, now comes
        // from its manager.
        p.barrier();
        p.barrier();
        if me == 0 {
            d[1] = allocs(|| p.read(&x, 10 * OWN * PER_PAGE));
        }
        // Two push rounds of the same schedule: the first teaches the
        // writers (subscription state grows), the second is steady.
        for round in 0..2 {
            if (2..=9).contains(&me) {
                write_own(p, &x, 2.0 + round as f64);
            }
            p.barrier_tagged(PUSH_PHASE);
            if me == 0 {
                d[4] = serve::alloc::allocations() - PUSH_START.load(Ordering::Relaxed);
            }
            // Ranks the scheduler resumes before rank 0 run up to here
            // inside rank 0's push window: nothing dirty, nothing to
            // allocate.
            p.barrier();
        }
        (d, p.counters().master_fetches)
    });
    let report = cl.net().policy_report();
    assert_eq!(report.push_rounds, 2, "both push rounds happened");
    assert!(report.subscriptions > 0, "the first round subscribed");
    rank0[0]
}

/// Processors, page size, value-array length and list entries per
/// processor of the `Validate` case: the quick synth cell's geometry.
const VPROCS: usize = 4;
const VPAGE: usize = 512;
const VN: usize = 1024;
const CAP: usize = 384;

/// Each rank's allocations in a warm `validate` of the relaxation kernel's
/// descriptor pair — endpoint reads through its section of the shared
/// list, and its `READ&WRITE_ALL` block of the value array — as
/// `(unchanged schedule, rescan after a list rewrite, indirection pages
/// in the section)`.
fn validate_allocs() -> Vec<(u64, u64, usize)> {
    let cl = Cluster::new(DsmConfig {
        nprocs: VPROCS,
        page_size: VPAGE,
        cost: Default::default(),
    });
    let x = cl.alloc::<f64>(VN);
    let ilist = cl.alloc::<i32>(2 * CAP * VPROCS);
    cl.run(|p| {
        let me = p.rank();
        let (my, start) = (me * VN / VPROCS..(me + 1) * VN / VPROCS, me * CAP);
        let write_list = |p: &mut TmkProc, salt: usize| {
            for k in 2 * start..2 * (start + CAP) {
                p.write(&ilist, k, ((k * 37 + salt) % VN + 1) as i32);
            }
        };
        let section = vec![
            Dim::dense(1, 2),
            Dim::dense(start as i64 + 1, (start + CAP) as i64),
        ];
        let descs = [
            Desc::Indirect {
                data: RegionRef::of(&x),
                ind: ilist,
                ind_dims: vec![2, CAP * VPROCS],
                section: Rsd::new(section),
                access: AccessType::Read,
                sched: 1,
            },
            Desc::Direct {
                data: RegionRef::of(&x),
                section: Rsd::dense1(my.start as i64 + 1, my.end as i64),
                access: AccessType::ReadWriteAll,
                sched: 2,
            },
        ];
        // One kernel iteration: Validate, the owner-side update, barrier.
        let iteration = |p: &mut TmkProc, v: &mut Validator| {
            let n = allocs(|| validate(p, v, &descs));
            for i in my.clone() {
                p.write(&x, i, i as f64);
            }
            p.barrier();
            n
        };
        let mut v = Validator::new();
        write_list(p, 0);
        p.barrier();
        for _ in 0..3 {
            iteration(p, &mut v); // the cold scan, then scratch sizing
        }
        let unchanged = iteration(p, &mut v);
        write_list(p, 1);
        p.barrier();
        let rescan = iteration(p, &mut v);
        assert_eq!(
            v.schedule(1).unwrap().recomputes,
            2,
            "one cold scan, one rescan"
        );
        let pages = ilist.page_runs(2 * start..2 * (start + CAP), VPAGE).count();
        (unchanged, rescan, pages)
    })
}

fn static_cell() -> SynthConfig {
    // The quick grid's 64-processor scale cell (`synth::scenario_grid`).
    let mut cfg = SynthConfig::quick(Structure::Uniform, Dynamics::Static);
    cfg.nprocs = 64;
    cfg.n = 8192;
    cfg.refs = 12288;
    cfg.iters = 6;
    cfg
}

/// Exact allocations of one warm run per `(cell, variant)`, the same in
/// debug and release builds. Keying intervals by barrier epoch took 99
/// from each Tmk variant at 4 processors and 903 at 64 — one vector
/// clock and one notice page list per interval, and one fold-horizon
/// snapshot per barrier that advanced it. CHAOS storing its values
/// straight into reused inboxes, instead of a value, a byte and a
/// decoded vector per message, and the relaxation kernel keeping one ghosted
/// array and accumulator per rank took a warm CHAOS run from 701 to 161
/// at 4 processors and from 91 390 to 2 628 at 64. Dropping the
/// scenario label each run stamped on its `Net` and copied into its
/// report took 7 from every row, and the loss model's per-processor
/// draw counters one more from CHAOS, which builds its world, and so
/// its `Net`, per run. `Read_indices` keeping one data-page bitmap per
/// schedule, instead of one per indirection page in the section, took a
/// warm `TmkOpt` run from 1 169 to 1 059, and an indirect schedule no
/// longer copying its page set into `partial_pages` (which it never
/// reads) took one allocation per rank: 1 059 to 1 055.
const WARM_ALLOCS: [(&str, Variant, u64); 8] = [
    ("uniform/static/p4", Variant::TmkBase, 945),
    ("uniform/static/p4", Variant::TmkOpt, 1_055),
    ("uniform/static/p4", Variant::TmkAdaptive, 1_451),
    ("uniform/static/p4", Variant::TmkPush, 1_387),
    ("uniform/static/p4", Variant::Chaos, 153),
    ("uniform/static/p64", Variant::TmkBase, 4_908),
    ("uniform/static/p64", Variant::TmkPush, 29_443),
    ("uniform/static/p64", Variant::Chaos, 2_620),
];

/// Allocations of a warm run of `v` on `prep` (reuse on): one run warms
/// the pool and the variant's buffers, and the next two must agree.
fn warm_run_allocs(prep: &Prepared, v: Variant) -> u64 {
    prep.run(v, SimTime::ZERO);
    let first = allocs(|| prep.run(v, SimTime::ZERO));
    let second = allocs(|| prep.run(v, SimTime::ZERO));
    let (cell, v) = (prep.cfg().label(), v.label());
    assert_eq!(first, second, "{cell} {v}: two warm runs disagree");
    first
}

#[test]
fn a_warm_fault_allocates_nothing() {
    assert!(serve::alloc::active(), "counting allocator not installed");
    let cl = Cluster::new(DsmConfig {
        nprocs: NPROCS,
        page_size: PAGE,
        cost: Default::default(),
    });
    let (cold, cold_masters) = run(&cl);
    assert!(
        cold[0] > 0,
        "the cold demand fault sizes the scratch: {cold:?}"
    );
    cl.recycle();
    let (warm, masters) = run(&cl);
    assert_eq!((cold_masters, masters), (1, 1), "the GC path was taken");
    assert_eq!(
        warm, [0; 5],
        "warm allocations per fetch [demand, master, aggregated, prefetch, push]"
    );

    // Whole warm variants on recycled clusters. 1933b6e, before the
    // fetch scratch, allocated 522 753 times in a warm p64 TmkBase run.
    let p4 = Prepared::new(SynthConfig::quick(Structure::Uniform, Dynamics::Static));
    let p64 = Prepared::new(static_cell());
    let mut got = Vec::new();
    for (cell, v, pin) in WARM_ALLOCS {
        let prep = if cell == p4.cfg().label() { &p4 } else { &p64 };
        assert_eq!(prep.cfg().label(), cell);
        prep.set_reuse(true);
        got.push((cell, v.label(), warm_run_allocs(prep, v), pin));
    }
    assert!(
        got.iter().all(|&(_, _, n, pin)| n == pin),
        "warm allocations per run (cell, variant, measured, pinned): {got:#?}"
    );

    // c0baaf9, before the scan kept its buffers, allocated 6 and 76 times
    // on each rank here; with a bitmap per indirection page a rescan
    // still allocated up to one per page. The one kept bitmap allocates
    // nothing.
    for (rank, (unchanged, rescan, pages)) in validate_allocs().into_iter().enumerate() {
        assert_eq!(
            unchanged, 0,
            "rank {rank}: Validate on an unchanged schedule"
        );
        assert_eq!(
            rescan, 0,
            "rank {rank}: a rescan of {pages} indirection pages"
        );
    }
}
