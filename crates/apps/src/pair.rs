//! The pair-force kernel: moldyn (§5.1) and nbf (§5.2) in all six
//! variants, from one program — a Newton's-third-law pair loop over an
//! indirection array into a private force array, reduced into a shared
//! one, owners integrating. The Tmk builds reduce in `nprocs` pipelined
//! rounds, owner last (the paper's Figure-2 transformation); CHAOS
//! scatter-adds in that order, so the parallel builds agree bit for bit.
//!
//! The two applications differ in data and in one real branch, the
//! [`Indirection`] ("Instead of keeping a list of pairs of interacting
//! molecules like moldyn, nbf keeps a list of interacting partners for
//! each molecule"). It decides what initialization writes to shared
//! memory, which `Validate` descriptors bind, and the Tmk read order.

use std::ops::Range;

use chaos::{gather, inspector, scatter_add, ChaosProc, ChaosWorld, Partition};
use chaos::{TTable, TTableCache, TTableKind};
use rsd::{Env, Rsd, SymRsd};
use sdsm_core::{validate, AccessType, Cluster, Desc, DsmConfig, RegionRef, SharedSlice};
use sdsm_core::{TmkProc, Validator};
use simnet::{MsgKind, SimTime};

use crate::harness::{install_policy, Capture};
use crate::phases;
use crate::report::{RunReport, Variant};
use crate::work;

/// A pair-force law over elements of `W` values: the force `j` exerts
/// on `i`, added to `i` and subtracted from `j`.
pub trait Law<const W: usize>: Send + Sync {
    fn force(&self, xi: &[f64; W], xj: &[f64; W]) -> [f64; W];
}

/// A processor's section of a pair list, from every element's current
/// value and the elements it owns: both ends of each pair, flat.
pub type Section<const W: usize> = Box<dyn Fn(&[[f64; W]], Range<usize>) -> Vec<u32> + Send + Sync>;

/// How a processor finds its pairs: the kernel's one real branch.
pub enum Indirection<const W: usize> {
    /// A list of interacting pairs, rebuilt from the current values
    /// (moldyn's interaction list).
    PairList(PairList<W>),
    /// Static per-element partner lists, concatenated (nbf): element
    /// `i`'s partners are `partners[last[i]..last[i + 1]]`; `last[0] = 0`.
    Partners { last: Vec<i32>, partners: Vec<u32> },
}

/// A pair list and its rebuild schedule.
pub struct PairList<const W: usize> {
    /// A processor's section: the pairs whose first element it owns.
    /// The sections over a partition concatenate to the whole list.
    pub section: Section<W>,
    /// Steps (from 1, warm-up included) that start with a rebuild.
    pub rebuild_steps: Vec<usize>,
    /// Modeled cost of testing one candidate pair. A rebuild tests all
    /// `n(n − 1)/2`, divided evenly over the processors.
    pub test_us: f64,
}

/// Everything about a run that is a number rather than a shape.
pub struct Params {
    /// The cluster; CHAOS runs on as many processors, same cost model.
    pub dsm: DsmConfig,
    /// Untimed steps before the `steps` timed ones.
    pub warmup: usize,
    pub steps: usize,
    /// Integration step: `x += dt · f`.
    pub dt: f64,
    /// Modeled costs of one pair interaction and one element's update.
    pub pair_us: f64,
    pub update_us: f64,
    /// The Figure-1 source the optimized build compiles, and its unit.
    pub fixture: (&'static str, &'static str),
    /// The CHAOS build's translation table.
    pub table: TTableKind,
    /// CHAOS also gathers the force array before the pair loop.
    pub gather_forces: bool,
    /// CHAOS's pair loop also charges this per owned element (zeroing).
    pub chaos_zero_us: f64,
}

/// One runnable instance of the kernel, built once per workload and
/// read-only: one `Kernel` serves any number of runs of any variant.
pub struct Kernel<const W: usize, L> {
    /// Initial values, in the application's numbering.
    x0: Vec<[f64; W]>,
    /// Kernel element `k` (each processor owns a block of them) is
    /// application element `old_of[k]`, or `k` if `None`.
    old_of: Option<Vec<u32>>,
    part: Partition,
    ttable: TTable,
    law: L,
    indirection: Indirection<W>,
    /// The compiled `Validate` site's INDIRECT section over `x`.
    section: SymRsd,
    /// Capacity of one processor's pair-list section (0 for partners).
    cap_pp: usize,
    pub params: Params,
}

/// A Tmk run's shared indirection, 1-based: `cap_pp` pairs per processor
/// and each one's count, or the partner lists and their end pointers.
enum Shared {
    /// `ilist`, `npairs`.
    Pairs(SharedSlice<i32>, SharedSlice<i64>),
    /// `partners`, `last`.
    Partners(SharedSlice<i32>, SharedSlice<i32>),
}

/// Newton's third law: `fij` into `i`, `-fij` into `j`.
#[inline]
fn newton3<const W: usize>(f: &mut [[f64; W]], i: usize, j: usize, fij: [f64; W]) {
    for d in 0..W {
        f[i][d] += fij[d];
        f[j][d] -= fij[d];
    }
}

/// A DIRECT descriptor over the 1-based values `lo..=hi` of `data`.
fn direct(data: RegionRef, lo: usize, hi: usize, access: AccessType, sched: u32) -> Desc {
    let section = Rsd::dense1(lo as i64, hi as i64);
    Desc::Direct {
        data,
        section,
        access,
        sched,
    }
}

/// The pair loop's INDIRECT read of `data` through `ind`.
fn indirect(data: RegionRef, ind: SharedSlice<i32>, ind_dims: Vec<usize>, section: Rsd) -> Desc {
    let (access, sched) = (AccessType::Read, 1);
    Desc::Indirect {
        data,
        ind,
        ind_dims,
        section,
        access,
        sched,
    }
}

impl<const W: usize, L: Law<W>> Kernel<W, L> {
    /// Take `x0` in the application's numbering and kernel element `k`
    /// from application element `old_of[k]`; size the shared pair list,
    /// compile the fixture and build the translation table.
    pub fn new(
        x0: Vec<[f64; W]>,
        part: Partition,
        old_of: Option<Vec<u32>>,
        law: L,
        indirection: Indirection<W>,
        params: Params,
    ) -> Self {
        let (source, unit) = params.fixture;
        let compiled = fcc::compile(source).expect("fixture compiles");
        let site = compiled.sites.into_iter().find(|s| s.unit == unit);
        let descs = site.expect("the fixture's Validate site").descriptors;
        let desc = descs
            .into_iter()
            .find(|d| d.kind == fcc::DescKind::Indirect && d.data == "x");
        let mut kernel = Kernel {
            x0,
            old_of,
            ttable: TTable::new(params.table, &part),
            part,
            law,
            indirection,
            section: desc.expect("an INDIRECT descriptor on x").section,
            cap_pp: 0,
            params,
        };
        // The 1997 program sized the list statically too: half again
        // the longest initial section.
        if let Indirection::PairList(list) = &kernel.indirection {
            let x0 = kernel.renumbered();
            let longest = (0..kernel.part.nprocs())
                .map(|q| (list.section)(&x0, kernel.part.range_of(q)).len() / 2)
                .max();
            kernel.cap_pp = longest.unwrap_or(0) * 3 / 2 + 64;
        }
        kernel
    }

    /// Run `v` on a freshly built cluster (Tmk) or world (CHAOS).
    pub fn run(&self, v: Variant, seq_time: SimTime) -> (RunReport, Vec<f64>) {
        match v {
            Variant::Seq => self.run_seq(),
            Variant::Chaos => self.run_chaos(seq_time),
            tmk => self.run_tmk(tmk, seq_time),
        }
    }

    /// Kernel element `k`'s number in the application.
    fn app(&self, k: usize) -> usize {
        self.old_of.as_ref().map_or(k, |old_of| old_of[k] as usize)
    }

    /// The initial values in kernel numbering.
    fn renumbered(&self) -> Vec<[f64; W]> {
        (0..self.x0.len()).map(|k| self.x0[self.app(k)]).collect()
    }

    /// A parallel run's final values (kernel numbering, flat) in the
    /// application's numbering, and their checksum.
    fn finish(&self, x: Vec<f64>) -> (Vec<f64>, f64) {
        let mut out = vec![0.0; x.len()];
        for (k, v) in x.chunks_exact(W).enumerate() {
            out[W * self.app(k)..][..W].copy_from_slice(v);
        }
        let checksum = out.iter().map(|v| v.abs()).sum();
        (out, checksum)
    }

    /// The list rebuilt at the start of `step`, if any.
    fn rebuild_at(&self, step: usize) -> Option<&PairList<W>> {
        match &self.indirection {
            Indirection::PairList(list) if list.rebuild_steps.contains(&step) => Some(list),
            _ => None,
        }
    }

    /// A processor's even share of a rebuild's O(N²/2) pair tests.
    fn tested_per_proc(&self) -> usize {
        let n = self.x0.len();
        n * (n - 1) / 2 / self.params.dsm.nprocs
    }

    /// Where the partners of the elements `rows` lie in the partner
    /// list (empty for a pair list).
    fn extent(&self, rows: &Range<usize>) -> Range<usize> {
        match &self.indirection {
            Indirection::PairList(_) => 0..0,
            Indirection::Partners { last, .. } => {
                last[rows.start] as usize..last[rows.end] as usize
            }
        }
    }

    /// The references of the elements `rows`: a pair list's `section`,
    /// or the rows' partners.
    fn refs<'a>(&'a self, rows: &Range<usize>, section: &'a [u32]) -> &'a [u32] {
        match &self.indirection {
            Indirection::PairList(_) => section,
            Indirection::Partners { partners, .. } => &partners[self.extent(rows)],
        }
    }

    /// The pair loop on a processor's own arrays over `slots`, the
    /// [`Kernel::refs`] of `rows` as indices into `x` (slot pairs, or
    /// row `r`'s partner slots). Returns the pair count.
    fn pair_loop(
        &self,
        x: &[[f64; W]],
        f: &mut [[f64; W]],
        rows: Range<usize>,
        slots: &[u32],
    ) -> usize {
        let mut interact = |i: usize, j: usize| newton3(f, i, j, self.law.force(&x[i], &x[j]));
        match &self.indirection {
            Indirection::PairList(_) => {
                for ij in slots.chunks_exact(2) {
                    interact(ij[0] as usize, ij[1] as usize);
                }
                slots.len() / 2
            }
            Indirection::Partners { last, .. } => {
                let base = last[rows.start] as usize;
                for (r, i) in rows.enumerate() {
                    for &j in &slots[last[i] as usize - base..last[i + 1] as usize - base] {
                        interact(r, j as usize);
                    }
                }
                slots.len()
            }
        }
    }

    /// The sequential reference, in the application's numbering: real
    /// arithmetic, modeled time for the timed steps and their rebuilds.
    fn run_seq(&self) -> (RunReport, Vec<f64>) {
        let prm = &self.params;
        let n = self.x0.len();
        let mut x = self.x0.clone();
        let mut list = match &self.indirection {
            Indirection::PairList(list) => (list.section)(&x, 0..n),
            Indirection::Partners { .. } => Vec::new(),
        };
        let mut forces = vec![[0.0f64; W]; n];
        let mut time = SimTime::ZERO;
        for step in 1..=prm.warmup + prm.steps {
            let timed = step > prm.warmup;
            if let Some(rebuilt) = self.rebuild_at(step) {
                list = (rebuilt.section)(&x, 0..n);
                if timed {
                    time += work::t(rebuilt.test_us, n * (n - 1) / 2);
                }
            }
            forces.fill([0.0; W]);
            let pairs = self.pair_loop(&x, &mut forces, 0..n, self.refs(&(0..n), &list));
            for (c, fd) in x.as_flattened_mut().iter_mut().zip(forces.as_flattened()) {
                *c += prm.dt * fd;
            }
            if timed {
                time += work::t(work::ZERO_US, W * n)
                    + work::t(prm.pair_us, pairs)
                    + work::t(prm.update_us, n);
            }
        }
        let x = x.into_flattened();
        let checksum = x.iter().map(|v| v.abs()).sum();
        (RunReport::sequential(time, checksum), x)
    }

    /// The kernel on the DSM as one of the [`Variant::TMK`] builds; the
    /// adaptive ones run the base program under the adaptive engine,
    /// which learns the repeating reads in a few steps.
    fn run_tmk(&self, variant: Variant, seq_time: SimTime) -> (RunReport, Vec<f64>) {
        variant.expect_tmk("pair::Kernel::run_tmk");
        let prm = &self.params;
        let (n, nprocs, part) = (self.x0.len(), prm.dsm.nprocs, &self.part);
        let opt = variant == Variant::TmkOpt;
        let cl = Cluster::new(prm.dsm.clone());
        let x = cl.alloc::<f64>(W * n);
        let forces = cl.alloc::<f64>(W * n);
        let shared = match &self.indirection {
            Indirection::PairList(_) => Shared::Pairs(
                cl.alloc::<i32>(2 * self.cap_pp * nprocs),
                cl.alloc::<i64>(nprocs),
            ),
            Indirection::Partners { partners, .. } => {
                Shared::Partners(cl.alloc::<i32>(partners.len()), cl.alloc::<i32>(n + 1))
            }
        };

        let ranks = cl.run(|p| {
            install_policy(p, variant);
            let me = p.rank();
            let my = part.range_of(me);
            let page = p.page_size();
            let mut v = Validator::new();
            let mut local = vec![[0.0f64; W]; n]; // private local_forces (Figure 2)
            let mut my_npairs = 0;
            let mut image = Image::new(&x, page);
            // One page run of indirection entries, and of forces.
            let mut run_ind = vec![0i32; page / 4];
            let mut run_forces = vec![0.0f64; page / 8];

            // --- untimed init: owners write their values and partner
            // lists, or build the pair list after the barrier ---
            let mine: Vec<f64> = my.clone().flat_map(|i| self.x0[self.app(i)]).collect();
            p.write_slice(&x, W * my.start, &mine);
            if let (Shared::Partners(partners, last), Indirection::Partners { last: l, .. }) =
                (&shared, &self.indirection)
            {
                let refs = self.refs(&my, &[]);
                let entries: Vec<i32> = refs.iter().map(|&j| j as i32 + 1).collect(); // 1-based
                p.write_slice(partners, self.extent(&my).start, &entries);
                p.write_slice(last, my.start, &l[my.start..=my.end]);
            }
            // First invalidation of the value pages, which the update
            // barrier re-invalidates every step: same site, same tag.
            p.barrier_tagged(phases::UPDATE);
            if let Shared::Pairs(ilist, npairs) = &shared {
                my_npairs = self.rebuild_tmk(p, &mut v, opt, &x, ilist, npairs);
                // The init-time rebuild barrier shares the in-loop site.
                p.barrier_tagged(phases::REBUILD);
            }

            for step in 1..=prm.warmup + prm.steps {
                if step == prm.warmup + 1 {
                    p.start_timed_region();
                    p.reset_counters();
                }
                if let (Some(_), Shared::Pairs(ilist, npairs)) = (self.rebuild_at(step), &shared) {
                    my_npairs = self.rebuild_tmk(p, &mut v, opt, &x, ilist, npairs);
                    p.barrier_tagged(phases::REBUILD);
                }

                // ---- the pair loop ----
                // The optimized build binds the compiler's section to
                // this processor: a pair list's count, offset to its
                // section; partner lists' bounds `last(0)` and
                // `last(num_molecules)`, plus DIRECT x(i) and last(i).
                let xs = RegionRef {
                    base: x.base_byte(),
                    len: n,
                    elem: 8 * W,
                };
                let pairs = match shared {
                    Shared::Pairs(ilist, _) => {
                        let my_start = me * self.cap_pp;
                        if opt {
                            let env = Env::new().bind("num_interactions", my_npairs as i64);
                            let mut sec = self.section.eval(&env).expect("bound section");
                            sec.dims[1].lo += my_start as i64;
                            sec.dims[1].hi += my_start as i64;
                            let dims = vec![2, self.cap_pp * nprocs];
                            validate(p, &mut v, &[indirect(xs, ilist, dims, sec)]);
                        }
                        zero(p, &mut local);
                        image.reset();
                        let mine = 2 * my_start..2 * (my_start + my_npairs);
                        image.pairs(p, &x, &ilist, mine, &mut run_ind, |vals, i, j| {
                            newton3(&mut local, i, j, self.law.force(&vals[i], &vals[j]));
                        });
                        image.debug_check(p, &x, &mut run_forces);
                        my_npairs
                    }
                    Shared::Partners(partners, last) => {
                        let mine = self.extent(&my);
                        if opt {
                            let env = Env::new().bind("last(0)", mine.start as i64);
                            let env = env.bind("last(num_molecules)", mine.end as i64);
                            let sec = self.section.eval(&env).expect("bound section");
                            let (lo, hi, read) = (my.start + 1, my.end, AccessType::Read);
                            let descs = [
                                indirect(xs, partners, vec![partners.len()], sec),
                                direct(xs, lo, hi, read, 2),
                                direct(RegionRef::of(&last), lo, hi + 1, read, 3),
                            ];
                            validate(p, &mut v, &descs);
                        }
                        zero(p, &mut local);
                        image.reset();
                        for i in my.clone() {
                            let [lo, hi] = p.read_array::<i32, 2>(&last, i);
                            image.touch(p, &x, i);
                            // Per run of partner entries: the touch pass
                            // over its x(j), in entry order, then the
                            // compute pass from the image.
                            for run in partners.page_runs(lo as usize..hi as usize, page) {
                                let js = &mut run_ind[..run.len()];
                                p.read_slice(&partners, run.start, js);
                                for &j in &*js {
                                    image.touch(p, &x, j as usize - 1);
                                }
                                let vals = &image.vals;
                                for &j in &*js {
                                    let j = j as usize - 1;
                                    newton3(&mut local, i, j, self.law.force(&vals[i], &vals[j]));
                                }
                            }
                        }
                        image.debug_check(p, &x, &mut run_forces);
                        mine.len()
                    }
                };
                p.compute(work::t(prm.pair_us, pairs));

                // ---- pipelined reduction, owner last ----
                let local = local.as_flattened();
                for s in 0..nprocs {
                    let chunk = (me + s + 1) % nprocs;
                    let cr = part.range_of(chunk);
                    let (elo, ehi) = (W * cr.start, W * cr.end);
                    if opt {
                        let access = if s == 0 {
                            AccessType::WriteAll
                        } else {
                            AccessType::ReadWriteAll
                        };
                        let sched = 100 + chunk as u32;
                        let descs = [direct(RegionRef::of(&forces), elo + 1, ehi, access, sched)];
                        validate(p, &mut v, &descs);
                    }
                    if s == 0 {
                        p.write_slice(&forces, elo, &local[elo..ehi]);
                    } else {
                        p.update_slice(&forces, elo..ehi, |e, cur| cur + local[e]);
                    }
                    // Each round is its own barrier site, so the
                    // adaptive engine keeps one chunk plan per round.
                    p.barrier_tagged(phases::PIPELINE + s as u32);
                }

                // ---- owners integrate ----
                let (elo, ehi) = (W * my.start, W * my.end);
                if opt {
                    let mine = direct(
                        RegionRef::of(&x),
                        elo + 1,
                        ehi,
                        AccessType::ReadWriteAll,
                        200,
                    );
                    validate(p, &mut v, &[mine]);
                }
                // Per page run of both arrays: the forces, then x.
                for xr in x.page_runs(elo..ehi, page) {
                    for r in forces.page_runs(xr, page) {
                        let f = &mut run_forces[..r.len()];
                        p.read_slice(&forces, r.start, f);
                        p.update_slice(&x, r.clone(), |e, cur| cur + prm.dt * f[e - r.start]);
                    }
                }
                p.compute(work::t(prm.update_us, my.len()));
                p.barrier_tagged(phases::UPDATE);
            }

            // Capture the timed region before any result extraction.
            let out = Capture::tmk(me, &cl, v.scan_seconds());
            p.barrier();
            out
        });

        let (policy, x) = Capture::extract(variant, &cl, &x);
        let (x, checksum) = self.finish(x);
        let report = Capture::report(variant, ranks, policy, seq_time, checksum);
        (report, x)
    }

    /// A Tmk list (re)build: read every value through the DSM, scan (at
    /// the 1997 O(N²) cost) and write this processor's section and count.
    fn rebuild_tmk(
        &self,
        p: &mut TmkProc,
        v: &mut Validator,
        opt: bool,
        x: &SharedSlice<f64>,
        ilist: &SharedSlice<i32>,
        npairs: &SharedSlice<i64>,
    ) -> usize {
        let Indirection::PairList(list) = &self.indirection else {
            unreachable!("only a pair list is rebuilt")
        };
        let me = p.rank();
        if opt {
            // A regular read of the whole value array: aggregate it.
            let all = direct(RegionRef::of(x), 1, x.len(), AccessType::Read, 300);
            validate(p, v, &[all]);
        }
        let mut all = vec![[0.0f64; W]; self.x0.len()];
        p.read_slice(x, 0, all.as_flattened_mut());
        let section = (list.section)(&all, self.part.range_of(me));
        p.compute(work::t(list.test_us, self.tested_per_proc()));
        let len = section.len() / 2;
        let cap = self.cap_pp;
        assert!(len <= cap, "pair list overflow: {len} > {cap}");
        let my_start = 2 * me * cap;
        if opt {
            // Pre-twin this processor's list section (a regular WRITE).
            let (lo, hi) = (my_start + 1, my_start + 2 * len.max(1));
            let mine = direct(RegionRef::of(ilist), lo, hi, AccessType::Write, 400);
            validate(p, v, &[mine]);
        }
        let entries: Vec<i32> = section.iter().map(|&e| e as i32 + 1).collect(); // 1-based, Fortran-style
        p.write_slice(ilist, my_start, &entries);
        p.write(npairs, me, len as i64);
        len
    }

    /// The kernel under CHAOS: the inspector at start (untimed) and after
    /// every rebuild (timed: "CHAOS suffers from having to rerun the
    /// inspector"); each step gathers, runs the pair loop, scatter-adds.
    fn run_chaos(&self, seq_time: SimTime) -> (RunReport, Vec<f64>) {
        let prm = &self.params;
        let (part, tt) = (&self.part, &self.ttable);
        let w = ChaosWorld::new(prm.dsm.nprocs, prm.dsm.cost.clone());

        let out = w.run(|cp| {
            let me = cp.rank();
            let my = part.range_of(me);
            let nloc = my.len();
            let mut cache = TTableCache::new();
            let inspect = |cp: &mut ChaosProc, cache: &mut TTableCache, refs: &[u32]| {
                let sched = inspector(cp, tt, cache, refs.iter().copied());
                let locs: Vec<u32> = refs.iter().map(|&e| sched.localize(tt, e)).collect();
                (sched, locs)
            };

            // Every value, for rebuilds, and this processor's section.
            let (mut all, mut section) = match &self.indirection {
                Indirection::PairList(list) => {
                    let all = self.renumbered();
                    let section = (list.section)(&all, my.clone());
                    (all, section)
                }
                Indirection::Partners { .. } => (Vec::new(), Vec::new()),
            };
            // Local arrays: the owned block, then one slot per ghost.
            let mut x: Vec<[f64; W]> = my.clone().map(|i| self.x0[self.app(i)]).collect();
            let mut f: Vec<[f64; W]> = Vec::new();

            // --- untimed: the inspector, before the time-step loop ---
            let t0 = cp.now();
            let (mut sched, mut locs) = inspect(cp, &mut cache, self.refs(&my, &section));
            let untimed_inspector_s = (cp.now() - t0).as_secs_f64();
            let mut inspector_s = 0.0f64;

            for step in 1..=prm.warmup + prm.steps {
                if step == prm.warmup + 1 {
                    cp.start_timed_region();
                }
                if let Some(list) = self.rebuild_at(step) {
                    allgather(cp, part, &x[..nloc], &mut all);
                    section = (list.section)(&all, my.clone());
                    cp.compute(work::t(list.test_us, self.tested_per_proc()));
                    let t0 = cp.now();
                    (sched, locs) = inspect(cp, &mut cache, &section);
                    inspector_s += (cp.now() - t0).as_secs_f64();
                }
                // Room for this schedule's ghosts (a no-op between
                // rebuilds).
                x.resize(sched.local_len(), [0.0; W]);
                f.resize(sched.local_len(), [0.0; W]);

                gather(cp, &sched, W, x.as_flattened_mut());
                f.fill([0.0; W]);
                if prm.gather_forces {
                    // §5.1: "Both x and forces are modified elsewhere,
                    // necessitating the gather." Here they receive the
                    // owners' zeros, and are re-zeroed to accumulate.
                    gather(cp, &sched, W, f.as_flattened_mut());
                    f[nloc..].fill([0.0; W]);
                }
                let pairs = self.pair_loop(&x, &mut f, my.clone(), &locs);
                cp.compute(work::t(prm.chaos_zero_us, nloc) + work::t(prm.pair_us, pairs));
                scatter_add(cp, &sched, W, f.as_flattened_mut());

                // --- owners integrate ---
                for (c, fd) in x[..nloc]
                    .as_flattened_mut()
                    .iter_mut()
                    .zip(f.as_flattened())
                {
                    *c += prm.dt * fd;
                }
                cp.compute(work::t(prm.update_us, nloc));
                cp.sync();
            }

            let rank = Capture::chaos(cp, untimed_inspector_s, inspector_s);
            x.truncate(nloc);
            (rank, x)
        });

        // Every partition is a block layout, so the owned blocks in rank
        // order are the whole array in kernel numbering.
        let (ranks, blocks): (Vec<_>, Vec<_>) = out.into_iter().unzip();
        let (x, checksum) = self.finish(blocks.concat().into_flattened());
        let report = Capture::report(Variant::Chaos, ranks, None, seq_time, checksum);
        (report, x)
    }
}

/// A processor's private image of the value array `x` for one step's
/// pair loop, so that the loop's random `x(j)` reads are plain slice
/// reads: TreadMarks's MMU lets a read of a valid page through at no
/// cost, while [`TmkProc::read_array`] pays a frame lookup per call.
///
/// The loop runs in two passes per page run of its indirection entries.
/// The *touch* pass visits the run's elements in loop order and copies
/// each page of `x` here on its first touch this step, through
/// [`TmkProc::read_slice`], whose page check faults exactly where the
/// element loop's `read_array` would. The *compute* pass then runs the
/// force law from the image alone. Compute is billed once, after the
/// loop, so every fault and fetch keeps its place and virtual time.
///
/// Exact for two reasons. Only a barrier lowers a page state, so a page
/// once readable stays readable to the loop's end. And the pair loop
/// writes no shared page (its forces are private), so a page copied
/// right after its fault equals its frame until the next barrier.
/// [`Image::debug_check`] asserts the second fact in debug builds.
struct Image<const W: usize> {
    /// `x` by element; only the pages copied this step are current.
    vals: Vec<[f64; W]>,
    /// Per page of `x`: copied this step.
    copied: Vec<bool>,
    /// `log2(page size)`: page and slot numbers come from shifts, as in
    /// the software MMU.
    shift: u32,
}

impl<const W: usize> Image<W> {
    /// An image of `x` (`W` values per element, page-aligned, as
    /// [`Cluster::alloc`] places it) on `page`-byte pages.
    fn new(x: &SharedSlice<f64>, page: usize) -> Self {
        assert!(page.is_power_of_two() && x.base_byte() & (page - 1) == 0);
        let shift = page.trailing_zeros();
        Image {
            vals: vec![[0.0; W]; x.len() / W],
            copied: vec![false; (8 * x.len()).div_ceil(page)],
            shift,
        }
    }

    /// Forget every copy: the step's barriers may have invalidated them.
    fn reset(&mut self) {
        self.copied.fill(false);
    }

    /// The touch of element `e`: copy its page, or the two pages its `W`
    /// values straddle in order, on their first touch this step.
    #[inline]
    fn touch(&mut self, p: &mut TmkProc, x: &SharedSlice<f64>, e: usize) {
        let byte = 8 * W * e;
        let lo = byte >> self.shift;
        if !self.copied[lo] {
            self.copy(p, x, lo);
        }
        // An element of a power-of-two size never straddles a page.
        if !(8 * W).is_power_of_two() {
            let hi = (byte + 8 * W - 1) >> self.shift;
            if !self.copied[hi] {
                self.copy(p, x, hi);
            }
        }
    }

    /// The values of `x` on its page `pg`.
    fn span(&self, x: &SharedSlice<f64>, pg: usize) -> Range<usize> {
        (pg << self.shift) >> 3..(((pg + 1) << self.shift) >> 3).min(x.len())
    }

    /// Copy page `pg` of `x`, faulting it in if it is invalid.
    #[cold]
    #[inline(never)]
    fn copy(&mut self, p: &mut TmkProc, x: &SharedSlice<f64>, pg: usize) {
        let span = self.span(x, pg);
        p.read_slice(x, span.start, &mut self.vals.as_flattened_mut()[span]);
        self.copied[pg] = true;
    }

    /// The pair loop over the 1-based pair list `ilist[pairs]`: per page
    /// run of pairs, the touch pass, then `compute(image, i, j)` for
    /// each 0-based pair `(i, j)` in list order.
    fn pairs(
        &mut self,
        p: &mut TmkProc,
        x: &SharedSlice<f64>,
        ilist: &SharedSlice<i32>,
        pairs: Range<usize>,
        run_ind: &mut [i32],
        mut compute: impl FnMut(&[[f64; W]], usize, usize),
    ) {
        for run in ilist.page_runs(pairs, 1 << self.shift) {
            // A pair is 8 bytes at an even index of a page-aligned
            // list, so it never straddles a page: runs hold whole pairs.
            debug_assert!(run.len() % 2 == 0);
            let ind = &mut run_ind[..run.len()];
            p.read_slice(ilist, run.start, ind);
            for ij in ind.chunks_exact(2) {
                self.touch(p, x, ij[0] as usize - 1);
                self.touch(p, x, ij[1] as usize - 1);
            }
            for ij in ind.chunks_exact(2) {
                compute(&self.vals, ij[0] as usize - 1, ij[1] as usize - 1);
            }
        }
    }

    /// Debug builds: every copied page is still readable and equals its
    /// frame, read back through `scratch` (a page of `f64`s) — the loop
    /// wrote no shared page.
    fn debug_check(&self, p: &mut TmkProc, x: &SharedSlice<f64>, scratch: &mut [f64]) {
        if !cfg!(debug_assertions) {
            return;
        }
        let first = x.base_byte() >> self.shift;
        for pg in (0..self.copied.len()).filter(|&pg| self.copied[pg]) {
            let lost = p.page_invalid((first + pg) as u32);
            assert!(!lost, "page {pg} of x was invalidated during the pair loop");
            let span = self.span(x, pg);
            let frame = &mut scratch[..span.len()];
            p.read_slice(x, span.start, frame);
            let image = &self.vals.as_flattened()[span];
            let same = frame
                .iter()
                .zip(image)
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same, "page {pg} of x changed during the pair loop");
        }
    }
}

/// Zero the private force array, charged per value.
fn zero<const W: usize>(p: &mut TmkProc, local: &mut [[f64; W]]) {
    local.fill([0.0; W]);
    p.compute(work::t(work::ZERO_US, W * local.len()));
}

/// All-to-all broadcast of the owned blocks into `all` (a rebuild needs
/// every value to scan its candidate pairs).
fn allgather<const W: usize>(
    cp: &mut ChaosProc,
    part: &Partition,
    own: &[[f64; W]],
    all: &mut [[f64; W]],
) {
    let me = cp.rank();
    let out = (0..cp.nprocs())
        .filter(|&q| q != me)
        .map(|q| (q, own.as_flattened().iter().copied()));
    cp.exchange(MsgKind::Gather, out, |from, vals| {
        let block = all[part.range_of(from)].as_flattened_mut();
        for (c, v) in block.iter_mut().zip(vals) {
            *c = v;
        }
    });
    all[part.range_of(me)].copy_from_slice(own);
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use dsm::ProcCounters;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use simnet::with_trace_sink;
    use trace::{Trace, Tracer};

    use super::*;

    /// One pair loop on a fresh cluster: `n` triples and each rank's
    /// `pairs_pp` pairs of `pairs` (0-based, flat), with the pages in
    /// `rewrite` (numbered from `x`'s first, through the list) rewritten
    /// by their one writer just before the loop, so they are invalid on
    /// every other rank.
    #[derive(Debug)]
    struct Case {
        nprocs: usize,
        page: usize,
        n: usize,
        pairs: Vec<u32>,
        rewrite: Vec<(u32, usize)>,
    }

    impl Case {
        fn new(nprocs: usize, page: usize, seed: u64) -> Case {
            let mut g = StdRng::seed_from_u64(seed);
            let n = g.gen_range(8..4 * page / 8);
            let pairs_pp = g.gen_range(0..3 * page / 8);
            let pairs = (0..2 * pairs_pp * nprocs)
                .map(|_| g.gen_range(0..n as u32))
                .collect();
            let npages = (24 * n).div_ceil(page) + (8 * pairs_pp * nprocs).div_ceil(page);
            let mut rewrite = Vec::new();
            for pg in 0..npages as u32 {
                if g.gen_bool(0.5) {
                    rewrite.push((pg, g.gen_range(0..nprocs)));
                }
            }
            Case {
                nprocs,
                page,
                n,
                pairs,
                rewrite,
            }
        }
    }

    /// Per rank, the values the loop read for each pair, its counters and
    /// its clock; and the cluster's whole trace.
    type Observed = (Vec<(Vec<u64>, ProcCounters, u64)>, Trace);

    fn run(case: &Case, image: bool) -> Observed {
        let tracer = Arc::new(Tracer::new(case.nprocs, 1 << 14));
        let mut cfg = DsmConfig::with_nprocs(case.nprocs);
        cfg.page_size = case.page;
        let cl = with_trace_sink(tracer.clone(), || Cluster::new(cfg));
        let x = cl.alloc::<f64>(3 * case.n);
        let ilist = cl.alloc::<i32>(case.pairs.len());
        let first = x.base_byte() / case.page;
        let per_rank = case.pairs.len() / case.nprocs;
        let observed = cl.run(|p| {
            let me = p.rank();
            if me == 0 {
                let vals: Vec<f64> = (0..x.len()).map(|k| k as f64 * 0.5).collect();
                p.write_slice(&x, 0, &vals);
                let entries: Vec<i32> = case.pairs.iter().map(|&e| e as i32 + 1).collect();
                p.write_slice(&ilist, 0, &entries);
            }
            p.barrier();
            p.read_slice(&x, 0, &mut vec![0.0; x.len()]);
            p.read_slice(&ilist, 0, &mut vec![0; ilist.len()]);
            p.barrier();
            // A rewritten value moves; a rewritten entry names the next
            // element.
            let n = case.n as i32;
            for &(pg, _) in case.rewrite.iter().filter(|&&(_, q)| q == me) {
                let on = |byte: usize| byte / case.page == first + pg as usize;
                for k in (0..x.len()).filter(|&k| on(x.byte_at(k))) {
                    p.update(&x, k, |v| v + 1.0);
                }
                for k in (0..ilist.len()).filter(|&k| on(ilist.byte_at(k))) {
                    p.update(&ilist, k, |e| e % n + 1);
                }
            }
            p.barrier();
            let start = p.counters().clone();
            let t0 = p.now();
            let mine = me * per_rank..(me + 1) * per_rank;
            let mut log = Vec::new();
            let mut pair = |xi: &[f64; 3], xj: &[f64; 3]| {
                log.extend(xi.iter().chain(xj).map(|v| v.to_bits()));
            };
            if image {
                let mut image = Image::<3>::new(&x, case.page);
                image.reset();
                let mut run_ind = vec![0; case.page / 4];
                image.pairs(p, &x, &ilist, mine, &mut run_ind, |vals, i, j| {
                    pair(&vals[i], &vals[j])
                });
                image.debug_check(p, &x, &mut vec![0.0; case.page / 8]);
            } else {
                for k in mine.step_by(2) {
                    let [i, j] = p.read_array::<i32, 2>(&ilist, k);
                    let (i, j) = (i as usize - 1, j as usize - 1);
                    let xi = p.read_array::<f64, 3>(&x, 3 * i);
                    let xj = p.read_array::<f64, 3>(&x, 3 * j);
                    pair(&xi, &xj);
                }
            }
            let mut counters = p.counters().clone();
            counters.read_faults -= start.read_faults;
            counters.pages_fetched -= start.pages_fetched;
            (log, counters, (p.now() - t0).as_ns())
        });
        drop(cl);
        let trace = tracer.capture();
        assert_eq!(trace.dropped(), 0);
        (observed, trace)
    }

    proptest! {
        /// The touch pass faults and fetches as the element loop does,
        /// at the same virtual times, and the image then holds exactly
        /// what the element loop's `read_array`s return.
        #[test]
        fn the_image_loop_matches_the_element_loop(
            nprocs in 2usize..5,
            page in proptest::sample::select(vec![64usize, 128, 256]),
            seed in any::<u64>(),
        ) {
            let case = Case::new(nprocs, page, seed);
            let (want, want_trace) = run(&case, false);
            let (got, got_trace) = run(&case, true);
            prop_assert_eq!(got, want, "{:?}", case);
            prop_assert_eq!(got_trace, want_trace, "{:?}", case);
        }
    }
}
