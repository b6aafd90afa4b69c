//! The owner-side relaxation kernel: one gather–compute–scatter
//! reduction over an indirection list of pairs, in all six system
//! variants. umesh runs it over its static mesh, and every `synth`
//! scenario over its generated lists.
//!
//! Each iteration walks the effective interaction list: a *flux* is
//! computed from the two endpoint values and accumulated into both
//! (`+` into the higher endpoint, `-` into the lower), then every
//! element absorbs its accumulator.
//!
//! All parallel builds use the fixed-order **owner-side** reduction:
//! the owner of element `i` recomputes each of `i`'s incident fluxes
//! from the coherent start-of-iteration values, in global list order,
//! and applies them in exactly the order the sequential sweep does. A
//! pair that crosses a block boundary is therefore evaluated by both
//! endpoint owners — a modest compute duplication that buys a
//! **bitwise** contract: seq, the four Tmk builds and CHAOS produce
//! identical bit patterns on every world.

use std::collections::HashMap;
use std::ops::Range;

use rsd::{Dim, Rsd};
use sdsm_core::{
    validate, AccessType, Cluster, Desc, DsmConfig, RegionRef, SharedSlice, TmkProc, Validator,
};
use simnet::{MsgKind, SimTime};

use crate::harness::{install_policy, Capture};
use crate::report::{RunReport, Variant};
use crate::work;
use chaos::{gather, inspector, ChaosWorld, Partition, TTable, TTableCache, TTableKind};

/// The kernel's input: initial values plus every distinct list the run
/// will use — a pure function of the caller's config, so all six
/// variants see identical structure with no shared mutable state.
#[derive(Debug, Clone)]
pub struct World {
    pub x0: Vec<f64>,
    /// Per iteration, an index into [`World::lists`].
    pub version_of_iter: Vec<usize>,
    /// Distinct effective lists (pairs `a < b`, sorted, deduplicated),
    /// in first-use order.
    pub lists: Vec<Vec<(u32, u32)>>,
    /// Flux weight: `flux = (x[a] - x[b]) · kappa`.
    pub kappa: f64,
}

/// A list rebuild's modeled cost and its barrier.
#[derive(Debug, Clone)]
pub struct Rebuild {
    /// Cost of scanning one raw candidate.
    pub us: f64,
    /// Raw candidates per rebuild, divided evenly across processors in
    /// the parallel builds.
    pub candidates: usize,
    /// Phase tag of the post-rebuild barrier.
    pub tag: u32,
}

/// What a caller sets per workload: the machine the parallel builds run
/// on and the kernel's costs and barrier tags.
#[derive(Debug, Clone)]
pub struct Params {
    /// The cluster shape; CHAOS runs on `nprocs` processors under the
    /// same cost model.
    pub dsm: DsmConfig,
    /// Modeled cost of one incident-flux evaluation, charged per visit
    /// (cross-block pairs are evaluated by both endpoint owners).
    pub visit_us: f64,
    /// Phase tag of the end-of-iteration barrier (see `crate::phases`).
    pub iter_tag: u32,
    /// Split both barrier tags by iteration parity, so two interleaved
    /// lists register as two sites.
    pub parity_split: bool,
    /// The cost of moving to a new schedule version; `None` for a plan
    /// with only one.
    pub rebuild: Option<Rebuild>,
}

/// One list's incident pairs, grouped by element in compressed rows:
/// element `i`'s are `pairs[start[i]..start[i + 1]]`, in global list
/// order — the order in which the sequential sweep touches `i`'s
/// accumulator. Each pair appears twice, once per endpoint.
pub struct Incidence {
    start: Vec<u32>,
    pairs: Vec<(u32, u32)>,
}

impl Incidence {
    fn new(n: usize, list: &[(u32, u32)]) -> Incidence {
        let mut start = vec![0u32; n + 1];
        for &(a, b) in list {
            start[a as usize + 1] += 1;
            start[b as usize + 1] += 1;
        }
        for i in 0..n {
            start[i + 1] += start[i];
        }
        let mut fill = start.clone();
        let mut pairs = vec![(0, 0); start[n] as usize];
        for &(a, b) in list {
            for e in [a, b] {
                pairs[fill[e as usize] as usize] = (a, b);
                fill[e as usize] += 1;
            }
        }
        Incidence { start, pairs }
    }

    /// Element `i`'s pair count.
    pub fn degree(&self, i: usize) -> usize {
        (self.start[i + 1] - self.start[i]) as usize
    }

    /// The pairs of the elements in `r`, element by element.
    pub fn of(&self, r: Range<usize>) -> &[(u32, u32)] {
        &self.pairs[self.start[r.start] as usize..self.start[r.end] as usize]
    }
}

/// The owner-side work plan, precomputed once (untimed setup) and
/// shared by the Tmk and CHAOS builds.
///
/// A *schedule version* (`sv`) is one distinct (partition epoch, list
/// version) pair, enumerated in first-use order. With one partition,
/// schedule versions coincide with list versions. A partition re-cut
/// mid-run without touching the list produces a second schedule version
/// over the *same* list — the stale-schedule case CHAOS must detect and
/// re-inspect its way out of.
pub struct Plan {
    /// Distinct data partitions, in epoch order. A partition is a block
    /// layout, so `range_of` speaks element ids — the kernels index the
    /// shared array with it.
    pub parts: Vec<Partition>,
    /// Per iteration: its schedule version.
    pub sv_of_iter: Vec<usize>,
    /// Per schedule version: index into [`Plan::parts`].
    pub sv_part: Vec<usize>,
    /// Per schedule version: index into [`Plan::incidence`] (and the
    /// world's lists).
    pub sv_list: Vec<usize>,
    /// Per list version, its [`Incidence`].
    pub incidence: Vec<Incidence>,
    /// Capacity of one processor's shared-list section, in pairs.
    pub cap_pp: usize,
}

impl Plan {
    /// The plan for `world` when iteration `it` runs under partition
    /// `parts[epoch_of_iter(it)]`.
    fn new(world: &World, parts: Vec<Partition>, epoch_of_iter: impl Fn(usize) -> usize) -> Plan {
        // Schedule versions: distinct (partition epoch, list version)
        // pairs in first-use order. Version 0 is the one initialization
        // sets up, so a run of zero iterations still has one.
        let first = (
            epoch_of_iter(0),
            world.version_of_iter.first().map_or(0, |&v| v),
        );
        let mut sv_of_iter = Vec::with_capacity(world.version_of_iter.len());
        let mut sv_part = vec![first.0];
        let mut sv_list = vec![first.1];
        let mut seen = HashMap::from([(first, 0)]);
        for (it, &lv) in world.version_of_iter.iter().enumerate() {
            let pe = epoch_of_iter(it);
            let sv = *seen.entry((pe, lv)).or_insert_with(|| {
                sv_part.push(pe);
                sv_list.push(lv);
                sv_part.len() - 1
            });
            sv_of_iter.push(sv);
        }
        let n = world.x0.len();
        let incidence = world.lists.iter().map(|l| Incidence::new(n, l)).collect();
        let mut plan = Plan {
            parts,
            sv_of_iter,
            sv_part,
            sv_list,
            incidence,
            cap_pp: 0,
        };
        let nprocs = plan.parts[0].nprocs();
        let longest = (0..plan.sv_part.len())
            .flat_map(|sv| (0..nprocs).map(move |q| (sv, q)))
            .map(|(sv, q)| plan.section(sv, q).len())
            .max();
        plan.cap_pp = longest.unwrap_or(0) + 1;
        plan
    }

    /// Processor `q`'s owned elements under schedule version `sv`.
    pub fn owned(&self, sv: usize, q: usize) -> Range<usize> {
        self.parts[self.sv_part[sv]].range_of(q)
    }

    /// `sv`'s list version's incidence.
    pub fn incidence_of(&self, sv: usize) -> &Incidence {
        &self.incidence[self.sv_list[sv]]
    }

    /// Processor `q`'s section under schedule version `sv`: its owned
    /// elements' incident pairs, element by element, each element's in
    /// global list order. An owned range is contiguous, so this is one
    /// run of its list's [`Incidence`].
    pub fn section(&self, sv: usize, q: usize) -> &[(u32, u32)] {
        self.incidence_of(sv).of(self.owned(sv, q))
    }
}

/// One runnable instance of the kernel: a world, its plan, the CHAOS
/// translation tables (one replicated `TTable` per partition epoch —
/// immutable, so built once) and the caller's [`Params`]. Every piece is
/// variant-independent and consumed read-only, so one `Kernel` serves
/// any number of runs of any variant.
pub struct Kernel {
    pub world: World,
    pub plan: Plan,
    ttables: Vec<TTable>,
    pub params: Params,
}

/// One element's contribution from one incident pair, exactly as the
/// sequential sweep applies it: `-flux` into the lower endpoint `a`,
/// `+flux` into the higher. The sign is a flipped sign bit, not a
/// branch: IEEE 754 defines `x - y` as `x + (-y)`, so the sum's bits are
/// the sweep's.
#[inline]
fn accumulate(acc: &mut f64, node: u32, a: u32, flux: f64) {
    let sign = u64::from(node == a) << 63;
    *acc += f64::from_bits(flux.to_bits() ^ sign);
}

/// Entries of the shared pair list that the Tmk loop reads and writes
/// per accessor call: a 1 KiB stack buffer, whole pairs, so a page run
/// longer than this is taken in several calls. Only the first call on
/// a page can fault, so the extra checks are free and exact.
const RUN: usize = 256;

/// The elements two ranges share (empty, possibly with `start > end`,
/// if none).
fn overlap(a: &Range<usize>, b: &Range<usize>) -> Range<usize> {
    a.start.max(b.start)..a.end.min(b.end)
}

impl Kernel {
    /// Plan `world` over `parts` — iteration `it` runs under partition
    /// `parts[epoch_of_iter(it)]` — and build the translation tables.
    pub fn new(
        world: World,
        parts: Vec<Partition>,
        epoch_of_iter: impl Fn(usize) -> usize,
        params: Params,
    ) -> Kernel {
        let plan = Plan::new(&world, parts, epoch_of_iter);
        assert!(
            params.rebuild.is_some() || plan.sv_part.len() == 1,
            "relax::Kernel: a plan with several schedule versions needs a rebuild cost"
        );
        let ttables = plan
            .parts
            .iter()
            .map(|part| TTable::new(TTableKind::Replicated, part))
            .collect();
        Kernel {
            world,
            plan,
            ttables,
            params,
        }
    }

    /// Run `v` on a freshly built cluster (Tmk) or world (CHAOS).
    pub fn run(&self, v: Variant, seq_time: SimTime) -> (RunReport, Vec<f64>) {
        match v {
            Variant::Seq => self.run_seq(),
            Variant::Chaos => {
                let w = ChaosWorld::new(self.params.dsm.nprocs, self.params.dsm.cost.clone());
                self.run_chaos_on(&w, seq_time)
            }
            tmk => self.run_tmk_on(&Cluster::new(self.params.dsm.clone()), tmk, seq_time),
        }
    }

    fn rebuild(&self) -> &Rebuild {
        self.params
            .rebuild
            .as_ref()
            .expect("checked in Kernel::new")
    }

    /// Writes the calling processor's section of schedule version `sv`
    /// into its slice of the shared list `ilist`: pair `k` of the section
    /// at flat entries `2·(rank·cap_pp + k)` and the one after, 1-based,
    /// Fortran-style like the apps.
    ///
    /// The entries go out through [`TmkProc::write_slice`] from a 1 KiB
    /// stack buffer, so each page takes one write check, made where an
    /// element loop's first store to it would be.
    pub fn write_section(&self, p: &mut TmkProc, ilist: &SharedSlice<i32>, sv: usize) {
        let mut flat = 2 * p.rank() * self.plan.cap_pp;
        let mut buf = [0i32; RUN];
        for pairs in self.plan.section(sv, p.rank()).chunks(RUN / 2) {
            let entries = &mut buf[..2 * pairs.len()];
            for (e, &(a, b)) in entries.chunks_exact_mut(2).zip(pairs) {
                e.copy_from_slice(&[a as i32 + 1, b as i32 + 1]);
            }
            p.write_slice(ilist, flat, entries);
            flat += entries.len();
        }
    }

    /// The `Validate` descriptor of processor `q`'s endpoint reads: the
    /// first `len` pairs of its slice of `ilist` (see
    /// [`Kernel::write_section`]), each entry a 1-based element of `x`.
    pub fn endpoint_desc(
        &self,
        q: usize,
        x: &SharedSlice<f64>,
        ilist: &SharedSlice<i32>,
        len: usize,
    ) -> Desc {
        let start = q * self.plan.cap_pp;
        Desc::Indirect {
            data: RegionRef::of(x),
            ind: *ilist,
            ind_dims: vec![2, self.plan.cap_pp * self.params.dsm.nprocs],
            section: Rsd::new(vec![
                Dim::dense(1, 2),
                Dim::dense(start as i64 + 1, (start + len) as i64),
            ]),
            access: AccessType::Read,
            sched: 1,
        }
    }

    /// Barrier tag of site `base` in iteration `it`.
    fn site(&self, base: u32, it: usize) -> u32 {
        if self.params.parity_split {
            base + (it % 2) as u32
        } else {
            base
        }
    }

    /// The sequential reference: real arithmetic, modeled time. In-loop
    /// list rebuilds are timed (like moldyn's); the initial build is
    /// initialization.
    fn run_seq(&self) -> (RunReport, Vec<f64>) {
        let world = &self.world;
        let mut x = world.x0.clone();
        let mut acc = vec![0.0f64; x.len()];
        let mut time = SimTime::ZERO;
        let mut cur_ver = self.plan.sv_list[0];
        for &ver in &world.version_of_iter {
            if ver != cur_ver {
                let rb = self.rebuild();
                time += work::t(rb.us, rb.candidates);
                cur_ver = ver;
            }
            let list = &world.lists[ver];
            acc.iter_mut().for_each(|a| *a = 0.0);
            for &(a, b) in list {
                let flux = (x[a as usize] - x[b as usize]) * world.kappa;
                acc[a as usize] -= flux;
                acc[b as usize] += flux;
            }
            for (xi, a) in x.iter_mut().zip(&acc) {
                *xi += a;
            }
            time += work::t(self.params.visit_us, list.len()) + work::t(work::ZERO_US, 2 * x.len());
        }
        let checksum = x.iter().map(|v| v.abs()).sum();
        (RunReport::sequential(time, checksum), x)
    }

    /// The kernel on the DSM as one of the [`Variant::TMK`] builds, on a
    /// just-built (or recycled) cluster of `params.dsm`'s shape. Each
    /// iteration, every processor reads its elements' incident
    /// endpoints through the shared list, accumulates owner-side in
    /// global list order and updates only its own block — one barrier
    /// per iteration.
    ///
    /// Under the adaptive builds a static list makes the "invalidate →
    /// fault" pattern periodic from the second iteration on: the engine
    /// promotes the ghost pages and the per-iteration demand traffic
    /// collapses into one exchange per neighbouring partition — CHAOS's
    /// gather shape, discovered without an inspector.
    pub fn run_tmk_on(
        &self,
        cl: &Cluster,
        variant: Variant,
        seq_time: SimTime,
    ) -> (RunReport, Vec<f64>) {
        variant.expect_tmk("relax::Kernel::run_tmk_on");
        let (world, pl) = (&self.world, &self.plan);
        let n = world.x0.len();
        let nprocs = self.params.dsm.nprocs;
        let cap_pp = pl.cap_pp;

        let x = cl.alloc::<f64>(n);
        let ilist = cl.alloc::<i32>(2 * cap_pp * nprocs);

        let ranks = cl.run(|p| {
            install_policy(p, variant);
            let me = p.rank();
            let mut cur_sv = 0;
            let mut my = pl.owned(cur_sv, me);
            let my_start = me * cap_pp;
            let mut v = Validator::new();
            let mut acc = vec![0.0f64; my.len()];
            let mut buf = [0i32; RUN];

            // --- untimed init: own x block + version-0 incident section ---
            p.write_slice(&x, my.start, &world.x0[my.clone()]);
            self.write_section(p, &ilist, cur_sv);
            // The init barrier covers iteration 0's reads, i.e. it stands
            // where the end-of-iteration barrier of a (virtual) iteration
            // −1 would: same site, so that phase's event axis starts here.
            p.barrier_tagged(self.site(self.params.iter_tag, 1));
            p.start_timed_region();
            p.reset_counters();

            for it in 0..pl.sv_of_iter.len() {
                let sv = pl.sv_of_iter[it];
                if sv != cur_sv {
                    // Rebuild: regenerate (balanced candidate scan) and
                    // rewrite this processor's section of the shared list.
                    // A partition re-cut (rebalance) lands here too: the
                    // owned ranges move, but the DSM keeps the value array
                    // coherent, so only the local views change hands.
                    self.write_section(p, &ilist, sv);
                    let rb = self.rebuild();
                    p.compute(work::t(rb.us, rb.candidates / nprocs));
                    p.barrier_tagged(self.site(rb.tag, it));
                    if pl.sv_part[sv] != pl.sv_part[cur_sv] {
                        my = pl.owned(sv, me);
                        acc = vec![0.0f64; my.len()];
                    }
                    cur_sv = sv;
                }
                let my_flat = pl.section(sv, me).len();
                if variant == Variant::TmkOpt && my_flat > 0 {
                    validate(
                        p,
                        &mut v,
                        &[
                            self.endpoint_desc(me, &x, &ilist, my_flat),
                            // The owner-side x update over my block.
                            Desc::Direct {
                                data: RegionRef::of(&x),
                                section: Rsd::dense1(my.start as i64 + 1, my.end as i64),
                                access: AccessType::ReadWriteAll,
                                sched: 2,
                            },
                        ],
                    );
                }
                // Fixed-order owner-side accumulation. The section is read
                // one page run at a time (at most `RUN` entries per call)
                // and walked element by element through the degrees; `x`
                // is read in element order. A pair is 8 bytes at an even
                // index of a page-aligned list, so no pair straddles a
                // page, and a run's one check is the one the element loop
                // makes on the run's first pair: every fault keeps its
                // place.
                acc.fill(0.0);
                let inc = pl.incidence_of(sv);
                let mut degrees = my.clone().map(|i| inc.degree(i)).enumerate();
                // Owned element `my.start + li` has `left` pairs to come.
                let (mut li, mut left) = (0, 0);
                let flat = 2 * my_start..2 * (my_start + my_flat);
                for run in ilist.page_runs(flat, p.page_size()) {
                    for lo in run.clone().step_by(RUN) {
                        let ind = &mut buf[..(run.end - lo).min(RUN)];
                        debug_assert!(ind.len() % 2 == 0, "a run holds whole pairs");
                        p.read_slice(&ilist, lo, ind);
                        for ab in ind.chunks_exact(2) {
                            while left == 0 {
                                (li, left) = degrees.next().expect("the degrees cover the section");
                            }
                            left -= 1;
                            let (a, b) = (ab[0] as u32 - 1, ab[1] as u32 - 1);
                            let flux =
                                (p.read(&x, a as usize) - p.read(&x, b as usize)) * world.kappa;
                            accumulate(&mut acc[li], (my.start + li) as u32, a, flux);
                        }
                    }
                }
                p.compute(
                    work::t(self.params.visit_us, my_flat) + work::t(work::ZERO_US, 2 * my.len()),
                );

                // Owner-only update from coherent start-of-iteration values.
                p.update_slice(&x, my.clone(), |i, cur| cur + acc[i - my.start]);
                p.barrier_tagged(self.site(self.params.iter_tag, it));
            }

            let out = Capture::tmk(me, cl, v.scan_seconds());
            p.barrier();
            out
        });

        let (policy, final_x) = Capture::extract(variant, cl, &x);
        let checksum = final_x.iter().map(|v| v.abs()).sum();
        let report = Capture::report(variant, ranks, policy, seq_time, checksum);
        (report, final_x)
    }

    /// The kernel under CHAOS on a just-built world of `params.dsm`'s
    /// size: inspector at start (untimed) and again after every
    /// schedule change (timed, like moldyn's rebuilds); gather endpoint
    /// values per iteration; owner-side accumulation needs no scatter.
    pub fn run_chaos_on(&self, w: &ChaosWorld, seq_time: SimTime) -> (RunReport, Vec<f64>) {
        let (world, pl, tts) = (&self.world, &self.plan, &self.ttables);
        let nprocs = self.params.dsm.nprocs;

        let out = w.run(|cp| {
            let me = cp.rank();
            let mut cur_sv = 0;
            let mut pe = pl.sv_part[cur_sv];
            let mut my = pl.owned(cur_sv, me);
            let mut cache = TTableCache::new();

            // --- untimed: the inspector for the initial list ---
            let t0 = cp.now();
            let mut sched = inspector(
                cp,
                &tts[pe],
                &mut cache,
                pl.section(cur_sv, me).iter().flat_map(|&(a, b)| [a, b]),
            );
            let untimed_inspector_s = (cp.now() - t0).as_secs_f64();
            let mut locs: Vec<(u32, u32)> = pl
                .section(cur_sv, me)
                .iter()
                .map(|&(a, b)| (sched.localize(&tts[pe], a), sched.localize(&tts[pe], b)))
                .collect();
            // One local array and one accumulator per rank for the whole
            // run: the owned block is `x[..my.len()]`, and a gather
            // refills every ghost slot after it, so both are only resized
            // when the schedule or the partition changes.
            let mut x = world.x0[my.clone()].to_vec();
            x.resize(sched.local_len(), 0.0);
            let mut acc = vec![0.0f64; my.len()];

            cp.start_timed_region();
            let mut insp_in_region = 0.0f64;

            for it in 0..pl.sv_of_iter.len() {
                let sv = pl.sv_of_iter[it];
                if sv != cur_sv {
                    // The schedule went stale: either the list changed, or
                    // (rebalance) the partition was re-cut under an
                    // unchanged list. Either way CHAOS regenerates
                    // (balanced candidate scan) and pays inspection inside
                    // the timed region.
                    let rb = self.rebuild();
                    cp.compute(work::t(rb.us, rb.candidates / nprocs));
                    let new_pe = pl.sv_part[sv];
                    if new_pe != pe {
                        // Partition re-cut: first migrate owned values to
                        // their new homes (bulk exchange, ascending global
                        // element id per pair — deterministic, and the f64
                        // payloads move verbatim, so results stay bitwise).
                        let old_part = &pl.parts[pe];
                        let new_part = &pl.parts[new_pe];
                        let new_my = new_part.range_of(me);
                        // Both partitions are block layouts, so what moves
                        // from `p` to `q` is `p`'s old range overlapped with
                        // `q`'s new one.
                        let out = (0..nprocs)
                            .filter(|&q| q != me)
                            .map(|q| (q, overlap(&my, &new_part.range_of(q))))
                            .filter(|(_, r)| !r.is_empty())
                            .map(|(q, r)| {
                                let (a, b) = (r.start - my.start, r.end - my.start);
                                (q, x[a..b].iter().copied())
                            });
                        let mut new_x = vec![0.0f64; new_my.len()];
                        let kept = overlap(&new_my, &my);
                        if !kept.is_empty() {
                            let (a, b) = (kept.start - new_my.start, kept.start - my.start);
                            new_x[a..a + kept.len()].copy_from_slice(&x[b..b + kept.len()]);
                        }
                        cp.exchange(MsgKind::Scatter, out, |from, vals| {
                            let r = overlap(&new_my, &old_part.range_of(from));
                            debug_assert_eq!(vals.len(), r.len());
                            for (xi, v) in new_x[r.start - new_my.start..].iter_mut().zip(vals) {
                                *xi = v;
                            }
                        });
                        x = new_x;
                        acc.resize(new_my.len(), 0.0);
                        my = new_my;
                        // Then pay inspection again, auditable as such.
                        let t0 = cp.now();
                        sched = chaos::reinspect(
                            cp,
                            &tts[new_pe],
                            &mut cache,
                            pl.section(sv, me).iter().flat_map(|&(a, b)| [a, b]),
                        );
                        insp_in_region += (cp.now() - t0).as_secs_f64();
                        pe = new_pe;
                    } else {
                        let t0 = cp.now();
                        sched = inspector(
                            cp,
                            &tts[pe],
                            &mut cache,
                            pl.section(sv, me).iter().flat_map(|&(a, b)| [a, b]),
                        );
                        insp_in_region += (cp.now() - t0).as_secs_f64();
                    }
                    locs = pl
                        .section(sv, me)
                        .iter()
                        .map(|&(a, b)| (sched.localize(&tts[pe], a), sched.localize(&tts[pe], b)))
                        .collect();
                    x.resize(sched.local_len(), 0.0);
                    cur_sv = sv;
                }
                let my_flat = pl.section(sv, me).len();

                gather(cp, &sched, 1, &mut x);

                acc.fill(0.0);
                let mut k = 0usize;
                let sec = pl.section(sv, me);
                for (li, i) in my.clone().enumerate() {
                    for _ in 0..pl.incidence_of(sv).degree(i) {
                        let (la, lb) = locs[k];
                        let (a, _) = sec[k];
                        let flux = (x[la as usize] - x[lb as usize]) * world.kappa;
                        accumulate(&mut acc[li], i as u32, a, flux);
                        k += 1;
                    }
                }
                cp.compute(
                    work::t(self.params.visit_us, my_flat) + work::t(work::ZERO_US, 2 * my.len()),
                );
                for (xi, a) in x.iter_mut().zip(&acc) {
                    *xi += a;
                }
                cp.sync();
            }

            let rank = Capture::chaos(cp, untimed_inspector_s, insp_in_region);
            x.truncate(my.len());
            (rank, x)
        });

        // Every partition is a block layout, so the owned blocks in rank
        // order are the whole array — whichever partition the run *ended*
        // on.
        let (ranks, blocks): (Vec<_>, Vec<_>) = out.into_iter().unzip();
        let final_x = blocks.concat();
        let checksum = final_x.iter().map(|v| v.abs()).sum();
        (
            Capture::report(Variant::Chaos, ranks, None, seq_time, checksum),
            final_x,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::umesh::UmeshConfig;
    use crate::workload::UmeshWorkload;

    #[test]
    #[should_panic(expected = "relax::Kernel::run_tmk_on: Chaos is not a Tmk build")]
    fn run_tmk_rejects_a_non_tmk_variant() {
        let w = UmeshWorkload::new(UmeshConfig::small());
        let cl = Cluster::new(w.kernel.params.dsm.clone());
        let _ = w.kernel.run_tmk_on(&cl, Variant::Chaos, SimTime::ZERO);
    }
}
