//! The `Validate` entry point — the run-time half of the paper's
//! compile-time/run-time pair (paper §3.2, Figure 3).
//!
//! When the write-watch on an indirection section fires, `Read_indices`
//! rescans the whole section, as the paper's implementation does. The
//! paper sketches an extension that would "use diffing … to
//! incrementally recompute the page sets"; this crate once carried it
//! (a bitmap per indirection page, rescanning only the pages the watch
//! named) and deleted it, because its page set went stale: an
//! indirection page that newly entered a processor's section had never
//! been watched, so its entries were never scanned, and a page that left
//! the section kept its share. Replacing it with the full rescan in the
//! relaxation kernel's `TmkOpt` build held messages and bytes on 29 of
//! the quick synthetic grid's 30 cells; `banded128/rebal5/p4` fell from
//! 210 messages to 200. The scan time rose on 12 of the 18 steady
//! 4-processor cells (e.g. `powerlaw2/remap5` 1 822 050 → 1 833 000 ns
//! per processor), by the entries on the newly entered pages that the
//! extension had skipped.

use std::collections::HashMap;

use dsm::{FetchClass, SharedSlice, SimTime, TmkProc};
use rsd::Dim;

use crate::descriptor::{AccessType, Desc, FlatIndices, RegionRef};

/// Cached state for one schedule number: the page set computed by
/// `Read_indices` (or from a direct section) and, for indirect schedules,
/// the watch that detects indirection-array modification.
#[derive(Debug, Default)]
struct Sched {
    pages: Vec<u32>,
    /// Pages entirely covered by the section (candidates for whole-page
    /// treatment under `WRITE_ALL`); always empty for indirect schedules.
    full_pages: Vec<u32>,
    /// Boundary pages only partially covered — the false-sharing frontier.
    partial_pages: Vec<u32>,
    watch: Option<usize>,
    /// Indirect schedules: the section's indirection pages at the last
    /// rescan, ascending — the pages the watch is armed on.
    watched: Vec<u32>,
    /// `Read_indices`' bitmap over the data region's pages — bit `b` of
    /// word `w` is page `f + 64·w + b`, `f` being the region's first page
    /// rounded down to a multiple of 64 — kept so a rescan reuses its
    /// capacity.
    bits: Vec<u64>,
    recomputes: u64,
    /// Direct schedules: the `(region, section)` the page sets are for.
    direct: Option<(RegionRef, Dim)>,
}

/// Diagnostic snapshot of a schedule (tests, reports).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduleInfo {
    pub pages: Vec<u32>,
    pub full_pages: Vec<u32>,
    pub partial_pages: Vec<u32>,
    pub recomputes: u64,
}

/// Per-processor `Validate` state: the schedule cache.
///
/// One `Validator` lives next to each [`TmkProc`] for the duration of the
/// SPMD body (the paper keeps this state in the run-time library).
#[derive(Debug, Default)]
pub struct Validator {
    schedules: HashMap<u32, Sched>,
    /// Simulated time spent scanning indirection arrays (`Read_indices`)
    /// — the number the paper quotes against the CHAOS inspector.
    scan_time: SimTime,
    /// Pass 2's fetch list, kept as scratch.
    fetch: Vec<u32>,
}

impl Validator {
    pub fn new() -> Self {
        Validator::default()
    }

    pub fn schedule(&self, sched: u32) -> Option<ScheduleInfo> {
        self.schedules.get(&sched).map(|s| ScheduleInfo {
            pages: s.pages.clone(),
            full_pages: s.full_pages.clone(),
            partial_pages: s.partial_pages.clone(),
            recomputes: s.recomputes,
        })
    }

    /// Simulated seconds spent scanning indirection arrays.
    pub fn scan_seconds(&self) -> f64 {
        self.scan_time.as_secs_f64()
    }
}

/// The `Validate` call of Figure 3.
///
/// * recomputes page sets for indirect descriptors whose indirection
///   section changed (`modified()` via page write-watch);
/// * aggregates the fetch of every invalid page into one exchange per
///   peer (`Fetch_diffs`/`Apply_diffs`);
/// * pre-creates twins (`Create_twins`) or marks whole-page writes.
///
/// `WRITE_ALL` / `READ&WRITE_ALL` apply whole-page treatment only to
/// pages *entirely inside* the section; boundary pages shared with a
/// neighbouring section fall back to the ordinary twin/diff protocol
/// (they are exactly where the paper's false-sharing overhead lives).
/// The `*_ALL` types are only meaningful for `DIRECT` descriptors
/// (paper §3.2) — indirect descriptors reject them.
pub fn validate(p: &mut TmkProc, v: &mut Validator, descs: &[Desc]) {
    let page_size = p.page_size();

    // Pass 1: determine pages[sch] for every descriptor.
    for d in descs {
        match d {
            Desc::Indirect {
                data,
                ind,
                ind_dims,
                section,
                sched,
                access,
            } => {
                assert!(
                    !access.whole_pages(),
                    "WRITE_ALL is a direct-access refinement (paper §3.2)"
                );
                let sch = v.schedules.entry(*sched).or_default();
                let watch = *sch.watch.get_or_insert_with(|| p.new_watch());
                // modified()? — set by local protection faults and by
                // incoming write notices on the watched pages; born true.
                if !p.take_modified(watch) {
                    continue;
                }
                let entries = FlatIndices::new(section, ind_dims).unwrap_or_else(|e| {
                    panic!("Validate schedule {sched}: indirection section {section} {e}")
                });
                let cells = ind_dims.iter().try_fold(1usize, |n, &d| n.checked_mul(d));
                assert!(
                    cells.is_some_and(|n| n <= ind.len()),
                    "Validate schedule {sched}: shape {ind_dims:?} overruns its indirection array"
                );
                // Read_indices: the scan reads the indirection array
                // through the DSM, so its pages are fetched like any
                // shared data.
                let n = sch.read_indices(p, data, ind, entries);
                let dt = p.cost().index_scan(n);
                p.compute(dt);
                v.scan_time += dt;
                // Write_protect(section): arm the watch on the pages
                // holding the indirection section.
                p.watch_pages(watch, sch.watched.iter().copied());
            }
            Desc::Direct {
                data,
                section,
                sched,
                ..
            } => {
                // pages[sch] = pages in section (cheap arithmetic), split
                // into fully- and partially-covered; kept while the
                // region and section stay the same.
                debug_assert_eq!(section.rank(), 1, "direct sections are 1-D");
                let dim = section.dims[0];
                let entry = v.schedules.entry(*sched).or_default();
                if entry.direct == Some((*data, dim)) {
                    continue;
                }
                entry.direct = Some((*data, dim));
                let pages = data.pages_of(dim.lo - 1, dim.hi - 1, dim.stride, page_size);
                entry.pages = pages.iter().collect();
                entry.full_pages.clear();
                entry.partial_pages.clear();
                if dim.stride == 1 && !dim.is_empty() {
                    let lo_byte = data.base + (dim.lo - 1) as usize * data.elem;
                    let hi_byte = data.base + dim.hi as usize * data.elem; // exclusive
                    for pg in pages.iter() {
                        let ps = pg as usize * page_size;
                        let pe = ps + page_size;
                        if ps >= lo_byte && pe <= hi_byte {
                            entry.full_pages.push(pg);
                        } else {
                            entry.partial_pages.push(pg);
                        }
                    }
                } else {
                    entry.partial_pages = entry.pages.clone();
                }
            }
        }
    }

    // Pass 2: fetch_pages += pages[sch] that are invalid. Pure WRITE_ALL
    // sections skip the fetch for their fully-covered pages (nothing old
    // is needed); boundary pages still fetch — their other half belongs
    // to someone else.
    let Validator {
        schedules, fetch, ..
    } = v;
    fetch.clear();
    for d in descs {
        let sch = &schedules[&d.sched()];
        let candidates: &[u32] = if d.access() == AccessType::WriteAll {
            &sch.partial_pages
        } else {
            &sch.pages
        };
        fetch.reserve(candidates.len());
        fetch.extend(candidates.iter().copied().filter(|&pg| p.page_invalid(pg)));
    }
    fetch.sort_unstable();
    fetch.dedup();

    // Fetch_diffs + Apply_diffs: one aggregated exchange per peer.
    if !fetch.is_empty() {
        p.fetch_pages(fetch, FetchClass::Aggregated);
    }

    // Create_twins / whole-page marking.
    for d in descs {
        let sch = &schedules[&d.sched()];
        match d.access() {
            AccessType::Write | AccessType::ReadWrite => p.pre_twin(&sch.pages),
            AccessType::WriteAll | AccessType::ReadWriteAll => {
                p.mark_full_write(&sch.full_pages);
                p.pre_twin(&sch.partial_pages);
            }
            AccessType::Read => {}
        }
    }
}

impl Sched {
    /// `Read_indices`: one walk over the indirection section that maps
    /// each target element to its page(s) in the data-page bitmap, then
    /// drains the bitmap into `pages` in ascending order; returns the
    /// entries scanned. The walk is ascending, so the entries on one
    /// indirection page form a run, and `watched` gains one page per run.
    fn read_indices(
        &mut self,
        p: &mut TmkProc,
        data: &RegionRef,
        ind: &SharedSlice<i32>,
        entries: FlatIndices,
    ) -> usize {
        let shift = p.page_size().trailing_zeros();
        // The words spanning the data region's pages.
        let end = data.base + data.len * data.elem;
        let span = (data.base >> shift >> 6, (end >> shift >> 6) + 1);
        let first = span.0 << 6;
        self.bits.clear();
        self.bits.resize(span.1 - span.0, 0);

        self.watched.clear();
        let mut n = 0;
        for fi in entries {
            let ip = (ind.byte_at(fi) >> shift) as u32;
            if self.watched.last() != Some(&ip) {
                self.watched.push(ip);
            }
            let target = p.read(ind, fi);
            debug_assert!(target >= 1, "indirection entries are 1-based");
            let t = (target - 1) as usize;
            debug_assert!(t < data.len, "indirection target out of range");
            let b = data.base + t * data.elem;
            for pg in [b >> shift, (b + data.elem - 1) >> shift] {
                let i = pg - first;
                self.bits[i >> 6] |= 1 << (i & 63);
            }
            n += 1;
        }

        // pages[sch] = the bitmap's set bits, ascending.
        self.pages.clear();
        for (w, mut word) in self.bits.iter().copied().enumerate() {
            while word != 0 {
                let pg = first + (w << 6) + word.trailing_zeros() as usize;
                self.pages.push(pg as u32);
                word &= word - 1;
            }
        }
        self.full_pages.clear();
        self.partial_pages.clone_from(&self.pages);
        self.recomputes += 1;
        self.direct = None;
        n
    }
}
