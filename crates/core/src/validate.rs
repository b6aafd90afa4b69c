//! The `Validate` entry point — the run-time half of the paper's
//! compile-time/run-time pair (paper §3.2, Figure 3).

use std::collections::HashMap;

use dsm::{FetchClass, SimTime, TmkProc};
use rsd::PageSet;

use crate::descriptor::{flat_indices, AccessType, Desc};

/// Cached state for one schedule number: the page set computed by
/// `Read_indices` (or from a direct section) and, for indirect schedules,
/// the watch that detects indirection-array modification.
#[derive(Debug)]
struct Sched {
    pages: Vec<u32>,
    /// Pages entirely covered by the section (candidates for whole-page
    /// treatment under `WRITE_ALL`); always empty for indirect schedules.
    full_pages: Vec<u32>,
    /// Boundary pages only partially covered — the false-sharing frontier.
    partial_pages: Vec<u32>,
    watch: Option<usize>,
    recomputes: u64,
    /// Incremental mode: data pages contributed by each *indirection*
    /// page, so a partial rescan can replace just the dirty pages' share.
    by_ind_page: HashMap<u32, Vec<u32>>,
    /// Entries rescanned by partial recomputes (diagnostics).
    partial_scans: u64,
}

/// Diagnostic snapshot of a schedule (tests, reports).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduleInfo {
    pub pages: Vec<u32>,
    pub full_pages: Vec<u32>,
    pub partial_pages: Vec<u32>,
    pub recomputes: u64,
    /// Indirection entries rescanned by *partial* (incremental)
    /// recomputes.
    pub partial_scans: u64,
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
    /// Incremental `Read_indices` (the paper's §3.2 future-work
    /// extension): when the write-watch reports *which* indirection
    /// pages changed, rescan only the section entries on those pages.
    /// Off by default, matching the paper's implementation.
    incremental: bool,
}

impl Validator {
    pub fn new() -> Self {
        Validator::default()
    }

    /// A validator that recomputes page sets *incrementally* — the
    /// extension the paper sketches: "A more sophisticated version of
    /// this approach could use diffing ... to incrementally recompute
    /// the page sets, but our current implementation does not do so."
    pub fn incremental() -> Self {
        Validator {
            incremental: true,
            ..Default::default()
        }
    }

    pub fn schedule(&self, sched: u32) -> Option<ScheduleInfo> {
        self.schedules.get(&sched).map(|s| ScheduleInfo {
            pages: s.pages.clone(),
            full_pages: s.full_pages.clone(),
            partial_pages: s.partial_pages.clone(),
            recomputes: s.recomputes,
            partial_scans: s.partial_scans,
        })
    }

    /// Simulated seconds spent scanning indirection arrays.
    pub fn scan_seconds(&self) -> f64 {
        self.scan_time.as_secs_f64()
    }

    /// Is incremental recompute enabled?
    pub fn is_incremental(&self) -> bool {
        self.incremental
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
    let cost = p.cost().clone();

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
                let entry = v.schedules.entry(*sched).or_insert_with(Sched::empty);
                let watch = match entry.watch {
                    Some(w) => w,
                    None => {
                        let w = p.new_watch();
                        entry.watch = Some(w);
                        w
                    }
                };
                // modified()? — set by local protection faults and by
                // incoming write notices on the watched pages; born true.
                let dirty = if v.incremental {
                    p.take_modified_pages(watch)
                } else {
                    p.take_modified(watch).then(Vec::new)
                };
                if let Some(dirty_pages) = dirty {
                    // Read_indices: scan the indirection section and map
                    // each target element to its page(s). The scan reads
                    // the indirection array through the DSM, so its pages
                    // are fetched like any shared data. In incremental
                    // mode, a non-empty dirty list restricts the rescan
                    // to entries living on the dirtied indirection pages.
                    let flats = flat_indices(section, ind_dims);
                    let partial = v.incremental
                        && !dirty_pages.is_empty()
                        && v.schedules[sched].recomputes > 0;
                    let scan: Vec<usize> = if partial {
                        flats
                            .iter()
                            .copied()
                            .filter(|&fi| dirty_pages.binary_search(&ind.page_of(fi, page_size)).is_ok())
                            .collect()
                    } else {
                        flats.clone()
                    };

                    // Map rescanned entries to data pages, grouped by the
                    // indirection page they live on.
                    let mut groups: HashMap<u32, PageSet> = HashMap::new();
                    for &fi in &scan {
                        let target = p.read(ind, fi);
                        debug_assert!(target >= 1, "indirection entries are 1-based");
                        let t = (target - 1) as usize;
                        debug_assert!(t < data.len, "indirection target out of range");
                        let b = data.base + t * data.elem;
                        let set = groups.entry(ind.page_of(fi, page_size)).or_default();
                        set.insert((b / page_size) as u32);
                        let last = ((b + data.elem - 1) / page_size) as u32;
                        if last != (b / page_size) as u32 {
                            set.insert(last);
                        }
                    }
                    let dt = cost.index_scan(scan.len());
                    p.compute(dt);
                    v.scan_time += dt;

                    let sch = v.schedules.get_mut(sched).unwrap();
                    if !partial {
                        sch.by_ind_page.clear();
                    } else {
                        sch.partial_scans += scan.len() as u64;
                    }
                    for (ip, set) in groups {
                        let mut s = set;
                        s.finish();
                        sch.by_ind_page.insert(ip, s.iter().collect());
                    }
                    // Union of all groups = pages[sch].
                    let mut union = PageSet::with_capacity(64);
                    for pages in sch.by_ind_page.values() {
                        for &pg in pages {
                            union.insert(pg);
                        }
                    }
                    union.finish();
                    sch.pages = union.iter().collect();
                    sch.full_pages.clear();
                    sch.partial_pages = sch.pages.clone();
                    sch.recomputes += 1;

                    // Write_protect(section): arm the watch on the pages
                    // holding the indirection section.
                    let ind_pages: Vec<u32> = flats
                        .iter()
                        .map(|&fi| ind.page_of(fi, page_size))
                        .collect::<PageSet>()
                        .iter()
                        .collect();
                    p.watch_pages(watch, ind_pages.into_iter());
                }
            }
            Desc::Direct {
                data,
                section,
                sched,
                ..
            } => {
                // pages[sch] = pages in section (cheap arithmetic), split
                // into fully- and partially-covered.
                debug_assert_eq!(section.rank(), 1, "direct sections are 1-D");
                let dim = &section.dims[0];
                let pages = data.pages_of(dim.lo - 1, dim.hi - 1, dim.stride, page_size);
                let entry = v.schedules.entry(*sched).or_insert_with(Sched::empty);
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
    let mut fetch: Vec<u32> = Vec::new();
    for d in descs {
        let sch = &v.schedules[&d.sched()];
        let candidates: &[u32] = if d.access() == AccessType::WriteAll {
            &sch.partial_pages
        } else {
            &sch.pages
        };
        fetch.extend(candidates.iter().copied().filter(|&pg| p.page_invalid(pg)));
    }
    fetch.sort_unstable();
    fetch.dedup();

    // Fetch_diffs + Apply_diffs: one aggregated exchange per peer.
    if !fetch.is_empty() {
        p.fetch_pages(&fetch, FetchClass::Aggregated);
    }

    // Create_twins / whole-page marking.
    for d in descs {
        let sch = &v.schedules[&d.sched()];
        match d.access() {
            AccessType::Write | AccessType::ReadWrite => {
                let pages = sch.pages.clone();
                p.pre_twin(&pages);
            }
            AccessType::WriteAll | AccessType::ReadWriteAll => {
                let full = sch.full_pages.clone();
                let partial = sch.partial_pages.clone();
                p.mark_full_write(&full);
                p.pre_twin(&partial);
            }
            AccessType::Read => {}
        }
    }
}

impl Sched {
    fn empty() -> Self {
        Sched {
            pages: Vec::new(),
            full_pages: Vec::new(),
            partial_pages: Vec::new(),
            watch: None,
            recomputes: 0,
            by_ind_page: HashMap::new(),
            partial_scans: 0,
        }
    }
}
