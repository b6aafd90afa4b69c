//! Two runtimes, one need: on every quick-grid cell, and on two sparse
//! dynamic cells built here, each processor's `Validate` page set equals
//! the pages of the elements CHAOS's inspector says the processor
//! references.
//!
//! `Read_indices` works in pages and the inspector in elements, and both
//! read the same indirection section. For each rank and each schedule
//! version the relaxation kernel meets (the initial one and every
//! rebuild, in run order), the oracle takes
//! * `Validate`'s cached page set, `Validator::schedule(1).pages`, after
//!   the rank rewrote its section of the shared list as the kernel does;
//! * CHAOS's: the rank's referenced owned elements plus, for each owner
//!   `q`, the offsets of `CommSchedule::recv(q)` shifted by `q`'s block
//!   start, mapped to the value array's DSM pages,
//!
//! and asserts that they are equal. A stale page set, one that keeps a
//! page the current section no longer references or misses one it
//! does, fails naming every cell it shows on, each with its first
//! mismatching rank, rebuild and page.

use std::collections::BTreeSet;

use chaos::{inspector, ChaosWorld, TTable, TTableCache, TTableKind};
use sdsm_core::{validate, Cluster, Validator};
use synth::{scenario_grid, Dynamics, Prepared, Structure, SynthConfig};

/// The schedule versions a run meets, in order: version 0 at
/// initialization, then each one an iteration moves to.
fn rebuilds(sv_of_iter: &[usize]) -> Vec<usize> {
    let mut svs = vec![0];
    for &sv in sv_of_iter {
        if svs.last() != Some(&sv) {
            svs.push(sv);
        }
    }
    svs
}

/// One list of page sets per rank.
type PerRank<T> = Vec<Vec<T>>;

/// Per rank, `Validate`'s page set after each rebuild (`None` where the
/// section is empty and the kernel skips `Validate`), and the page set of
/// the elements CHAOS's schedule names for each schedule version.
fn page_sets(prep: &Prepared) -> (PerRank<Option<Vec<u32>>>, PerRank<Vec<u32>>) {
    let k = prep.kernel();
    let (pl, nprocs) = (&k.plan, k.params.dsm.nprocs);
    let svs = rebuilds(&pl.sv_of_iter);

    let cl = Cluster::new(k.params.dsm.clone());
    let x = cl.alloc::<f64>(k.world.x0.len());
    let ilist = cl.alloc::<i32>(2 * pl.cap_pp * nprocs);
    let tmk = cl.run(|p| {
        let mut v = Validator::new();
        let svs = svs.iter().map(|&sv| {
            k.write_section(p, &ilist, sv);
            p.barrier();
            let len = pl.section(sv, p.rank()).len();
            (len > 0).then(|| {
                validate(p, &mut v, &[k.endpoint_desc(p.rank(), &x, &ilist, len)]);
                v.schedule(1).unwrap().pages
            })
        });
        svs.collect()
    });

    // The value array's pages, as `Validate` maps an element: the pages
    // of its first and last byte.
    let (shift, base) = (k.params.dsm.page_size.trailing_zeros(), x.base_byte());
    let first = base >> shift;
    let npages = ((base + 8 * k.world.x0.len() - 1) >> shift) + 1 - first;
    let ttables: Vec<_> = pl
        .parts
        .iter()
        .map(|part| TTable::new(TTableKind::Replicated, part))
        .collect();
    // The inspector's schedule depends on the section and the partition
    // alone, so CHAOS inspects each schedule version once.
    let w = ChaosWorld::new(nprocs, k.params.dsm.cost.clone());
    let chaos = w.run(|cp| {
        let me = cp.rank();
        let mut cache = TTableCache::new();
        let svs = (0..pl.sv_part.len()).map(|sv| {
            let (part, sec) = (&pl.parts[pl.sv_part[sv]], pl.section(sv, me));
            let refs = sec.iter().flat_map(|&(a, b)| [a, b]);
            let sched = inspector(cp, &ttables[pl.sv_part[sv]], &mut cache, refs);
            let mut hit = vec![false; npages];
            let mut mark = |e: usize| {
                let b = base + 8 * e;
                hit[(b >> shift) - first] = true;
                hit[((b + 7) >> shift) - first] = true;
            };
            let mine = part.range_of(me);
            for &(a, b) in sec {
                for e in [a as usize, b as usize] {
                    if mine.contains(&e) {
                        mark(e);
                    }
                }
            }
            for q in 0..nprocs {
                let start = part.range_of(q).start;
                for &off in sched.recv(q) {
                    mark(start + off as usize);
                }
            }
            let pages = (0..npages).filter(|&pg| hit[pg]);
            pages.map(|pg| (first + pg) as u32).collect()
        });
        svs.collect()
    });
    (tmk, chaos)
}

/// Sparse dynamic cells, kept out of `scenario_grid` (the benchmark's
/// workloads read it). On most quick-grid cells every rank references
/// nearly every value page, so a page set that keeps stale pages still
/// matches. Here the value array spans 64 pages, 16 per processor, and
/// each rank references a strict subset of them that moves with every
/// list rebuild: few uniform pairs under remapping, and a narrow band
/// under drift.
fn sparse_cells() -> Vec<SynthConfig> {
    let cell = |structure, dynamics, refs| SynthConfig {
        n: 4096,
        refs,
        ..SynthConfig::quick(structure, dynamics)
    };
    vec![
        cell(
            Structure::Uniform,
            Dynamics::PeriodicRemap { period: 3 },
            192,
        ),
        cell(
            Structure::Banded { width: 16 },
            Dynamics::Drift { per_mille: 25 },
            512,
        ),
    ]
}

/// The first page on which `got` and `want` differ, and which side has it.
fn first_difference(got: &[u32], want: &[u32]) -> (u32, &'static str, &'static str) {
    let (got, want): (BTreeSet<_>, BTreeSet<_>) = (got.iter().collect(), want.iter().collect());
    let pg = **got.symmetric_difference(&want).next().unwrap();
    if got.contains(&pg) {
        (pg, "Validate's", "CHAOS's")
    } else {
        (pg, "CHAOS's", "Validate's")
    }
}

#[test]
fn validate_page_sets_equal_the_inspectors() {
    let mut compared = 0;
    let mut mismatches = Vec::new();
    let sparse = sparse_cells().into_iter().map(|cfg| {
        let label = format!("{} (n {}, refs {})", cfg.label(), cfg.n, cfg.refs);
        (label, cfg)
    });
    let cells = scenario_grid(true)
        .into_iter()
        .map(|cfg| (cfg.label(), cfg));
    for (label, cfg) in cells.chain(sparse) {
        let prep = Prepared::new(cfg);
        let svs = rebuilds(&prep.kernel().plan.sv_of_iter);
        let (tmk, chaos) = page_sets(&prep);
        // The cell's first mismatch, if any: every cell is checked, so
        // one run names each cell a defect shows on.
        let mut first = None;
        for (rank, (tmk, chaos)) in tmk.iter().zip(&chaos).enumerate() {
            for (r, got) in tmk.iter().enumerate() {
                let want = &chaos[svs[r]];
                compared += 1;
                let Some(got) = got else {
                    assert!(want.is_empty(), "{label} rank {rank}: an empty section");
                    continue;
                };
                if got == want || first.is_some() {
                    continue;
                }
                let (pg, has, lacks) = first_difference(got, want);
                first = Some(format!(
                    "{label} rank {rank}, rebuild {r} (schedule version {}): page {pg} is in \
                     {has} page set but not in {lacks}",
                    svs[r]
                ));
            }
        }
        mismatches.extend(first);
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
    // Rank-rebuilds: 4 processors × (3 structures × 32 rebuilds of the six
    // steady dynamics + 18 of the churn cells), 8 × 3 and 64 × 3 static,
    // and 4 × (4 + 10) on the sparse cells.
    assert_eq!(compared, 4 * (3 * 32 + 18) + 8 * 3 + 64 * 3 + 4 * (4 + 10));
}
