//! Regenerate the paper's figures:
//!
//! * **Figure 1** — the moldyn main program and `ComputeForces` (our
//!   mini-Fortran fixture, printed through the same code generator);
//! * **Figure 2** — the compiler transformation of `ComputeForces`
//!   (produced *by running the `fcc` pipeline*, not stored);
//! * **Figure 3** — the augmented run-time interface for indirect
//!   accesses, as implemented by `sdsm_core::validate`.
//!
//! `cargo run -p bench --bin figures [-- 1|2|3]`

fn main() {
    let cli = bench::cli::Cli::parse("figures [1|2|3]");
    let which: Option<u32> = cli.positionals.first().map(|a| match a.parse() {
        Ok(n @ 1..=3) => n,
        _ => cli.usage_error(&format!("no figure '{a}'")),
    });
    if which.is_none_or(|w| w == 1) {
        figure1();
    }
    if which.is_none_or(|w| w == 2) {
        figure2();
    }
    if which.is_none_or(|w| w == 3) {
        figure3();
    }
}

fn figure1() {
    println!("=== Figure 1: Moldyn — main program and ComputeForces ===\n");
    let parsed = fcc::parse(fcc::fixtures::MOLDYN_SOURCE).expect("figure 1 parses");
    print!("{}", fcc::emit_program(&parsed));
    println!();
}

fn figure2() {
    println!("=== Figure 2: Transformations for ComputeForces ===\n");
    let result = fcc::compile(fcc::fixtures::MOLDYN_SOURCE).expect("compiles");
    // Print only the transformed subroutine, as the paper's figure does.
    let src = &result.source;
    let start = src.find("      SUBROUTINE ComputeForces()").unwrap();
    print!("{}", &src[start..]);
    println!();
    println!("(Validate sites emitted for the run-time:)");
    for site in &result.sites {
        for d in &site.descriptors {
            println!(
                "  unit={} sched={} {:?} data={} ind={:?} section={} access={}",
                site.unit, d.schedule, d.kind, d.data, d.ind, d.section, d.access
            );
        }
        for r in &site.reductions {
            println!("  reduction: {} -> {}", r.array, r.local);
        }
    }
}

fn figure3() {
    println!("=== Figure 3: Augmented run-time interface (as implemented) ===\n");
    println!("{}", FIGURE3);
}

/// The paper's Figure-3 pseudocode, annotated with where each piece
/// lives in this implementation.
const FIGURE3: &str = r#"Validate( descriptors... )          -> sdsm_core::validate
  for each access descriptor:
    type:    DIRECT | INDIRECT       -> sdsm_core::Desc::{Direct, Indirect}
    base:    shared data address     -> sdsm_core::RegionRef
    section: RSD                     -> rsd::Rsd (compiler: rsd::SymRsd)
    access:  READ | WRITE | READ&WRITE
             | WRITE_ALL | READ&WRITE_ALL -> sdsm_core::AccessType
    sch:     schedule number         -> Desc::sched

    if type == INDIRECT:
      if modified(section)           -> TmkProc::take_modified (page
                                        write-watch: local faults and
                                        remote write notices both trip it)
        pages[sch] = Read_indices()  -> validate() pass 1: scan the
                                        indirection section, map targets
                                        to pages
        Write_protect(section)       -> TmkProc::watch_pages
    else:
      pages[sch] = pages in section  -> RegionRef::pages_of

    fetch_pages += invalid pages[sch]

  Fetch_diffs(fetch_pages)           -> TmkProc::fetch_pages(Aggregated):
                                        ONE request/reply per peer
  Apply_diffs(fetch_pages)           -> applied in causal (vector-clock)
                                        order; a Full page subsumes
                                        older diffs

  for descriptors with WRITE | READ&WRITE:
    Create_twins(pages[sch])         -> TmkProc::pre_twin
  for descriptors with *_ALL:
    whole-page treatment             -> TmkProc::mark_full_write for
                                        fully-covered pages (no twin, no
                                        fetch for WRITE_ALL; whole page
                                        shipped instead of diffs);
                                        boundary pages fall back to
                                        twin/diff (false sharing)
"#;
