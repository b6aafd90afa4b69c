//! The source-to-source transformation (paper §3.3):
//!
//! "During the program transformation phase, for each f in F, if there
//! are access descriptors associated with f, a Validate is inserted at
//! f." Irregular reductions are rewritten to accumulate into private
//! `local_*` arrays (Figure 2); the pipelined update of the shared array
//! is the run-time's job (the applications drive it with `WRITE_ALL`
//! descriptors).

use rsd::SymRsd;

use crate::analysis::{analyze_unit, AccessKind, UnitAnalysis};
use crate::ast::{Expr, Program, Stmt, Unit};
use crate::codegen::emit_program;

/// Descriptor kind — `DIRECT` or `INDIRECT` (Figure 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DescKind {
    Direct,
    Indirect,
}

/// One access descriptor of an inserted `Validate` call, in compiler
/// (symbolic) form. The applications evaluate the sections with their
/// per-processor symbol bindings and hand concrete descriptors to
/// `sdsm_core::validate`.
#[derive(Debug, Clone, PartialEq)]
pub struct SiteDesc {
    pub kind: DescKind,
    /// The shared data array being accessed.
    pub data: String,
    /// The indirection array (for `INDIRECT`).
    pub ind: Option<String>,
    /// Section of the indirection array (INDIRECT) or of the data itself
    /// (DIRECT).
    pub section: SymRsd,
    /// Declared shape of the indirection array, printed extents.
    pub ind_dims: Vec<String>,
    /// `READ`, `WRITE`, `READ&WRITE` (the `*_ALL` refinements are chosen
    /// by the run-time descriptors the application builds for its regular
    /// epilogue, not by this loop-nest analysis).
    pub access: String,
    pub schedule: u32,
}

/// An irregular reduction rewritten to a private accumulation array.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reduction {
    pub array: String,
    pub local: String,
}

/// A `Validate` insertion point (one per transformed unit).
#[derive(Debug, Clone, PartialEq)]
pub struct ValidateSite {
    pub unit: String,
    pub descriptors: Vec<SiteDesc>,
    pub reductions: Vec<Reduction>,
}

/// Output of [`transform`]: the rewritten program, its emitted source,
/// the machine-readable sites, and the raw analyses.
#[derive(Debug, Clone)]
pub struct TransformResult {
    pub program: Program,
    pub source: String,
    pub sites: Vec<ValidateSite>,
    pub analyses: Vec<UnitAnalysis>,
}

/// Transform every unit of `program`.
pub fn transform(program: &Program) -> TransformResult {
    let mut out = Program::default();
    let mut sites = Vec::new();
    let mut analyses = Vec::new();
    for unit in &program.units {
        let analysis = analyze_unit(unit);
        let (new_unit, site) = transform_unit(unit, &analysis);
        out.units.push(new_unit);
        if let Some(site) = site {
            sites.push(site);
        }
        analyses.push(analysis);
    }
    let source = emit_program(&out);
    TransformResult {
        program: out,
        source,
        sites,
        analyses,
    }
}

fn transform_unit(unit: &Unit, analysis: &UnitAnalysis) -> (Unit, Option<ValidateSite>) {
    // Build descriptors: one per shared array summary, skipping the
    // indirection arrays themselves (Read_indices brings their pages in)
    // and reduction targets (rewritten to local accumulation).
    let ind_arrays: Vec<&str> = analysis
        .accesses
        .iter()
        .filter_map(|s| match &s.kind {
            AccessKind::Indirect { ind, .. } => Some(ind.as_str()),
            _ => None,
        })
        .collect();

    let mut descriptors = Vec::new();
    let mut sched = 1u32;
    for s in &analysis.accesses {
        if analysis.reductions.iter().any(|r| r.array == s.array) {
            continue;
        }
        match &s.kind {
            AccessKind::Indirect {
                ind,
                ind_section,
                ind_dims,
            } => {
                descriptors.push(SiteDesc {
                    kind: DescKind::Indirect,
                    data: s.array.clone(),
                    ind: Some(ind.clone()),
                    section: ind_section.clone(),
                    ind_dims: ind_dims.clone(),
                    access: s.acc.tag().to_string(),
                    schedule: sched,
                });
                sched += 1;
            }
            AccessKind::Direct { section } => {
                if ind_arrays.contains(&s.array.as_str()) {
                    continue; // fetched by Read_indices itself
                }
                // Loop-bound arrays and other direct reads.
                descriptors.push(SiteDesc {
                    kind: DescKind::Direct,
                    data: s.array.clone(),
                    ind: None,
                    section: section.clone(),
                    ind_dims: Vec::new(),
                    access: s.acc.tag().to_string(),
                    schedule: sched,
                });
                sched += 1;
            }
        }
    }

    let reductions: Vec<Reduction> = analysis
        .reductions
        .iter()
        .map(|r| Reduction {
            array: r.array.clone(),
            local: r.local.clone(),
        })
        .collect();

    let mut new_unit = unit.clone();
    // Rename reduction arrays in their accumulation statements.
    for r in &reductions {
        rename_reduction(&mut new_unit.body, &r.array, &r.local);
    }
    // Insert the Validate at the fetch point (procedure entry).
    let site = if descriptors.is_empty() {
        None
    } else {
        new_unit
            .body
            .insert(0, Stmt::Raw(format_validate(&descriptors)));
        Some(ValidateSite {
            unit: unit.name.clone(),
            descriptors,
            reductions: reductions.clone(),
        })
    };
    (new_unit, site)
}

/// Print the paper-style `Validate` call (Figure 2):
/// `call Validate(1, INDIRECT, x, interaction_list[1:2, 1:n], READ, 1)`.
fn format_validate(descs: &[SiteDesc]) -> String {
    let mut s = format!("call Validate({}", descs.len());
    for d in descs {
        let kind = match d.kind {
            DescKind::Direct => "DIRECT",
            DescKind::Indirect => "INDIRECT",
        };
        let section_owner = d.ind.as_deref().unwrap_or(&d.data);
        s.push_str(&format!(
            ", {kind}, {}, {}{}, {}, {}",
            d.data, section_owner, d.section, d.access, d.schedule
        ));
    }
    s.push(')');
    s
}

/// Rewrite `a(...) = a(...) ± e` statements to use `local`.
fn rename_reduction(stmts: &mut [Stmt], array: &str, local: &str) {
    for s in stmts {
        match s {
            Stmt::Assign { lhs, rhs } => {
                if let Expr::ArrayRef(a, _) = lhs {
                    if a == array {
                        // Only the self-accumulation form gets renamed.
                        if let Expr::Bin(_, l, _) = rhs {
                            if **l == *lhs {
                                rename_expr(l, array, local);
                            }
                        }
                        rename_lhs(lhs, array, local);
                    }
                }
            }
            Stmt::Do { body, .. } => rename_reduction(body, array, local),
            Stmt::If {
                then_body,
                else_body,
                ..
            } => {
                rename_reduction(then_body, array, local);
                rename_reduction(else_body, array, local);
            }
            Stmt::Call { .. } | Stmt::Raw(_) => {}
        }
    }
}

fn rename_lhs(e: &mut Expr, array: &str, local: &str) {
    if let Expr::ArrayRef(a, _) = e {
        if a == array {
            *a = local.to_string();
        }
    }
}

fn rename_expr(e: &mut Expr, array: &str, local: &str) {
    match e {
        Expr::ArrayRef(a, subs) => {
            if a == array {
                *a = local.to_string();
            }
            for s in subs {
                rename_expr(s, array, local);
            }
        }
        Expr::Intrinsic(_, args) => {
            for a in args {
                rename_expr(a, array, local);
            }
        }
        Expr::Bin(_, l, r) => {
            rename_expr(l, array, local);
            rename_expr(r, array, local);
        }
        Expr::Neg(x) => rename_expr(x, array, local),
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    #[test]
    fn moldyn_site_matches_paper() {
        let p = parse(crate::fixtures::MOLDYN_SOURCE).unwrap();
        let r = transform(&p);
        let site = r
            .sites
            .iter()
            .find(|s| s.unit == "computeforces")
            .expect("ComputeForces must get a Validate");
        assert_eq!(site.descriptors.len(), 1, "{:?}", site.descriptors);
        let d = &site.descriptors[0];
        assert_eq!(d.kind, DescKind::Indirect);
        assert_eq!(d.data, "x");
        assert_eq!(d.ind.as_deref(), Some("interaction_list"));
        assert_eq!(d.section.to_string(), "[1:2, 1:num_interactions]");
        assert_eq!(d.access, "READ");
        assert_eq!(d.schedule, 1);
        assert_eq!(
            site.reductions,
            vec![Reduction {
                array: "forces".into(),
                local: "local_forces".into()
            }]
        );
    }

    #[test]
    fn reduction_statements_renamed() {
        let p = parse(crate::fixtures::MOLDYN_SOURCE).unwrap();
        let r = transform(&p);
        assert!(r
            .source
            .contains("local_forces(n1) = local_forces(n1) + force"));
        assert!(r
            .source
            .contains("local_forces(n2) = local_forces(n2) - force"));
        // the reads of x are untouched
        assert!(r.source.contains("force = x(n1) - x(n2)"));
    }

    #[test]
    fn nbf_site_has_indirect_and_direct() {
        let p = parse(crate::fixtures::NBF_SOURCE).unwrap();
        let r = transform(&p);
        let site = r
            .sites
            .iter()
            .find(|s| s.unit == "computenbfforces")
            .unwrap();
        let kinds: Vec<DescKind> = site.descriptors.iter().map(|d| d.kind).collect();
        assert!(kinds.contains(&DescKind::Indirect));
        // x(i) direct + last direct (loop bounds).
        let x_ind = site
            .descriptors
            .iter()
            .find(|d| d.kind == DescKind::Indirect && d.data == "x")
            .unwrap();
        assert_eq!(x_ind.ind.as_deref(), Some("partners"));
    }

    #[test]
    fn program_without_shared_gets_no_sites() {
        let src = "PROGRAM t\nDO i = 1, n\na(i) = 0\nENDDO\nEND\n";
        let p = parse(src).unwrap();
        let r = transform(&p);
        assert!(r.sites.is_empty());
        assert!(!r.source.contains("Validate"));
    }
}
