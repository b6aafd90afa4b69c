//! Golden tests: the compiler pipeline regenerates the paper's figures.
//!
//! Figure 1 (input) → transformation → Figure 2 (output), exactly as the
//! paper shows for moldyn's `ComputeForces`.

use fcc::fixtures::{MOLDYN_SOURCE, MOLDYN_TRANSFORMED_COMPUTEFORCES, NBF_SOURCE};

/// Extract one unit's text from an emitted program (from its header line
/// through its END).
fn unit_text(source: &str, header: &str) -> String {
    let start = source
        .find(header)
        .unwrap_or_else(|| panic!("no '{header}' in:\n{source}"));
    let rest = &source[start..];
    let end = rest.find("      END\n").expect("unit END") + "      END\n".len();
    rest[..end].to_string()
}

#[test]
fn figure2_regenerated_from_figure1() {
    let r = fcc::compile(MOLDYN_SOURCE).expect("compile");
    let got: String = unit_text(&r.source, "      SUBROUTINE ComputeForces()")
        .lines()
        // The paper's figures elide declarations.
        .filter(|l| !l.trim_start().starts_with("DIMENSION"))
        .map(|l| format!("{l}\n"))
        .collect();
    assert_eq!(
        got, MOLDYN_TRANSFORMED_COMPUTEFORCES,
        "transformed ComputeForces must match the paper's Figure 2"
    );
}

#[test]
fn figure2_validate_line_verbatim() {
    let r = fcc::compile(MOLDYN_SOURCE).unwrap();
    assert!(r.source.contains(
        "call Validate(1, INDIRECT, x, interaction_list[1:2, 1:num_interactions], READ, 1)"
    ));
}

#[test]
fn main_program_is_untouched_except_shared_reordering() {
    let r = fcc::compile(MOLDYN_SOURCE).unwrap();
    // No Validate in the main program: the irregular loop lives in
    // ComputeForces, and without interprocedural analysis the fetch point
    // is that subroutine's entry (paper §3.3).
    let main = unit_text(&r.source, "PROGRAM MOLDYN");
    assert!(!main.contains("Validate"));
    assert!(main.contains("call build_interaction_list()"));
}

#[test]
fn nbf_transformation_handles_nested_loops() {
    let r = fcc::compile(NBF_SOURCE).unwrap();
    // Multi-level structure: the partner list section carries the
    // array-valued loop bounds as opaque symbols.
    assert!(
        r.source
            .contains("INDIRECT, x, partners[last(0) + 1:last(num_molecules)], READ,"),
        "{}",
        r.source
    );
    assert!(r
        .source
        .contains("local_forces(n2) = local_forces(n2) - force"));
    // The site list carries the same information machine-readably.
    let site = r
        .sites
        .iter()
        .find(|s| s.unit == "computenbfforces")
        .unwrap();
    assert_eq!(site.reductions.len(), 1);
    assert!(site
        .descriptors
        .iter()
        .any(|d| d.ind.as_deref() == Some("partners")));
}

#[test]
fn transform_is_stable_modulo_validate_lines() {
    // The inserted `Validate` line uses the paper's section notation,
    // which is not part of the input language; stripping those lines and
    // re-compiling must reproduce the same sites and the same code.
    let r1 = fcc::compile(MOLDYN_SOURCE).unwrap();
    let stripped: String = r1
        .source
        .lines()
        .filter(|l| !l.contains("call Validate("))
        .map(|l| format!("{l}\n"))
        .collect();
    let r2 = fcc::compile(&stripped).unwrap();
    // Same descriptors; but no reductions remain to recognize — they were
    // already rewritten to local_forces (the transform is idempotent).
    assert_eq!(r1.sites[0].descriptors, r2.sites[0].descriptors);
    assert!(r2.sites[0].reductions.is_empty());
    assert_eq!(r1.source, r2.source);
}
