//! Run the moldyn experiment (reduced scale) across all three systems
//! and print a Table-1-style comparison.
//!
//! ```text
//! cargo run --release --example moldyn
//! ```

use sdsm_repro::apps::moldyn::MoldynConfig;
use sdsm_repro::apps::workload::{run_variants, MoldynWorkload, Variant};

fn main() {
    let mut cfg = MoldynConfig::paper(10);
    cfg.n = 4096; // reduced from the paper's 16384 for a quick demo
    cfg.steps = 20;
    cfg.cutoff_frac = 0.18;

    println!(
        "moldyn: {} molecules, {} steps, list rebuilt every {} steps, {} processors",
        cfg.n, cfg.steps, cfg.update_interval, cfg.nprocs
    );

    // Runs the sequential reference, then the paper's three systems,
    // cross-checking every result against sequential.
    let m = run_variants(&MoldynWorkload::new(cfg), &Variant::PAPER);
    m.print();
    let [chaos, base, opt] = Variant::PAPER.map(|v| &m.get(v).report);
    println!(
        "\nCHAOS spends {:.2} s/proc re-running the inspector in the loop;\n\
         TreadMarks+Validate spends {:.3} s/proc rescanning the indirection array.",
        chaos.inspector_s, opt.validate_scan_s
    );
    assert!(opt.messages < base.messages);
}
