//! Unstructured-mesh relaxation on all three systems — the third
//! irregular workload, exercising the public API beyond the paper's two
//! benchmarks.
//!
//! ```text
//! cargo run --release --example umesh
//! ```

use sdsm_repro::apps::umesh::UmeshConfig;
use sdsm_repro::apps::workload::{run_variants, UmeshWorkload, Variant};

fn main() {
    let cfg = UmeshConfig::medium();
    println!(
        "umesh: {}x{} grid ({} nodes), {} sweeps, {} processors",
        cfg.side,
        cfg.side,
        cfg.n(),
        cfg.sweeps,
        cfg.nprocs
    );
    let w = UmeshWorkload::new(cfg);
    let edges = w.kernel.world.lists[0].len();
    let grid = 2 * w.cfg.side * (w.cfg.side - 1);
    println!("{edges} edges ({} long-range)", edges - grid);

    // Sequential first, then the three systems — each checked bitwise
    // against it (umesh's fixed-order owner-side reduction).
    let m = run_variants(&w, &Variant::PAPER);
    m.print();
    let (chaos, opt) = (
        &m.get(Variant::Chaos).report,
        &m.get(Variant::TmkOpt).report,
    );
    println!(
        "\nStatic mesh: CHAOS's inspector ran once ({:.2} s/proc, untimed);\n\
         Validate scanned the edge list once ({:.3} s/proc) and reused the\n\
         cached schedule for every later sweep.",
        chaos.untimed_inspector_s, opt.validate_scan_s
    );
}
