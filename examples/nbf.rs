//! Run the nbf experiment (reduced scale), including the false-sharing
//! contrast the paper builds Table 2 around: a molecule count that tiles
//! pages exactly versus one that leaves partition boundaries mid-page.
//!
//! ```text
//! cargo run --release --example nbf
//! ```

use sdsm_repro::apps::nbf::NbfConfig;
use sdsm_repro::apps::workload::{run_variants, NbfWorkload, Variant};

fn main() {
    // 8192 molecules × 8B = 16 pages exactly; 8000 molecules misalign.
    for (label, n) in [("aligned (8x1024)", 8192usize), ("misaligned (8x1000)", 8000)] {
        let mut cfg = NbfConfig::paper(n);
        cfg.partners = 60;
        println!("\nnbf {label}: {} molecules, {} partners each", cfg.n, cfg.partners);
        run_variants(&NbfWorkload::new(cfg), &Variant::PAPER).print();
    }
    println!("\nThe misaligned size sends extra messages and data purely from");
    println!("false sharing at partition boundaries (paper §5.2.1).");
}
