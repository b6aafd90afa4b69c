//! Regenerate **Table 2** of the paper: the NBF kernel at
//! {64×1024, 64×1000, 32×1024} molecules, 8 processors.
//!
//! 64×1000 is the false-sharing case: 64000/8 = 8000 doubles per
//! processor = 15.625 pages, so partition boundaries fall mid-page.
//!
//! ```text
//! cargo run --release -p bench --bin table2 [-- --quick]
//! ```

use apps::workload::{run_variants, NbfWorkload, Variant};
use bench::cli::Cli;
use rayon::prelude::*;

fn main() {
    let scale = Cli::parse("table2 [--quick]").scale();
    println!("=== Table 2: NBF kernel — 8 processor results ===");

    // One run is one OS thread (its processors are coroutines on the
    // caller), so the independent configurations run side by side
    // through the rayon shim and are printed afterwards, in order.
    let sizes = [("64 x 1024", 65536usize), ("64 x 1000", 64000), ("32 x 1024", 32768)];
    let rows: Vec<_> = sizes
        .par_chunks(1)
        .map(|s| run_variants(&NbfWorkload::new(scale.nbf(s[0].1)), &Variant::PAPER))
        .collect();
    for ((label, _), m) in sizes.iter().zip(&rows) {
        m.print_titled(&format!("Problem size {label}"));
        let (chaos, opt) = (&m.get(Variant::Chaos).report, &m.get(Variant::TmkOpt).report);
        println!(
            "  in-text: CHAOS inspector (untimed) {:.1}s/proc; \
             Tmk indirection scan {:.3}s/proc",
            chaos.untimed_inspector_s, opt.validate_scan_s
        );
        println!(
            "  shape: opt/chaos time = {:.2}, chaos+inspector = {:.1}s vs opt {:.1}s",
            opt.time.as_secs_f64() / chaos.time.as_secs_f64(),
            chaos.time.as_secs_f64() + chaos.untimed_inspector_s,
            opt.time.as_secs_f64()
        );
    }
}
