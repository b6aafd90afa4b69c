//! Regenerate **Table 1** of the paper: moldyn, 8 processors, interaction
//! list rebuilt every {20, 15, 11} steps.
//!
//! ```text
//! cargo run --release -p bench --bin table1            # paper scale
//! cargo run --release -p bench --bin table1 -- --quick # reduced scale
//! ```

use apps::workload::{run_variants, MoldynWorkload, Variant};
use bench::cli::Cli;
use rayon::prelude::*;

fn main() {
    let scale = Cli::parse("table1 [--quick]").scale();
    println!("=== Table 1: Moldyn — 8 processor results ===");
    println!("(interaction list updated at varying intervals; times are");
    println!(" simulated; see README.md §The bench bins for what each bin asserts)");

    // One run is one OS thread (its processors are coroutines on the
    // caller), so the independent rebuild intervals run side by side
    // through the rayon shim and are printed afterwards, in order.
    let intervals = [20usize, 15, 11];
    let rows: Vec<_> = intervals
        .par_chunks(1)
        .map(|i| run_variants(&MoldynWorkload::new(scale.moldyn(i[0])), &Variant::PAPER))
        .collect();
    for (interval, m) in intervals.iter().zip(&rows) {
        m.print_titled(&format!("Update every {interval} iterations"));
        let [chaos, base, opt] = Variant::PAPER.map(|v| &m.get(v).report);
        println!(
            "  in-text: CHAOS inspector {:.1}s/proc timed (+{:.1}s untimed); \
             Tmk Validate indirection scan {:.2}s/proc",
            chaos.inspector_s, chaos.untimed_inspector_s, opt.validate_scan_s
        );
        println!(
            "  shape: opt/chaos time = {:.2}, base/opt messages = {:.1}x, \
             chaos+inspector = {:.1}s",
            opt.time.as_secs_f64() / chaos.time.as_secs_f64(),
            base.messages as f64 / opt.messages.max(1) as f64,
            chaos.time.as_secs_f64() + chaos.untimed_inspector_s
        );
    }
}
