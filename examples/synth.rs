//! The synthetic irregular-workload engine: one scenario, all six
//! system variants, cross-checked bitwise by the generic `Workload`
//! runner.
//!
//! ```text
//! cargo run --release --example synth
//! ```

use sdsm_repro::apps::workload::{run_matrix, Variant};
use sdsm_repro::synth::{Dynamics, Prepared, Structure, SynthConfig};

fn main() {
    // A moldyn-flavoured cell: skewed interaction structure, wholesale
    // remap every 3 iterations.
    let cfg = SynthConfig::quick(
        Structure::PowerLaw { alpha: 2.0 },
        Dynamics::PeriodicRemap { period: 3 },
    );
    println!(
        "synth scenario {}: {} elements, {} raw refs, {} iterations",
        cfg.label(),
        cfg.n,
        cfg.refs,
        cfg.iters
    );
    let scenario = Prepared::new(cfg);
    println!(
        "{} distinct list versions, kappa = {:.5}\n",
        scenario.world().lists.len(),
        scenario.world().kappa
    );

    // Runs seq + Tmk base/opt/adaptive/push + CHAOS, asserting bitwise
    // agreement across all six before returning.
    let matrix = run_matrix(&scenario);
    matrix.print();

    let base = &matrix.get(Variant::TmkBase).report;
    let ad = &matrix.get(Variant::TmkAdaptive).report;
    let chaos = &matrix.get(Variant::Chaos).report;
    println!(
        "\nAll six variants bitwise-identical. Adaptive cut messages \
         {} -> {} ({}%) with no compiler hints;",
        base.messages,
        ad.messages,
        100 * base.messages.saturating_sub(ad.messages) / base.messages.max(1)
    );
    println!(
        "CHAOS re-ran its inspector {:.2} s/proc inside the timed region \
         (the list remaps every 3 iterations).",
        chaos.inspector_s
    );
    println!("\nThe full grid: cargo run --release -p bench --bin table_synth -- --quick");
}
