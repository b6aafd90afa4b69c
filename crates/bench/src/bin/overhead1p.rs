//! The paper's §5 single-processor sanity checks:
//!
//! * "The TreadMarks execution time on a single processor is almost
//!   identical to that of the sequential program, spending only 0.4
//!   seconds to check the indirection lists."
//! * "the CHAOS program runs longer on a single processor than the
//!   sequential program, because it spends 6.2 seconds in the inspector."
//!
//! `cargo run --release -p bench --bin overhead1p [-- --quick]`

use apps::workload::{run_variants, MoldynWorkload, NbfWorkload, Variant};
use bench::cli::Cli;

fn main() {
    let scale = Cli::parse("overhead1p [--quick]").scale();
    let systems = [Variant::TmkOpt, Variant::Chaos];

    println!("=== Single-processor overheads (paper §5.1.1 / §5.2.1) ===\n");

    // moldyn at one rebuild.
    let mut cfg = scale.moldyn(20);
    cfg.nprocs = 1;
    let m = run_variants(&MoldynWorkload::new(cfg), &systems);
    let [seq, opt, chaos] = [0, 1, 2].map(|i| &m.runs[i].report);
    println!("moldyn (update every 20):");
    println!("  sequential            {:8.1} s", seq.time.as_secs_f64());
    println!(
        "  TreadMarks, 1 proc    {:8.1} s   (indirection check {:.2} s)",
        opt.time.as_secs_f64(),
        opt.validate_scan_s
    );
    println!(
        "  CHAOS, 1 proc         {:8.1} s   (+ inspector {:.1} s)",
        chaos.time.as_secs_f64(),
        chaos.inspector_s + chaos.untimed_inspector_s
    );

    // nbf 64×1024.
    let mut cfg = scale.nbf(65536);
    cfg.nprocs = 1;
    let m = run_variants(&NbfWorkload::new(cfg), &systems);
    let [seq, opt, chaos] = [0, 1, 2].map(|i| &m.runs[i].report);
    println!("\nnbf (64 x 1024):");
    println!("  sequential            {:8.1} s", seq.time.as_secs_f64());
    println!(
        "  TreadMarks, 1 proc    {:8.1} s   (indirection scan {:.3} s)",
        opt.time.as_secs_f64(),
        opt.validate_scan_s
    );
    println!(
        "  CHAOS, 1 proc         {:8.1} s   (+ inspector {:.1} s, untimed)",
        chaos.time.as_secs_f64(),
        chaos.untimed_inspector_s
    );
}
