//! Regenerate **Table 2** of the paper: the NBF kernel at
//! {64×1024, 64×1000, 32×1024} molecules, 8 processors, then the
//! §5.2.1 one-processor rows at 64×1024.
//!
//! 64×1000 is the false-sharing case: 64000/8 = 8000 doubles per
//! processor = 15.625 pages, so partition boundaries fall mid-page.
//!
//! ```text
//! cargo run --release -p bench --bin table2 [-- --quick]
//! ```

use apps::workload::{run_variants, NbfWorkload, Variant};
use bench::cli::Cli;
use bench::{one_proc_bars, run_groups, Scale, ONE_PROC};

fn main() {
    let scale = Cli::parse("table2 [--quick]").scale();
    println!("=== Table 2: NBF kernel — 8 processor results ===");

    let sizes = [
        ("64 x 1024", 65536usize),
        ("64 x 1000", 64000),
        ("32 x 1024", 32768),
    ];
    let mut one = scale.nbf(65536);
    one.nprocs = 1;
    let groups = sizes
        .map(|(_, n)| (scale.nbf(n), &Variant::PAPER[..]))
        .into_iter()
        .chain([(one, &ONE_PROC[..])]);
    let mut rows =
        run_groups(groups.map(|(cfg, vs)| move || run_variants(&NbfWorkload::new(cfg), vs)));
    let one = rows.pop().expect("the one-processor group");

    for ((label, _), m) in sizes.iter().zip(&rows) {
        m.print_titled(&format!("Problem size {label}"));
        let (chaos, opt) = (
            &m.get(Variant::Chaos).report,
            &m.get(Variant::TmkOpt).report,
        );
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

    let [seq, opt, chaos] = one_proc_bars(&one, scale);
    println!("\nOne processor, problem size 64 x 1024 (paper §5.2.1):");
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
    if scale == Scale::Quick {
        println!("\nacceptance: one-processor CHAOS + inspector > Tmk  ✓ (Tmk ≈ seq is paper-scale only)");
    } else {
        println!("\nacceptance: one processor: CHAOS + inspector > Tmk, Tmk within 1% of seq  ✓");
    }
}
