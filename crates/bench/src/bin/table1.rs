//! Regenerate **Table 1** of the paper: moldyn, 8 processors, interaction
//! list rebuilt every {20, 15, 11} steps, then the §5.1.1 one-processor
//! rows.
//!
//! ```text
//! cargo run --release -p bench --bin table1            # paper scale
//! cargo run --release -p bench --bin table1 -- --quick # reduced scale
//! ```
//!
//! At paper scale the run asserts the paper's claim: Tmk optimized is no
//! slower than CHAOS, and its lead grows as the list changes more often
//! (opt/CHAOS time ≤ 1 and strictly falling over 20 → 15 → 11), with at
//! least 10× fewer messages than Tmk base. At 1/8 scale that claim
//! inverts, so `--quick` asserts only the one-processor CHAOS bar.

use apps::workload::{run_variants, MoldynWorkload, Variant};
use bench::cli::Cli;
use bench::{one_proc_bars, run_groups, Scale, ONE_PROC};

fn main() {
    let scale = Cli::parse("table1 [--quick]").scale();
    println!("=== Table 1: Moldyn — 8 processor results ===");
    println!("(interaction list updated at varying intervals; times are");
    println!(" simulated; see README.md §The bench bins for what each bin asserts)");

    let intervals = [20usize, 15, 11];
    let mut one = scale.moldyn(20);
    one.nprocs = 1;
    let groups = intervals
        .map(|i| (scale.moldyn(i), &Variant::PAPER[..]))
        .into_iter()
        .chain([(one, &ONE_PROC[..])]);
    let mut rows =
        run_groups(groups.map(|(cfg, vs)| move || run_variants(&MoldynWorkload::new(cfg), vs)));
    let one = rows.pop().expect("the one-processor group");

    let mut opt_over_chaos = Vec::new();
    let mut base_over_opt = Vec::new();
    for (interval, m) in intervals.iter().zip(&rows) {
        m.print_titled(&format!("Update every {interval} iterations"));
        let [chaos, base, opt] = Variant::PAPER.map(|v| &m.get(v).report);
        opt_over_chaos.push(opt.time.as_secs_f64() / chaos.time.as_secs_f64());
        base_over_opt.push(base.messages as f64 / opt.messages.max(1) as f64);
        println!(
            "  in-text: CHAOS inspector {:.1}s/proc timed (+{:.1}s untimed); \
             Tmk Validate indirection scan {:.2}s/proc",
            chaos.inspector_s, chaos.untimed_inspector_s, opt.validate_scan_s
        );
        println!(
            "  shape: opt/chaos time = {:.2}, base/opt messages = {:.1}x, \
             chaos+inspector = {:.1}s",
            opt_over_chaos.last().unwrap(),
            base_over_opt.last().unwrap(),
            chaos.time.as_secs_f64() + chaos.untimed_inspector_s
        );
    }

    let [seq, opt, chaos] = one_proc_bars(&one, scale);
    println!("\nOne processor, update every 20 iterations (paper §5.1.1):");
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
    if scale == Scale::Quick {
        println!("\nacceptance: one-processor CHAOS + inspector > Tmk  ✓ (opt/CHAOS, base/opt and Tmk ≈ seq are paper-scale bars: 1/8 scale inverts opt/CHAOS)");
        return;
    }
    let falling = opt_over_chaos.windows(2).all(|w| w[1] < w[0]);
    assert!(
        falling && opt_over_chaos[0] <= 1.0 && base_over_opt.iter().all(|&r| r >= 10.0),
        "opt/CHAOS time must be ≤ 1.0 and strictly falling over 20 → 15 → 11 \
         ({opt_over_chaos:.2?}) and base/opt messages ≥ 10x ({base_over_opt:.1?})"
    );
    println!("\nacceptance: opt/CHAOS ≤ 1.0 and strictly falling, base/opt messages ≥ 10x; one processor: CHAOS + inspector > Tmk, Tmk within 1% of seq  ✓");
}
