//! Diagnostic (ignored by default): print the barrier notice-metadata
//! bytes of the same fixed-size workload across cluster sizes — the
//! curve quoted in ARCHITECTURE.md's scaling section. Run with
//!
//! ```sh
//! cargo test -q -p synth --test notice_curve -- --ignored --nocapture
//! ```
//!
//! The asserted form of this curve (64-proc < 4× the 16-proc figure)
//! lives in `table_synth`; this test only regenerates the numbers.

use synth::notice_meta_probe;

#[test]
#[ignore = "diagnostic printout, not an assertion"]
fn print_notice_metadata_curve() {
    println!("nprocs  notice-metadata bytes (same workload: n=8192, 128 pages, 6 iters)");
    for nprocs in [4, 8, 16, 32, 64, 128] {
        println!("{nprocs:>6}  {}", notice_meta_probe(nprocs));
    }
}
