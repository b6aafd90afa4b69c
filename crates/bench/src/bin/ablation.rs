//! Ablations beyond the paper's tables — the design choices
//! ARCHITECTURE.md calls out (README.md §The bench bins lists the
//! curves). Run one (or all) studies:
//!
//! ```text
//! cargo run --release -p bench --bin ablation -- [study] [--quick]
//!   update-freq   moldyn time vs rebuild interval (paper's headline
//!                 claim as a curve, not three points)
//!   page-size     nbf 64×1000 vs consistency-unit size (false sharing)
//!   ttable        CHAOS inspector vs translation-table organization
//!   scaling       all three systems at 1..=8 processors
//!   opt-levels    base vs aggregation-only vs full optimization
//! ```

use apps::moldyn::MoldynConfig;
use apps::workload::{run_variants, MoldynWorkload, NbfWorkload, Variant};
use bench::cli::Cli;
use bench::Scale;
use chaos::{block_partition, inspector, ChaosWorld, TTable, TTableCache, TTableKind};

fn main() {
    let cli = Cli::parse("ablation [study] [--quick]");
    let scale = cli.scale();
    match cli.positionals.first().map_or("all", String::as_str) {
        "update-freq" => update_freq(scale),
        "page-size" => page_size(scale),
        "ttable" => ttable_study(scale),
        "scaling" => scaling(scale),
        "opt-levels" => opt_levels(scale),
        "all" => {
            update_freq(scale);
            page_size(scale);
            ttable_study(scale);
            scaling(scale);
            opt_levels(scale);
        }
        other => cli.usage_error(&format!(
            "unknown study '{other}' (update-freq | page-size | ttable | scaling | opt-levels)"
        )),
    }
}

fn moldyn_cfg(scale: Scale, interval: usize) -> MoldynConfig {
    let mut cfg = scale.moldyn(interval);
    if scale == Scale::Paper {
        cfg.n = 8192; // ablations run many points; half scale
        cfg.cutoff_frac = 0.15;
    }
    cfg
}

/// The paper's claim as a curve: "The advantage of this approach
/// increases as the frequency of changes to the indirection array
/// increases."
fn update_freq(scale: Scale) {
    println!("\n=== Ablation: update frequency (moldyn) ===");
    println!(
        "{:<10} {:>10} {:>10} {:>12} {:>14}",
        "interval", "CHAOS(s)", "TmkOpt(s)", "opt/chaos", "chaos+inspect"
    );
    for interval in [40usize, 20, 10, 5, 3] {
        let w = MoldynWorkload::new(moldyn_cfg(scale, interval));
        let m = run_variants(&w, &[Variant::Chaos, Variant::TmkOpt]);
        let (c, o) = (
            &m.get(Variant::Chaos).report,
            &m.get(Variant::TmkOpt).report,
        );
        println!(
            "{:<10} {:>10.1} {:>10.1} {:>12.2} {:>14.1}",
            interval,
            c.time.as_secs_f64(),
            o.time.as_secs_f64(),
            o.time.as_secs_f64() / c.time.as_secs_f64(),
            c.time.as_secs_f64() + c.untimed_inspector_s
        );
    }
}

/// False sharing vs consistency unit: nbf 64×1000 with different pages.
fn page_size(scale: Scale) {
    println!("\n=== Ablation: page size (nbf 64x1000, Tmk optimized) ===");
    println!(
        "{:<10} {:>10} {:>10} {:>10}",
        "page", "time(s)", "messages", "MB"
    );
    for page in [1024usize, 2048, 4096, 8192, 16384] {
        let mut cfg = scale.nbf(64000);
        cfg.page_size = page;
        let m = run_variants(&NbfWorkload::new(cfg), &[Variant::TmkOpt]);
        let o = &m.get(Variant::TmkOpt).report;
        println!(
            "{:<10} {:>10.1} {:>10} {:>10.1}",
            page,
            o.time.as_secs_f64(),
            o.messages,
            o.megabytes()
        );
    }
}

/// Inspector cost under the three translation-table organizations.
fn ttable_study(scale: Scale) {
    println!("\n=== Ablation: translation-table organization (inspector) ===");
    let n = if scale == Scale::Quick { 8192 } else { 65536 };
    let nprocs = 8;
    let part = block_partition(n, nprocs);
    let refs_per_proc = 64 * n / nprocs; // dense irregular access
    println!(
        "{:<14} {:>10} {:>12} {:>12} {:>10}",
        "organization", "msgs", "bytes", "inspect(s)", "mem/proc"
    );
    for (label, kind) in [
        ("replicated", TTableKind::Replicated),
        ("distributed", TTableKind::Distributed),
        (
            "paged(512)",
            TTableKind::Paged {
                entries_per_page: 512,
            },
        ),
    ] {
        let tt = TTable::new(kind, &part);
        let w = ChaosWorld::new(nprocs, Default::default());
        let secs = w.run(|cp| {
            let me = cp.rank();
            let mut cache = TTableCache::new();
            let refs = (0..refs_per_proc).map(|k| ((me * 97 + k * 131) % n) as u32);
            let t0 = cp.now();
            let _ = inspector(cp, &tt, &mut cache, refs);
            (cp.now() - t0).as_secs_f64()
        });
        let rep = w.report();
        println!(
            "{:<14} {:>10} {:>12} {:>12.2} {:>10}",
            label,
            rep.messages,
            rep.bytes,
            secs[0],
            tt.bytes_per_proc()
        );
    }
}

/// Processor scaling for the three systems on moldyn.
fn scaling(scale: Scale) {
    println!("\n=== Ablation: processor scaling (moldyn, update every 20) ===");
    println!(
        "{:<8} {:>10} {:>10} {:>10}",
        "nprocs", "CHAOS", "Tmk base", "Tmk opt"
    );
    for nprocs in [1usize, 2, 4, 8] {
        let mut cfg = moldyn_cfg(scale, 20);
        cfg.nprocs = nprocs;
        let m = run_variants(&MoldynWorkload::new(cfg), &Variant::PAPER);
        let [c, b, o] = Variant::PAPER.map(|v| &m.get(v).report);
        println!(
            "{:<8} {:>10.1} {:>10.1} {:>10.1}",
            nprocs,
            c.time.as_secs_f64(),
            b.time.as_secs_f64(),
            o.time.as_secs_f64()
        );
    }
}

/// Where the optimized build's win comes from: the paper attributes 7 of
/// moldyn's 11 percentage points to the regular-access support and 4 to
/// the indirect aggregation. Here: base, then only the indirect Validate
/// (no *_ALL epilogue), then full.
fn opt_levels(scale: Scale) {
    println!("\n=== Ablation: optimization levels (moldyn) ===");
    let w = MoldynWorkload::new(moldyn_cfg(scale, 20));
    let m = run_variants(&w, &[Variant::TmkBase, Variant::TmkOpt]);
    let (b, o) = (
        &m.get(Variant::TmkBase).report,
        &m.get(Variant::TmkOpt).report,
    );
    println!(
        "base:      {:>8.1} s  {:>9} msgs  {:>7.1} MB",
        b.time.as_secs_f64(),
        b.messages,
        b.megabytes()
    );
    println!(
        "optimized: {:>8.1} s  {:>9} msgs  {:>7.1} MB",
        o.time.as_secs_f64(),
        o.messages,
        o.megabytes()
    );
    println!(
        "improvement: {:.0}% time, {:.1}x fewer messages",
        100.0 * (1.0 - o.time.as_secs_f64() / b.time.as_secs_f64()),
        b.messages as f64 / o.messages.max(1) as f64
    );
}
