//! Quickstart for the runtime-adaptive variants: the adaptive
//! aggregation engine and its update-push mode. No compiler hints, no
//! inspector — the runtime watches per-page miss/invalidation history,
//! batches the fetches it can predict, and in push mode lets the
//! writers ship the diffs in a single one-way message per peer.
//!
//! ```text
//! cargo run --release --example adaptive
//! ```

use sdsm_repro::adapt::AdaptivePolicy;
use sdsm_repro::dsm::{Cluster, DsmConfig};

/// An irregular producer/consumer: each epoch, every processor writes
/// its block and then reads a seeded scatter of remote elements — the
/// access pattern is data-dependent (no compiler could name it), but
/// stable across epochs, which is exactly what the engine learns. With
/// `Some(push)` the engine runs in pull (`false`) or push (`true`) mode.
fn run(push: Option<bool>) -> (u64, u64, sdsm_repro::simnet::PolicyReport) {
    let nprocs = 4;
    let epochs = 8;
    let n = 16 * 512; // 16 pages of f64 at 4 KB
    let cl = Cluster::new(DsmConfig::with_nprocs(nprocs));
    let data = cl.alloc::<f64>(n);

    if let Some(push) = push {
        cl.run(|p| p.set_policy(Box::new(AdaptivePolicy::new(push))));
    }

    cl.run(|p| {
        let me = p.rank();
        let chunk = n / p.nprocs();
        // A fixed pseudo-random read set per processor (SplitMix-style).
        let targets: Vec<usize> = (0..64)
            .map(|k| {
                let mut z = (me as u64 + 1) * 0x9E37_79B9 + k as u64 * 0xBF58_476D;
                z ^= z >> 13;
                (z as usize) % n
            })
            .collect();
        for e in 0..epochs {
            for i in me * chunk..(me + 1) * chunk {
                p.write(&data, i, (e * n + i) as f64);
            }
            p.barrier();
            let mut acc = 0.0;
            for &t in &targets {
                acc += p.read(&data, t);
            }
            assert!(acc >= 0.0);
            p.barrier();
        }
    });

    let rep = cl.report();
    (rep.messages, rep.bytes, cl.net().policy_report())
}

fn main() {
    println!("=== adaptive: runtime-learned aggregation, no compiler hints ===\n");
    let (base_msgs, base_bytes, _) = run(None);
    let (ad_msgs, ad_bytes, pol) = run(Some(false));
    let (push_msgs, push_bytes, push_pol) = run(Some(true));

    println!("{:<18} {:>10} {:>12}", "System", "Messages", "Bytes");
    println!("{:<18} {:>10} {:>12}", "Tmk base", base_msgs, base_bytes);
    println!("{:<18} {:>10} {:>12}", "Tmk adaptive", ad_msgs, ad_bytes);
    println!("{:<18} {:>10} {:>12}", "Tmk push", push_msgs, push_bytes);
    assert!(ad_msgs < base_msgs, "the learned pattern must cut traffic");
    assert!(push_msgs < ad_msgs, "update-push must cut the request legs");
    println!(
        "\nmessage reduction: adaptive {:.1}%, update-push {:.1}%",
        100.0 * (base_msgs - ad_msgs) as f64 / base_msgs as f64,
        100.0 * (base_msgs - push_msgs) as f64 / base_msgs as f64
    );
    println!(
        "policy decisions: {} epochs, {} promotions, {} prefetch rounds \
         covering {} pages, {} probes, {} demotions",
        pol.epochs,
        pol.promotions,
        pol.prefetch_rounds,
        pol.prefetch_pages,
        pol.probes,
        pol.demotions
    );
    println!(
        "push mode: {} one-way push rounds covering {} pages, {} plans quiesced",
        push_pol.push_rounds, push_pol.push_pages, push_pol.quiesced_plans
    );
    println!("\nSame results, fewer messages — learned at run time.");
}
