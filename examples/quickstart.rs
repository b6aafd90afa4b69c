//! Quickstart: shared memory on the simulated cluster in ~40 lines.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! Allocates a shared array, runs an SPMD body on 4 simulated
//! processors (coroutines on this thread), exercises barriers, locks, and
//! demand-paged sharing, then prints the protocol traffic.

use sdsm_repro::core_rt::{Cluster, DsmConfig};

fn main() {
    let cl = Cluster::new(DsmConfig::with_nprocs(4));
    let data = cl.alloc::<f64>(4096); // 8 pages of shared f64s
    let total = cl.alloc::<f64>(8);

    cl.run(|p| {
        let me = p.rank();
        let n = data.len();
        let chunk = n / p.nprocs();

        // Every processor fills its block (multiple-writer protocol:
        // concurrent writers to one page merge by diffs).
        for i in me * chunk..(me + 1) * chunk {
            p.write(&data, i, (i % 7) as f64);
        }
        p.barrier();

        // Everyone reads a neighbour's block — demand paging fetches
        // exactly the pages touched, as diffs from their writers.
        let nb = (me + 1) % p.nprocs();
        let mut sum = 0.0;
        for i in nb * chunk..(nb + 1) * chunk {
            sum += p.read(&data, i);
        }

        // A lock-protected global reduction.
        p.lock(1);
        let cur = p.read(&total, 0);
        p.write(&total, 0, cur + sum);
        p.unlock(1);
        p.barrier();

        if me == 0 {
            let grand = p.read(&total, 0);
            println!("grand total = {grand}");
            assert_eq!(grand, (0..data.len()).map(|i| (i % 7) as f64).sum());
        }
    });

    let rep = cl.report();
    println!(
        "simulated time {:.3} ms, {} messages, {} bytes",
        cl.elapsed().as_secs_f64() * 1e3,
        rep.messages,
        rep.bytes
    );
    for (kind, msgs, bytes) in &rep.per_kind {
        println!("  {:<10} {:>6} msgs {:>10} bytes", kind.name(), msgs, bytes);
    }
}
