//! The pinned reusable-scratch acceptance test, in its own process so
//! the [`serve::alloc::Counting`] global allocator's counters see only
//! this test's traffic. One test function on purpose: the counters are
//! process-global, and a second test running on a sibling thread would
//! bleed allocations into the measurement windows.

use apps::workload::run_matrix;
use serve::{serve, ServeConfig, Stop};
use synth::{Dynamics, Prepared, Structure, SynthConfig};

#[global_allocator]
static ALLOC: serve::alloc::Counting = serve::alloc::Counting;

fn quick_cell() -> SynthConfig {
    let mut cfg = SynthConfig::quick(Structure::Uniform, Dynamics::PeriodicRemap { period: 3 });
    cfg.n = 512;
    cfg.refs = 1024;
    cfg.iters = 6;
    cfg
}

#[test]
fn warm_cells_are_strictly_cheaper_than_cold() {
    assert!(
        serve::alloc::allocations() > 0,
        "counting allocator not installed"
    );
    let prep = Prepared::new(quick_cell());

    // Cold reference: reuse off, every run builds fresh clusters. The
    // first run also warms the process (thread-local report buffers,
    // lazy statics), so measure the second.
    run_matrix(&prep);
    let a0 = serve::alloc::allocations();
    run_matrix(&prep);
    let cold = serve::alloc::allocations() - a0;

    // Warm: first reuse run checks fresh clusters out of an empty pool
    // and checks them back in recycled; the *next* run is the steady
    // state the serve driver lives in.
    prep.set_reuse(true);
    run_matrix(&prep);
    let b0 = serve::alloc::allocations();
    run_matrix(&prep);
    let warm = serve::alloc::allocations() - b0;

    assert!(
        warm < cold,
        "recycled-scratch run allocated {warm} times, cold run {cold} — reuse is not cheaper"
    );

    // And the driver's own steady-state check: with one worker and the
    // counting allocator live, net heap growth after warmup must stay
    // flat (the driver debug-asserts a ≤ 64 KiB bound internally).
    let out = serve(
        &[quick_cell()],
        &ServeConfig {
            workers: 1,
            stop: Stop::Jobs(8),
            thread_budget: 64,
            check_allocs: true,
            // Tracing disabled: the worker loop must stay allocation-free
            // per job — the trace ring buffers only exist behind the
            // `Some` arm, so `None` here keeps the 0 B/job measurement
            // honest (asserted below).
            trace: None,
        },
    );
    assert_eq!(out.jobs_done, 8);
    if cfg!(debug_assertions) {
        let growth = out
            .steady_growth
            .expect("debug build with counting allocator must measure steady growth");
        // With tracing disabled the steady window allocates nothing new —
        // measured growth is actually *negative* (pooled buffers shed a
        // little capacity), so the bound below is pure wiggle room, not
        // a budget. A positive-per-job leak (even 1 KiB/job) would blow
        // through it immediately.
        assert!(
            growth <= 64 * 1024,
            "steady-state heap grew by {growth} B over 8 jobs"
        );
    }
}
