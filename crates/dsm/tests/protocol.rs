//! Protocol-level integration tests for the TreadMarks-style DSM:
//! lazy-invalidate release consistency, the multiple-writer protocol,
//! garbage collection, locks, and the Validate support hooks.

use dsm::{Cluster, DsmConfig, FetchClass, MsgKind, PageState};

fn cluster(nprocs: usize) -> Cluster {
    Cluster::new(DsmConfig::with_nprocs(nprocs))
}

#[test]
fn multiple_writers_on_one_page_merge_at_barrier() {
    // Two processors write disjoint words of the SAME page concurrently —
    // the false-sharing case the multiple-writer protocol exists for.
    let cl = cluster(2);
    let s = cl.alloc::<f64>(16); // one page
    cl.run(|p| {
        let me = p.rank();
        p.write(&s, me * 8, (me + 1) as f64);
        p.barrier();
        assert_eq!(p.read(&s, 0), 1.0);
        assert_eq!(p.read(&s, 8), 2.0);
        p.barrier();
    });
}

#[test]
fn eight_writers_one_page() {
    let cl = cluster(8);
    let s = cl.alloc::<f64>(512); // one page of 4096 bytes
    cl.run(|p| {
        let me = p.rank();
        for k in 0..64 {
            p.write(&s, me * 64 + k, (me * 1000 + k) as f64);
        }
        p.barrier();
        for q in 0..8 {
            for k in 0..64 {
                assert_eq!(p.read(&s, q * 64 + k), (q * 1000 + k) as f64);
            }
        }
        p.barrier();
    });
}

#[test]
fn invalidation_only_at_acquire() {
    // LRC: a write is NOT visible until the reader synchronizes.
    let cl = cluster(2);
    let s = cl.alloc::<f64>(8);
    let flag = cl.alloc::<f64>(8);
    cl.run(|p| {
        if p.rank() == 0 {
            p.write(&s, 0, 9.0);
            p.barrier(); // release
            p.barrier();
        } else {
            // Touch the page before p0's barrier: value still old (0).
            let v0 = p.read(&s, 0);
            p.barrier();
            // After the barrier (acquire) the page is invalid; a read
            // faults and fetches the diff.
            assert_eq!(p.page_state(s.pages(p.page_size()).start), PageState::Invalid);
            let v1 = p.read(&s, 0);
            assert_eq!(v0, 0.0, "no consistency action before the acquire");
            assert_eq!(v1, 9.0, "diff fetched after the acquire");
            p.barrier();
        }
        let _ = flag;
    });
}

#[test]
fn write_to_invalid_page_merges_remote_content_first() {
    // p1 writes word 1 of a page p0 modified (word 0): the write fault
    // must fetch p0's diff before twinning, or p0's data would be lost.
    let cl = cluster(2);
    let s = cl.alloc::<f64>(8);
    cl.run(|p| {
        if p.rank() == 0 {
            p.write(&s, 0, 5.0);
        }
        p.barrier();
        if p.rank() == 1 {
            p.write(&s, 1, 6.0);
        }
        p.barrier();
        assert_eq!(p.read(&s, 0), 5.0);
        assert_eq!(p.read(&s, 1), 6.0);
        p.barrier();
    });
}

#[test]
fn garbage_collection_folds_and_master_serves_stale_readers() {
    let cl = cluster(2);
    let s = cl.alloc::<f64>(8);
    let other = cl.alloc::<f64>(8);
    cl.run(|p| {
        if p.rank() == 0 {
            p.write(&s, 0, 1.25);
        }
        // Many epochs of unrelated work so the record gets folded.
        for it in 0..6 {
            if p.rank() == 0 {
                p.write(&other, 0, it as f64);
            }
            p.barrier();
        }
        if p.rank() == 1 {
            // First touch ever: the diff is long gone — master copy path.
            assert_eq!(p.read(&s, 0), 1.25);
            assert!(p.counters().master_fetches >= 1, "expected a master fetch");
        }
        p.barrier();
    });
    // The fold horizon lags one barrier, so retention stays bounded.
    assert!(cl.retained_records() <= 4, "records leak: {}", cl.retained_records());
}

#[test]
fn lock_transfers_consistency() {
    // Classic lock-protected producer/consumer with no barrier: the
    // acquirer must see the releaser's writes (notices ride the grant).
    let cl = cluster(2);
    let s = cl.alloc::<f64>(8);
    cl.run(|p| {
        if p.rank() == 0 {
            p.lock(1);
            p.write(&s, 0, 3.5);
            p.unlock(1);
            p.barrier();
        } else {
            // Spin until the value is visible through the lock.
            loop {
                p.lock(1);
                let v = p.read(&s, 0);
                p.unlock(1);
                if v == 3.5 {
                    break;
                }
                std::thread::yield_now();
            }
            p.barrier();
        }
    });
    assert!(cl.report().messages_per_kind(MsgKind::Lock) > 0);
}

#[test]
fn lock_mutual_exclusion_counter() {
    let cl = cluster(4);
    let s = cl.alloc::<f64>(8);
    const PER_PROC: usize = 25;
    cl.run(|p| {
        for _ in 0..PER_PROC {
            p.lock(7);
            let v = p.read(&s, 0);
            p.write(&s, 0, v + 1.0);
            p.unlock(7);
        }
        p.barrier();
        assert_eq!(p.read(&s, 0), (4 * PER_PROC) as f64);
        p.barrier();
    });
}

#[test]
fn reacquiring_own_lock_is_message_free() {
    let cl = cluster(2);
    cl.run(|p| {
        if p.rank() == 0 {
            p.lock(3);
            p.unlock(3);
            let before = p.counters().lock_acquires;
            assert_eq!(before, 1);
        }
        p.barrier();
    });
    let msgs_after_first = cl.report().messages_per_kind(MsgKind::Lock);
    cl.run(|p| {
        if p.rank() == 0 {
            p.lock(3); // cached ownership
            p.unlock(3);
        }
        p.barrier();
    });
    assert_eq!(
        cl.report().messages_per_kind(MsgKind::Lock),
        msgs_after_first,
        "reacquire must add no lock messages"
    );
}

#[test]
fn full_write_publishes_whole_page_and_skips_twin() {
    let cl = cluster(2);
    let s = cl.alloc::<f64>(512); // exactly one page
    cl.run(|p| {
        let pages: Vec<u32> = s.pages(p.page_size()).collect();
        if p.rank() == 0 {
            p.mark_full_write(&pages);
            for i in 0..512 {
                p.write(&s, i, i as f64);
            }
            assert_eq!(p.counters().twins_made, 0, "WRITE_ALL takes no twin");
        }
        p.barrier();
        if p.rank() == 1 {
            assert_eq!(p.read(&s, 511), 511.0);
        }
        p.barrier();
        if p.rank() == 0 {
            assert_eq!(p.counters().fulls_published, 1);
        }
    });
}

#[test]
fn pre_twin_eliminates_write_faults() {
    let cl = cluster(1);
    let s = cl.alloc::<f64>(2048); // 4 pages
    cl.run(|p| {
        // Validate-style: fetch + twin ahead of the loop.
        let pages: Vec<u32> = s.pages(p.page_size()).collect();
        p.fetch_pages(&pages, FetchClass::Aggregated);
        p.pre_twin(&pages);
        let faults_before = p.counters().write_faults;
        for i in 0..2048 {
            p.write(&s, i, 1.0);
        }
        assert_eq!(p.counters().write_faults, faults_before);
        assert_eq!(p.counters().twins_made, 4);
    });
}

#[test]
fn aggregated_fetch_uses_one_exchange_per_peer() {
    // One writer dirties many pages; a reader fetching them by demand
    // pays 2 messages per page, while the aggregated fetch pays 2 total.
    const PAGES: usize = 10;
    let make = || {
        let cl = cluster(2);
        let s = cl.alloc::<f64>(512 * PAGES);
        (cl, s)
    };

    let (cl_demand, s) = make();
    cl_demand.run(|p| {
        if p.rank() == 0 {
            for pg in 0..PAGES {
                p.write(&s, pg * 512, 1.0);
            }
        }
        p.barrier();
        if p.rank() == 1 {
            for pg in 0..PAGES {
                let _ = p.read(&s, pg * 512); // one demand fault per page
            }
        }
        p.barrier();
    });

    let (cl_agg, s2) = make();
    cl_agg.run(|p| {
        if p.rank() == 0 {
            for pg in 0..PAGES {
                p.write(&s2, pg * 512, 1.0);
            }
        }
        p.barrier();
        if p.rank() == 1 {
            let pages: Vec<u32> = s2.pages(p.page_size()).collect();
            p.fetch_pages(&pages, FetchClass::Aggregated);
            for pg in 0..PAGES {
                assert_eq!(p.read(&s2, pg * 512), 1.0);
            }
        }
        p.barrier();
    });

    let demand = cl_demand.report();
    let agg = cl_agg.report();
    assert_eq!(demand.messages_per_kind(MsgKind::DiffRequest), PAGES as u64);
    assert_eq!(agg.messages_per_kind(MsgKind::AggRequest), 1);
    assert!(agg.messages + 2 * PAGES as u64 - 2 <= demand.messages);
    // Same payload moved either way.
    assert_eq!(
        demand.bytes_per_kind(MsgKind::DiffReply),
        agg.bytes_per_kind(MsgKind::AggReply)
    );
    // ... and the aggregated fetch is faster in simulated time.
    assert!(cl_agg.elapsed() < cl_demand.elapsed());
}

#[test]
fn watch_fires_on_local_write_and_remote_notice() {
    let cl = cluster(2);
    let ind = cl.alloc::<i32>(1024); // one page
    cl.run(|p| {
        let key = p.new_watch();
        assert!(p.take_modified(key), "watches are born dirty");
        assert!(!p.take_modified(key), "take clears");

        // Fetch so the page is valid, then arm the watch.
        let pages: Vec<u32> = ind.pages(p.page_size()).collect();
        p.fetch_pages(&pages, FetchClass::Aggregated);
        p.watch_pages(key, pages.iter().copied());
        p.barrier();

        if p.rank() == 0 {
            p.write(&ind, 0, 42); // local write → protection fault → flag
            assert!(p.take_modified(key));
        }
        p.barrier();
        if p.rank() == 1 {
            // Remote modification arrived as a write notice at the barrier.
            assert!(p.take_modified(key));
            assert_eq!(p.read(&ind, 0), 42);
        }
        p.barrier();
    });
}

#[test]
fn counts_are_deterministic_across_identical_runs() {
    let run_once = || {
        let cl = cluster(4);
        let s = cl.alloc::<f64>(4096);
        cl.run(|p| {
            let me = p.rank();
            let n = s.len();
            let chunk = n / p.nprocs();
            for it in 0..3 {
                for i in me * chunk..(me + 1) * chunk {
                    p.write(&s, i, (it * 10 + me) as f64);
                }
                p.barrier();
                // read a neighbour's chunk
                let nb = (me + 1) % p.nprocs();
                let mut sum = 0.0;
                for i in nb * chunk..(nb + 1) * chunk {
                    sum += p.read(&s, i);
                }
                assert!(sum >= 0.0);
                p.barrier();
            }
        });
        let r = cl.report();
        (r.messages, r.bytes, cl.elapsed())
    };
    assert_eq!(run_once(), run_once());
}

#[test]
fn page_size_is_configurable() {
    let cfg = DsmConfig {
        nprocs: 2,
        page_size: 1024,
        ..Default::default()
    };
    let cl = Cluster::new(cfg);
    let s = cl.alloc::<f64>(512); // 4 KB = 4 pages of 1 KB
    cl.run(|p| {
        if p.rank() == 0 {
            for i in 0..512 {
                p.write(&s, i, 2.0);
            }
        }
        p.barrier();
        if p.rank() == 1 {
            for i in (0..512).step_by(128) {
                assert_eq!(p.read(&s, i), 2.0);
            }
            assert_eq!(p.counters().read_faults, 4, "one fault per 1 KB page");
        }
        p.barrier();
    });
}

#[test]
fn update_and_bulk_accessors() {
    let cl = cluster(2);
    let s = cl.alloc::<f64>(64);
    cl.run(|p| {
        if p.rank() == 0 {
            p.write_slice(&s, 0, &[1.0, 2.0, 3.0, 4.0]);
            p.update(&s, 1, |v| v * 10.0);
        }
        p.barrier();
        if p.rank() == 1 {
            let mut buf = [0.0f64; 4];
            p.read_slice(&s, 0, &mut buf);
            assert_eq!(buf, [1.0, 20.0, 3.0, 4.0]);
        }
        p.barrier();
    });
}

#[test]
fn mixed_pod_types_share_pages_safely() {
    // An i32 array and an f64 array; writers on different processors.
    let cl = cluster(2);
    let ints = cl.alloc::<i32>(16);
    let floats = cl.alloc::<f64>(16);
    let longs = cl.alloc::<u64>(4);
    cl.run(|p| {
        if p.rank() == 0 {
            p.write(&ints, 3, -7);
            p.write(&longs, 0, u64::MAX);
        } else {
            p.write(&floats, 3, 2.5);
        }
        p.barrier();
        assert_eq!(p.read(&ints, 3), -7);
        assert_eq!(p.read(&floats, 3), 2.5);
        assert_eq!(p.read(&longs, 0), u64::MAX);
        assert_eq!(p.read(&ints, 0), 0);
        p.barrier();
    });
}

#[test]
fn three_processors_uneven() {
    // Odd processor counts exercise non-power-of-two barriers/pipelines.
    let cl = cluster(3);
    let s = cl.alloc::<f64>(300);
    cl.run(|p| {
        let me = p.rank();
        for i in (me * 100)..((me + 1) * 100) {
            p.write(&s, i, me as f64 + 1.0);
        }
        p.barrier();
        let total: f64 = (0..300).map(|i| p.read(&s, i)).sum();
        assert_eq!(total, 100.0 * (1.0 + 2.0 + 3.0));
        p.barrier();
    });
}

#[test]
fn write_all_versus_twin_data_volume() {
    // Full-page publications ship whole pages; diff publications of a
    // fully rewritten page carry roughly the same bytes — the win shows
    // in *fetch* traffic when readers consume stacked modifications
    // (covered by core::tests); here: both publish paths roundtrip.
    let cl = cluster(2);
    let a = cl.alloc::<f64>(512);
    cl.run(|p| {
        if p.rank() == 0 {
            let pages: Vec<u32> = a.pages(p.page_size()).collect();
            p.mark_full_write(&pages);
            for i in 0..512 {
                p.write(&a, i, 3.0);
            }
        }
        p.barrier();
        if p.rank() == 1 {
            assert_eq!(p.read(&a, 0), 3.0);
            assert_eq!(p.read(&a, 511), 3.0);
        }
        p.barrier();
    });
}

#[test]
fn lock_ping_pong_transfers_latest_values() {
    // Strict alternation through two locks: a token-passing pattern where
    // every acquire must observe the other side's latest increment.
    let cl = cluster(2);
    let s = cl.alloc::<f64>(8);
    const ROUNDS: usize = 10;
    cl.run(|p| {
        let me = p.rank();
        for round in 0..ROUNDS {
            loop {
                p.lock(9);
                let v = p.read(&s, 0) as usize;
                // v counts completed half-rounds; it's my turn when
                // v % 2 == me.
                if v == 2 * round + me {
                    p.write(&s, 0, (v + 1) as f64);
                    p.unlock(9);
                    break;
                }
                p.unlock(9);
                std::thread::yield_now();
            }
        }
        p.barrier();
        assert_eq!(p.read(&s, 0), (2 * ROUNDS) as f64);
    });
}

#[test]
fn heap_growth_between_runs() {
    let cl = cluster(2);
    let a = cl.alloc::<f64>(8);
    cl.run(|p| {
        if p.rank() == 0 {
            p.write(&a, 0, 1.0);
        }
        p.barrier();
    });
    // Allocate more shared memory after a run; frames must grow.
    let b = cl.alloc::<f64>(4096);
    cl.run(|p| {
        if p.rank() == 1 {
            p.write(&b, 4095, 9.0);
        }
        p.barrier();
        assert_eq!(p.read(&a, 0), 1.0);
        assert_eq!(p.read(&b, 4095), 9.0);
        p.barrier();
    });
}

/// The message of a caught panic payload (`panic!` with or without
/// format arguments).
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    match payload.downcast::<String>() {
        Ok(s) => *s,
        Err(p) => p
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .unwrap_or_default(),
    }
}

#[test]
fn run_returns_each_processors_value_in_rank_order() {
    for nprocs in [1, 4, 64] {
        let cl = cluster(nprocs);
        let s = cl.alloc::<f64>(nprocs);
        let got = cl.run(|p| {
            p.write(&s, p.rank(), p.rank() as f64);
            p.barrier();
            let right = (p.rank() + 1) % nprocs;
            (p.rank(), p.read(&s, right))
        });
        let want: Vec<_> = (0..nprocs)
            .map(|r| (r, ((r + 1) % nprocs) as f64))
            .collect();
        assert_eq!(got, want);
        assert_eq!(cl.spmd_launches(), 1);
    }
}

/// `read_back` is the rank-0 read-back a second `cl.run` used to do,
/// minus the threads: on two identically driven clusters it returns the
/// same data for the same messages, bytes and simulated time — on a
/// false-shared page with four writers (diffs fetched from three peers)
/// and on a page whose only diff was folded long ago (master fetch).
#[test]
fn read_back_costs_exactly_what_rank_0_reading_in_a_second_run_costs() {
    let drive = |cl: &Cluster| {
        let shared = cl.alloc::<f64>(512); // one page
        let folded = cl.alloc::<f64>(8);
        let other = cl.alloc::<f64>(8);
        cl.run(|p| {
            let me = p.rank();
            if me == 1 {
                p.write(&folded, 0, 1.25);
            }
            // Many epochs of unrelated work so that record gets folded.
            for it in 0..6 {
                if me == 1 {
                    p.write(&other, 0, it as f64);
                }
                p.barrier();
            }
            for i in (me..shared.len()).step_by(4) {
                p.write(&shared, i, (10 * i + me) as f64);
            }
            p.barrier();
        });
        (shared, folded, cl.report(), cl.elapsed())
    };
    let cost = |cl: &Cluster, before: &dsm::NetReport| {
        let after = cl.report();
        (
            after.messages - before.messages,
            after.bytes - before.bytes,
            cl.elapsed(),
        )
    };

    let old = cluster(4);
    let (shared, folded, before, t0) = drive(&old);
    let old_run = old.run(|p| {
        if p.rank() != 0 {
            return Vec::new();
        }
        let page: Vec<f64> = (0..shared.len()).map(|i| p.read(&shared, i)).collect();
        let shared_faults = p.counters().read_faults;
        let cold: Vec<f64> = (0..folded.len()).map(|i| p.read(&folded, i)).collect();
        assert!(shared_faults >= 1 && p.counters().master_fetches >= 1);
        [page, cold].concat()
    });
    let old_data = &old_run[0];
    let old_cost = cost(&old, &before);
    assert!(old_cost.0 >= 2 * 3 + 2 && old_cost.2 > t0, "{old_cost:?}");
    assert_eq!(old_data[7], 73.0);
    assert_eq!(old_data[512], 1.25);

    let new = cluster(4);
    let (shared, folded, before, _) = drive(&new);
    let new_data = [new.read_back(&shared), new.read_back(&folded)].concat();
    assert_eq!(&new_data, old_data);
    assert_eq!(cost(&new, &before), old_cost);
    assert_eq!((old.spmd_launches(), new.spmd_launches()), (2, 1));
}

#[test]
fn read_back_from_inside_a_run_is_refused() {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    let cl = cluster(2);
    let s = cl.alloc::<f64>(8);
    let err = catch_unwind(AssertUnwindSafe(|| {
        cl.run(|p| {
            if p.rank() == 0 {
                cl.read_back(&s);
            }
        })
    }))
    .expect_err("rank 0's state is checked out by the run");
    assert!(panic_message(err).contains("processor state in use"));
}

/// One processor panicking before its first barrier must fail the whole
/// `run` fast and with *its* message — not park the other `nprocs − 1`
/// forever, not surface as "a scoped thread panicked" — return nobody's
/// value, and leave the cluster refusing further use in so many words.
#[test]
fn a_panicking_processor_fails_the_run_fast_with_its_own_message() {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    for nprocs in [4, 64] {
        let cl = cluster(nprocs);
        let s = cl.alloc::<f64>(nprocs);
        let t0 = std::time::Instant::now();
        let err = catch_unwind(AssertUnwindSafe(|| -> Vec<usize> {
            cl.run(|p| {
                if p.rank() == nprocs - 2 {
                    panic!("rank {} lost its input", p.rank());
                }
                if p.rank() == nprocs - 1 {
                    return p.rank(); // returns normally; still not handed back
                }
                p.write(&s, p.rank(), 1.0);
                p.barrier();
                p.start_timed_region();
                p.rank()
            })
        }))
        .expect_err("the processor's panic must reach the caller");
        assert!(
            t0.elapsed() < std::time::Duration::from_secs(1),
            "{nprocs} processors took {:?} to fail",
            t0.elapsed()
        );
        assert_eq!(
            panic_message(err),
            format!("rank {} lost its input", nprocs - 2)
        );

        let again = catch_unwind(AssertUnwindSafe(|| cl.run(|_| {})))
            .expect_err("an aborted cluster must refuse to run");
        assert!(panic_message(again).contains("aborted"));
        let again = catch_unwind(AssertUnwindSafe(|| cl.recycle()))
            .expect_err("an aborted cluster must refuse to recycle");
        assert!(panic_message(again).contains("aborted"));
        let again = catch_unwind(AssertUnwindSafe(|| cl.read_back(&s)))
            .expect_err("an aborted cluster must refuse a read-back");
        assert!(panic_message(again).contains("aborted"));
    }
}

/// Renders every traced event, in the order the processors emitted
/// them, into one string.
#[derive(Debug, Default)]
struct Transcript(std::sync::Mutex<String>);

impl simnet::TraceSink for Transcript {
    fn record(&self, p: simnet::ProcId, t: simnet::SimTime, ev: simnet::TraceEvent) {
        use std::fmt::Write;
        let _ = writeln!(self.0.lock().unwrap(), "{p} {} {ev:?}", t.as_ns());
    }
}

/// Who gets a contended lock is decided by the rank-order schedule, not
/// by a host race: every processor hammering one lock gives the same
/// simulated time, messages, bytes and trace — down to the interleaving
/// of the processors' events — on every run.
#[test]
fn a_contended_lock_program_has_one_outcome_and_one_trace() {
    for (nprocs, rounds) in [(4, 8), (64, 2)] {
        let mut first = None;
        for _ in 0..50 {
            let sink = std::sync::Arc::new(Transcript::default());
            let cl = simnet::with_trace_sink(sink.clone(), || cluster(nprocs));
            let s = cl.alloc::<f64>(8);
            cl.run(|p| {
                for round in 0..rounds {
                    p.compute(simnet::SimTime::from_us((7 * p.rank() + round) as f64));
                    p.lock(7);
                    p.update(&s, 0, |v| v + 1.0);
                    p.unlock(7);
                }
                p.barrier();
                assert_eq!(p.read(&s, 0), (nprocs * rounds) as f64);
            });
            let rep = cl.report();
            assert!(rep.messages_per_kind(MsgKind::Lock) > 0);
            let trace = std::mem::take(&mut *sink.0.lock().unwrap());
            let outcome = (cl.elapsed(), rep.messages, rep.bytes, trace);
            let first = first.get_or_insert_with(|| outcome.clone());
            assert!(*first == outcome, "{nprocs} processors: a run diverged from the first");
        }
    }
}

/// A lock waiter is abort-aware like a barrier waiter: a processor that
/// panics while the others wait for the lock it holds fails the `run`
/// with its own message, at once.
#[test]
fn a_processor_panicking_while_others_wait_in_lock_fails_the_run_fast() {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    for nprocs in [4, 64] {
        let cl = cluster(nprocs);
        let t0 = std::time::Instant::now();
        let err = catch_unwind(AssertUnwindSafe(|| {
            cl.run(|p| {
                p.lock(5);
                if p.rank() == 0 {
                    // A second acquire lets the others run: they all find
                    // lock 5 held and wait for it.
                    p.lock(6);
                    panic!("processor 0 died holding lock 5");
                }
                unreachable!("lock 5 is never released");
            })
        }))
        .expect_err("the holder's panic must reach the caller");
        assert!(
            t0.elapsed() < std::time::Duration::from_secs(1),
            "{nprocs} processors took {:?} to fail",
            t0.elapsed()
        );
        assert_eq!(panic_message(err), "processor 0 died holding lock 5");
        let again = catch_unwind(AssertUnwindSafe(|| cl.run(|_| {})))
            .expect_err("an aborted cluster must refuse to run");
        assert!(panic_message(again).contains("aborted"));
    }
}
