//! Integration tests for `Validate`: schedule caching, modification
//! detection, aggregation, and the whole-page write path — the behaviours
//! paper §3.2 specifies — plus the shape checks that keep a section from
//! reading past its indirection array.

use rsd::{Dim, Rsd};
use sdsm_core::{
    validate, AccessType, Cluster, Desc, DsmConfig, MsgKind, RegionRef, SharedSlice, Validator,
};

fn indirect_desc(
    data: &SharedSlice<f64>,
    ind: &SharedSlice<i32>,
    n: usize,
    access: AccessType,
    sched: u32,
) -> Desc {
    Desc::Indirect {
        data: RegionRef::of(data),
        ind: *ind,
        ind_dims: vec![ind.len()],
        section: Rsd::new(vec![Dim::dense(1, n as i64)]),
        access,
        sched,
    }
}

#[test]
fn schedule_cached_until_indirection_changes() {
    let cl = Cluster::new(DsmConfig::with_nprocs(2));
    let data = cl.alloc::<f64>(4096); // 8 pages
    let ind = cl.alloc::<i32>(16);
    cl.run(|p| {
        let mut v = Validator::new();
        if p.rank() == 0 {
            // indices are 1-based
            for k in 0..16 {
                p.write(&ind, k, (k * 256 + 1) as i32);
            }
        }
        p.barrier();

        let d = indirect_desc(&data, &ind, 16, AccessType::Read, 1);
        validate(p, &mut v, std::slice::from_ref(&d));
        let s1 = v.schedule(1).unwrap();
        assert_eq!(s1.recomputes, 1);
        assert_eq!(s1.pages.len(), 8, "16 targets spread over 8 data pages");

        // Unchanged indirection: Validate does NOT rescan.
        validate(p, &mut v, std::slice::from_ref(&d));
        assert_eq!(v.schedule(1).unwrap().recomputes, 1);
        p.barrier();

        // Processor 0 rewrites part of the indirection array.
        if p.rank() == 0 {
            p.write(&ind, 0, 2);
        }
        p.barrier();

        // Both the local writer and the remote observer must rescan
        // ("Both local and remote modifications cause the modified
        //  function to return true").
        validate(p, &mut v, &[d]);
        assert_eq!(v.schedule(1).unwrap().recomputes, 2);
        p.barrier();
    });
}

#[test]
fn aggregated_prefetch_one_exchange_per_peer() {
    let cl = Cluster::new(DsmConfig::with_nprocs(4));
    let data = cl.alloc::<f64>(512 * 12); // 12 pages
    let ind = cl.alloc::<i32>(12);
    cl.run(|p| {
        let me = p.rank();
        let n = p.nprocs();
        // Each processor owns 3 pages and writes them.
        for pg in 0..12 {
            if pg % n == me {
                for w in 0..512 {
                    p.write(&data, pg * 512 + w, (pg * 1000 + w) as f64);
                }
            }
        }
        if me == 0 {
            for k in 0..12 {
                p.write(&ind, k, (k * 512 + 1) as i32); // one target per page
            }
        }
        p.barrier();

        if me == 0 {
            let before = p.now();
            let mut v = Validator::new();
            validate(
                p,
                &mut v,
                &[indirect_desc(&data, &ind, 12, AccessType::Read, 9)],
            );
            // All 9 remote pages arrive; every read below is fault-free.
            let faults = p.counters().read_faults;
            let mut sum = 0.0;
            for pg in 0..12 {
                sum += p.read(&data, pg * 512);
            }
            assert_eq!(p.counters().read_faults, faults);
            assert_eq!(sum, (0..12).map(|pg| (pg * 1000) as f64).sum::<f64>());
            assert!(p.now() > before);
        }
        p.barrier();
    });
    let rep = cl.report();
    // One aggregated request to each of the 3 peers (ind array fetch may
    // add demand faults, counted separately).
    assert_eq!(rep.messages_per_kind(MsgKind::AggRequest), 3);
    assert_eq!(rep.messages_per_kind(MsgKind::AggReply), 3);
}

#[test]
fn write_all_skips_fetch_and_ships_full_pages() {
    let cl = Cluster::new(DsmConfig::with_nprocs(2));
    let data = cl.alloc::<f64>(512); // one page
    cl.run(|p| {
        let mut v = Validator::new();
        if p.rank() == 0 {
            p.write(&data, 0, -1.0); // make page dirty history
        }
        p.barrier();
        if p.rank() == 1 {
            // WRITE_ALL: page 0 is invalid here, but Validate must NOT
            // fetch it — every element will be overwritten.
            let agg_before = p.counters().pages_fetched;
            validate(
                p,
                &mut v,
                &[Desc::Direct {
                    data: RegionRef::of(&data),
                    section: Rsd::dense1(1, 512),
                    access: AccessType::WriteAll,
                    sched: 2,
                }],
            );
            assert_eq!(p.counters().pages_fetched, agg_before);
            assert_eq!(p.counters().twins_made, 0);
            for i in 0..512 {
                p.write(&data, i, i as f64);
            }
        }
        p.barrier();
        if p.rank() == 0 {
            assert_eq!(p.read(&data, 511), 511.0);
            assert_eq!(p.read(&data, 0), 0.0, "WRITE_ALL overwrote everything");
        }
        p.barrier();
        if p.rank() == 1 {
            assert_eq!(p.counters().fulls_published, 1);
        }
    });
}

#[test]
fn read_write_all_pipelined_reduction_fetches_last_full_only() {
    // The moldyn reduction pattern: procs take turns accumulating into a
    // chunk; with READ&WRITE_ALL each consumer fetches ONE full page from
    // the last writer instead of stacked diffs from every writer.
    let n = 4;
    let cl = Cluster::new(DsmConfig::with_nprocs(n));
    let forces = cl.alloc::<f64>(512); // one page/chunk
    cl.run(|p| {
        let me = p.rank();
        let mut v = Validator::new();
        let desc = || Desc::Direct {
            data: RegionRef::of(&forces),
            section: Rsd::dense1(1, 512),
            access: AccessType::ReadWriteAll,
            sched: 3,
        };
        // Pipelined: step s has proc (s) add 1.0 to every element.
        for s in 0..n {
            if s == me {
                validate(p, &mut v, &[desc()]);
                for i in 0..512 {
                    let cur = p.read(&forces, i);
                    p.write(&forces, i, cur + 1.0);
                }
            }
            p.barrier();
        }
        assert_eq!(p.read(&forces, 100), n as f64);
        p.barrier();
    });
    let rep = cl.report();
    // Each step after the first fetched exactly one Full page from the
    // previous writer: total aggregated exchanges = n-1 (plus the final
    // read faults as demand fetches).
    assert_eq!(rep.messages_per_kind(MsgKind::AggRequest), (n - 1) as u64);
    let full_bytes = rep.bytes_per_kind(MsgKind::AggReply);
    assert!(
        full_bytes >= ((n - 1) * 4096) as u64 && full_bytes < ((n - 1) * 4200) as u64,
        "each exchange carries exactly one full page, got {full_bytes}"
    );
}

#[test]
fn two_level_indirection_composes() {
    // The paper (§3.3) notes the approach "naturally extends to multiple
    // levels of indirection": validate the inner level first, then the
    // outer — no extra mechanism.
    let cl = Cluster::new(DsmConfig::with_nprocs(2));
    let data = cl.alloc::<f64>(1024);
    let mid = cl.alloc::<i32>(64);
    let outer = cl.alloc::<i32>(16);
    cl.run(|p| {
        if p.rank() == 0 {
            for k in 0..64 {
                p.write(&mid, k, (k * 16 + 1) as i32);
            }
            for k in 0..16 {
                p.write(&outer, k, (k * 4 + 1) as i32);
            }
            for i in 0..1024 {
                p.write(&data, i, i as f64);
            }
        }
        p.barrier();
        if p.rank() == 1 {
            let mut v = Validator::new();
            // Level 1: mid[outer[j]] — treat mid as data.
            let mid_as_data = RegionRef {
                base: mid.base_byte(),
                len: mid.len(),
                elem: 4,
            };
            validate(
                p,
                &mut v,
                &[Desc::Indirect {
                    data: mid_as_data,
                    ind: outer,
                    ind_dims: vec![outer.len()],
                    section: Rsd::dense1(1, 16),
                    access: AccessType::Read,
                    sched: 10,
                }],
            );
            // Level 2: data[mid[outer[j]]] — now mid is the indirection.
            validate(
                p,
                &mut v,
                &[indirect_desc(&data, &mid, 64, AccessType::Read, 11)],
            );
            // All reads below are prefetched.
            let faults = p.counters().read_faults;
            let mut acc = 0.0;
            for j in 0..16 {
                let m = p.read(&outer, j) as usize; // 1-based
                let t = p.read(&mid, m - 1) as usize; // 1-based
                acc += p.read(&data, t - 1);
            }
            assert_eq!(p.counters().read_faults, faults);
            assert_eq!(acc, (0..16).map(|j| (j * 4 * 16) as f64).sum::<f64>());
        }
        p.barrier();
    });
}

#[test]
fn incremental_recompute_rescans_only_dirty_pages() {
    // The §3.2 extension: after a localized change to the indirection
    // array, an incremental Validator rescans only the entries on the
    // dirtied indirection pages; the full Validator rescans everything.
    let cfg = DsmConfig {
        nprocs: 2,
        page_size: 1024, // 256 i32 entries per indirection page
        ..Default::default()
    };
    let cl = Cluster::new(cfg);
    let data = cl.alloc::<f64>(8192);
    let ind = cl.alloc::<i32>(1024); // 4 indirection pages
    cl.run(|p| {
        let mut v_full = Validator::new();
        let mut v_inc = Validator::incremental();
        assert!(v_inc.is_incremental());
        if p.rank() == 0 {
            for k in 0..1024 {
                p.write(&ind, k, (k * 8 + 1) as i32);
            }
        }
        p.barrier();

        let d = |sched| indirect_desc(&data, &ind, 1024, AccessType::Read, sched);
        validate(p, &mut v_full, &[d(1)]);
        validate(p, &mut v_inc, &[d(2)]);
        let full0 = v_full.schedule(1).unwrap();
        let inc0 = v_inc.schedule(2).unwrap();
        assert_eq!(full0.pages, inc0.pages, "same initial schedule");
        p.barrier();

        // One entry on ONE indirection page changes.
        if p.rank() == 0 {
            p.write(&ind, 700, 1); // page 2 of the indirection array
        }
        p.barrier();

        let t_full = p.now();
        validate(p, &mut v_full, &[d(1)]);
        let full_cost = p.now() - t_full;
        let t_inc = p.now();
        validate(p, &mut v_inc, &[d(2)]);
        let inc_cost = p.now() - t_inc;

        let full1 = v_full.schedule(1).unwrap();
        let inc1 = v_inc.schedule(2).unwrap();
        assert_eq!(full1.pages, inc1.pages, "identical page sets either way");
        assert_eq!(
            inc1.partial_scans, 256,
            "one ind page = 256 entries rescanned"
        );
        assert_eq!(full1.partial_scans, 0);
        // The incremental rescan is ~4x cheaper (256 vs 1024 entries).
        assert!(
            inc_cost.as_ns() < full_cost.as_ns(),
            "incremental {inc_cost:?} !< full {full_cost:?}"
        );
        p.barrier();
    });
}

#[test]
fn incremental_and_full_agree_under_repeated_mutation() {
    let cl = Cluster::new(DsmConfig::with_nprocs(2));
    let data = cl.alloc::<f64>(4096);
    let ind = cl.alloc::<i32>(512);
    cl.run(|p| {
        let mut v_full = Validator::new();
        let mut v_inc = Validator::incremental();
        if p.rank() == 0 {
            for k in 0..512 {
                p.write(&ind, k, (k * 4 + 1) as i32);
            }
        }
        p.barrier();
        for round in 0..5 {
            if p.rank() == 0 {
                // Rewire a moving window of entries each round.
                for k in (round * 37)..(round * 37 + 21) {
                    p.write(&ind, k % 512, ((k * 13) % 4096 + 1) as i32);
                }
            }
            p.barrier();
            validate(
                p,
                &mut v_full,
                &[indirect_desc(&data, &ind, 512, AccessType::Read, 1)],
            );
            validate(
                p,
                &mut v_inc,
                &[indirect_desc(&data, &ind, 512, AccessType::Read, 2)],
            );
            assert_eq!(
                v_full.schedule(1).unwrap().pages,
                v_inc.schedule(2).unwrap().pages,
                "round {round}: incremental schedule must equal full"
            );
            p.barrier();
        }
    });
}

/// One `Validate` call of an indirect descriptor over `ind` viewed with
/// shape `ind_dims`; the array is never read before the shape checks.
fn validate_shape(ind_len: usize, ind_dims: Vec<usize>, section: Vec<Dim>, sched: u32) {
    let cl = Cluster::new(DsmConfig::with_nprocs(2));
    let data = cl.alloc::<f64>(64);
    let ind = cl.alloc::<i32>(ind_len);
    cl.run(|p| {
        let d = Desc::Indirect {
            data: RegionRef::of(&data),
            ind,
            ind_dims: ind_dims.clone(),
            section: Rsd::new(section.clone()),
            access: AccessType::Read,
            sched,
        };
        validate(p, &mut Validator::new(), &[d]);
    });
}

#[test]
#[should_panic(
    expected = "Validate schedule 7: indirection section [1:2, 9:11] dimension 2 (9:11) lies \
                outside 1:10"
)]
fn section_past_the_indirection_shape_is_rejected() {
    // Column 11 of interaction_list(2, 10) would read the next array.
    let section = vec![Dim::dense(1, 2), Dim::dense(9, 11)];
    validate_shape(20, vec![2, 10], section, 7);
}

#[test]
#[should_panic(expected = "Validate schedule 8: shape [2, 10] overruns its indirection array")]
fn shape_larger_than_the_indirection_array_is_rejected() {
    validate_shape(16, vec![2, 10], vec![Dim::dense(1, 2), Dim::dense(1, 3)], 8);
}
