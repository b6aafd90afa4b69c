//! Protocol-policy plumbing tests: the policy hooks observe the right
//! events, a prefetching policy moves traffic from per-page demand pairs
//! to aggregated exchanges without changing results, and a cluster with
//! no policy installed never touches the policy counters.

use dsm::{Cluster, DsmConfig, EpochDecision, MsgKind, PolicyReport, ProtocolPolicy};

/// Prefetch every page the barrier just invalidated — the maximally
/// eager policy. Useful for plumbing tests: after the barrier, no
/// demand fault can occur on a notice-invalidated page. The `push` and
/// `defer` flags are forwarded verbatim so the same policy exercises
/// all four protocol shapes.
#[derive(Debug, Default)]
struct PrefetchAll {
    misses: Vec<u32>,
    epochs: Vec<u64>,
    push: bool,
    defer: bool,
}

impl PrefetchAll {
    fn pushing() -> Self {
        PrefetchAll {
            push: true,
            ..Default::default()
        }
    }

    fn deferring() -> Self {
        PrefetchAll {
            defer: true,
            ..Default::default()
        }
    }
}

impl ProtocolPolicy for PrefetchAll {
    fn note_miss(&mut self, page: u32) {
        self.misses.push(page);
    }
    fn epoch_end(&mut self, epoch: u64, phase: u32, invalidated: &[u32]) -> EpochDecision {
        self.epochs.push(epoch);
        EpochDecision {
            picks: invalidated.to_vec(),
            defer: self.defer,
            push: self.push,
            phase,
            events: Vec::new(),
        }
    }
}

/// Producer/consumer over several pages and epochs: proc 0 writes, all
/// others read everything each epoch.
fn producer_consumer(cl: &Cluster, epochs: usize, elems: usize) -> f64 {
    let s = cl.alloc::<f64>(elems);
    let last_sums = cl.run(|p| {
        let mut last = 0.0;
        for e in 0..epochs {
            if p.rank() == 0 {
                for i in 0..elems {
                    p.write(&s, i, (e * elems + i) as f64);
                }
            }
            p.barrier();
            let mut local = 0.0;
            for i in 0..elems {
                local += p.read(&s, i);
            }
            last = local;
            p.barrier();
        }
        last
    });
    last_sums[1]
}

#[test]
fn prefetch_policy_eliminates_demand_faults_and_preserves_results() {
    let elems = 4 * 512; // 4 pages of f64 at 4 KB
    let epochs = 4;

    let base = Cluster::new(DsmConfig::with_nprocs(3));
    let base_sum = producer_consumer(&base, epochs, elems);
    let base_rep = base.report();
    assert!(base_rep.messages_per_kind(MsgKind::DiffRequest) > 0);
    assert_eq!(base_rep.messages_per_kind(MsgKind::AdaptRequest), 0);
    assert_eq!(
        base.net().policy_report(),
        PolicyReport::default(),
        "no policy installed: not even an epoch is recorded"
    );

    let ad = Cluster::new(DsmConfig::with_nprocs(3));
    {
        // Install the policy before the shared traffic starts.
        ad.run(|p| p.set_policy(Box::new(PrefetchAll::default())));
    }
    let ad_sum = producer_consumer(&ad, epochs, elems);
    let ad_rep = ad.report();

    assert_eq!(ad_sum, base_sum, "policy must not change results");
    // Every notice-invalidated page was prefetched at the barrier, so no
    // demand fetch ever fires after the first epoch's cold reads... and
    // even those are preceded by a barrier here, so none at all.
    assert_eq!(ad_rep.messages_per_kind(MsgKind::DiffRequest), 0);
    assert!(ad_rep.messages_per_kind(MsgKind::AdaptRequest) > 0);
    // Aggregation: fewer total messages than per-page demand pairs.
    assert!(
        ad_rep.messages < base_rep.messages,
        "adaptive {} !< base {}",
        ad_rep.messages,
        base_rep.messages
    );
    let pol = ad.net().policy_report();
    assert!(pol.epochs > 0);
    assert!(pol.prefetch_rounds > 0);
    assert!(pol.prefetch_pages >= pol.prefetch_rounds);
}

#[test]
fn policy_hooks_observe_misses_and_epochs() {
    let cl = Cluster::new(DsmConfig::with_nprocs(2));
    let s = cl.alloc::<f64>(1024);
    #[derive(Debug, Default)]
    struct Recorder {
        misses: usize,
        epochs: usize,
    }
    impl ProtocolPolicy for Recorder {
        fn note_miss(&mut self, _page: u32) {
            self.misses += 1;
        }
        fn epoch_end(&mut self, _epoch: u64, _phase: u32, _inv: &[u32]) -> EpochDecision {
            self.epochs += 1;
            EpochDecision::none()
        }
    }

    let seen = cl.run(|p| {
        if p.rank() == 1 {
            p.set_policy(Box::new(Recorder::default()));
        }
        if p.rank() == 0 {
            p.write(&s, 0, 1.0);
        }
        p.barrier();
        let _ = p.read(&s, 0);
        p.barrier();
        if p.rank() != 1 {
            return (0, 0);
        }
        // Downcast-free introspection: count through Debug output.
        let dbg = format!("{:?}", p.policy());
        let grab = |k: &str| -> usize {
            let at = dbg.find(k).unwrap() + k.len() + 2;
            dbg[at..].chars().take_while(|c| c.is_ascii_digit()).collect::<String>().parse().unwrap()
        };
        (grab("misses"), grab("epochs"))
    });
    let (misses, epochs) = seen[1];
    assert_eq!(misses, 1, "one demand miss on the shared page");
    assert_eq!(epochs, 2, "two barriers crossed");
}

#[test]
fn push_mode_halves_predicted_exchange_messages() {
    let elems = 4 * 512;
    let epochs = 4;

    let pull = Cluster::new(DsmConfig::with_nprocs(3));
    pull.run(|p| p.set_policy(Box::new(PrefetchAll::default())));
    let pull_sum = producer_consumer(&pull, epochs, elems);
    let pull_rep = pull.report();

    let push = Cluster::new(DsmConfig::with_nprocs(3));
    push.run(|p| p.set_policy(Box::new(PrefetchAll::pushing())));
    let push_sum = producer_consumer(&push, epochs, elems);
    let push_rep = push.report();

    assert_eq!(push_sum, pull_sum, "push mode must not change results");
    // The request leg disappears: AdaptPush data messages replace the
    // AdaptRequest/AdaptReply pairs one-for-... half.
    assert_eq!(push_rep.messages_per_kind(MsgKind::AdaptRequest), 0);
    assert_eq!(push_rep.messages_per_kind(MsgKind::AdaptReply), 0);
    let pushes = push_rep.messages_per_kind(MsgKind::AdaptPush);
    let pairs = pull_rep.messages_per_kind(MsgKind::AdaptRequest);
    assert!(pushes > 0);
    assert_eq!(
        pushes, pairs,
        "one push per former request/reply pair ({pushes} vs {pairs} pairs)"
    );
    assert!(
        push_rep.messages < pull_rep.messages,
        "push {} !< pull {}",
        push_rep.messages,
        pull_rep.messages
    );
    // Identical payload data rides the remaining leg.
    assert_eq!(
        push_rep.bytes_per_kind(MsgKind::AdaptPush),
        pull_rep.bytes_per_kind(MsgKind::AdaptReply)
    );
    let pol = push.net().policy_report();
    assert!(pol.push_rounds > 0);
    assert_eq!(pol.prefetch_rounds, 0, "push mode never pulls");
}

/// [`producer_consumer`] plus one last writer epoch whose barrier is the
/// run's final barrier — the harness shape the ROADMAP flagged: an
/// eager policy prefetches there for a "next iteration" that never
/// executes.
fn producer_consumer_ending_on_write(cl: &Cluster, epochs: usize, elems: usize) -> f64 {
    let sum = producer_consumer(cl, epochs, elems);
    let s = cl.alloc::<f64>(elems);
    cl.run(|p| {
        if p.rank() == 0 {
            for i in 0..elems {
                p.write(&s, i, i as f64);
            }
        }
        p.barrier(); // final barrier: consumers' plans are never touched
    });
    sum
}

#[test]
fn deferred_plan_fires_on_first_fault_and_quiesces_at_the_final_barrier() {
    let elems = 4 * 512;
    let epochs = 4;

    let eager = Cluster::new(DsmConfig::with_nprocs(3));
    eager.run(|p| p.set_policy(Box::new(PrefetchAll::default())));
    let eager_sum = producer_consumer_ending_on_write(&eager, epochs, elems);
    let eager_rep = eager.report();

    let deferred = Cluster::new(DsmConfig::with_nprocs(3));
    deferred.run(|p| p.set_policy(Box::new(PrefetchAll::deferring())));
    let deferred_sum = producer_consumer_ending_on_write(&deferred, epochs, elems);
    let deferred_rep = deferred.report();

    assert_eq!(deferred_sum, eager_sum, "deferral must not change results");
    // Still zero per-page demand traffic: the first fault triggers the
    // whole batch, and the triggering page rides along.
    assert_eq!(deferred_rep.messages_per_kind(MsgKind::DiffRequest), 0);
    // Strictly fewer aggregated exchanges than eager: the final barrier
    // arms a plan nobody ever touches, and it quiesces instead of going
    // to the wire. Mid-run epochs are unaffected — their first read
    // triggers the identical exchange.
    assert!(
        deferred_rep.messages_per_kind(MsgKind::AdaptRequest)
            < eager_rep.messages_per_kind(MsgKind::AdaptRequest),
        "deferred {} !< eager {}",
        deferred_rep.messages_per_kind(MsgKind::AdaptRequest),
        eager_rep.messages_per_kind(MsgKind::AdaptRequest)
    );
    let pol = deferred.net().policy_report();
    assert!(pol.deferred_plans > 0);
    assert!(
        pol.quiesced_plans >= 2,
        "both consumers' final-barrier plans must quiesce untriggered"
    );
    assert_eq!(
        pol.deferred_plans,
        pol.prefetch_rounds + pol.quiesced_plans,
        "every deferred plan either fires on a fault or quiesces"
    );
    // The eager run *did* waste final-barrier exchanges.
    assert!(eager.net().policy_report().prefetch_rounds > pol.prefetch_rounds);
}

#[test]
fn policy_persists_across_runs() {
    let cl = Cluster::new(DsmConfig::with_nprocs(2));
    let s = cl.alloc::<f64>(512);
    cl.run(|p| {
        if p.rank() == 1 {
            p.set_policy(Box::new(PrefetchAll::default()));
        }
    });
    cl.run(|p| {
        if p.rank() == 0 {
            p.write(&s, 0, 2.5);
        }
        p.barrier();
        assert_eq!(p.read(&s, 0), 2.5);
    });
    // The reader's fetch went through the adaptive path, proving the
    // policy survived into the second run().
    assert!(cl.report().messages_per_kind(MsgKind::AdaptRequest) > 0);
    assert_eq!(cl.report().messages_per_kind(MsgKind::DiffRequest), 0);
}
