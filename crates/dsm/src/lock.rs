//! Locks: exclusive synchronization with lazy consistency transfer.
//!
//! TreadMarks locks are manager-based: an acquire sends a request to the
//! lock's statically assigned manager, which forwards it to the last
//! holder; the grant message carries the releaser's vector clock and the
//! write notices the acquirer has not yet seen. Re-acquiring a lock this
//! processor released last is free of messages (ownership caching).
//!
//! The applications in the paper are barrier-structured, but locks are
//! part of the TreadMarks API (§2) and are exercised by tests and the
//! quickstart example.
//!
//! On the host an acquire is a scheduling point of the cluster's
//! [`simnet::Rendezvous`], not a parked thread: the acquirer first lets
//! every other runnable processor run to its next blocking point — so a
//! processor spinning on `lock; test; unlock` cannot starve the one it
//! waits for, and simultaneous requests are granted round-robin in rank
//! order — and then yields again for as long as the lock is held. Who
//! gets a contended lock is therefore a function of the program, never
//! of a host race, and so are the hops and times billed below.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;
use simnet::{MsgKind, ProcId, SimTime, StallCat, TraceEvent};

use crate::interval::Vc;
use crate::proc::TmkProc;

#[derive(Debug)]
struct LockSt {
    held_by: Option<ProcId>,
    last_holder: Option<ProcId>,
    release_vc: Vc,
    release_time: SimTime,
}

/// All locks, created on first use (TreadMarks pre-allocates an array of
/// lock ids; the observable semantics are the same).
#[derive(Debug, Default)]
pub(crate) struct LockMgr {
    slots: Mutex<HashMap<u32, Arc<Mutex<LockSt>>>>,
}

impl LockMgr {
    /// Forget every lock (fresh-cluster state; no lock may be held).
    pub(crate) fn reset(&self) {
        self.slots.lock().clear();
    }

    fn slot(&self, id: u32, nprocs: usize) -> Arc<Mutex<LockSt>> {
        let mut m = self.slots.lock();
        Arc::clone(m.entry(id).or_insert_with(|| {
            Arc::new(Mutex::new(LockSt {
                held_by: None,
                last_holder: None,
                release_vc: vec![0; nprocs],
                release_time: SimTime::ZERO,
            }))
        }))
    }
}

impl TmkProc<'_> {
    /// Acquire lock `id`, blocking until free, then merge the releaser's
    /// consistency information (invalidate pages named in unseen write
    /// notices). Unwinds, like a barrier, if another processor panics
    /// while this one waits (see [`crate::Cluster::run`]); a lock whose
    /// holder never releases it is still waited for forever.
    pub fn lock(&mut self, id: u32) {
        let me = self.rank();
        let nprocs = self.nprocs();
        let slot = self.cl.lock_mgr().slot(id, nprocs);
        let net = self.cl.net();
        let cost = net.cost();
        let _lw = net.scope(me, StallCat::LockWait);
        net.trace(me, TraceEvent::LockAcquire { lock: id });

        let target: Vc;
        {
            // The scheduling point (module docs). The slot's mutex is
            // never held across a yield: every processor runs on this
            // one OS thread.
            let rendezvous = self.cl.barrier_ctl().rendezvous();
            rendezvous.yield_now();
            let mut st = slot.lock();
            while st.held_by.is_some() {
                drop(st);
                rendezvous.yield_now();
                st = slot.lock();
            }
            st.held_by = Some(me);

            if st.last_holder == Some(me) {
                // Ownership cached: no messages (TreadMarks optimization).
            } else {
                let manager = (id as usize) % nprocs;
                // Grant carries the notices the acquirer lacks.
                let mut grant_bytes = 16;
                for q in 0..nprocs {
                    grant_bytes +=
                        self.cl
                            .board()
                            .range_bytes(q, self.vc()[q], st.release_vc[q]);
                }
                let mut hops = 0u32;
                if manager != me {
                    net.count_only(me, MsgKind::Lock, 1, 16);
                    hops += 1;
                }
                match st.last_holder {
                    Some(h) if h != manager && h != me => {
                        // Manager forwards to the holder, holder grants.
                        net.count_only(manager, MsgKind::Lock, 1, 16);
                        net.count_only(h, MsgKind::Lock, 1, grant_bytes);
                        net.advance_remote(h, cost.handler());
                        hops += 2;
                    }
                    Some(h) if h != me => {
                        // Holder *is* the manager: it grants directly.
                        net.count_only(h, MsgKind::Lock, 1, grant_bytes);
                        net.advance_remote(h, cost.handler());
                        hops += 1;
                    }
                    _ => {
                        // First acquire ever: the manager grants.
                        if manager != me {
                            net.count_only(manager, MsgKind::Lock, 1, grant_bytes);
                            net.advance_remote(manager, cost.handler());
                            hops += 1;
                        }
                    }
                }
                // The grant cannot arrive before the release happened.
                net.await_until(me, st.release_time);
                net.advance(
                    me,
                    SimTime::from_us(
                        hops as f64 * cost.msg_latency_us
                            + cost.per_byte_us * grant_bytes as f64
                            + if hops > 0 { cost.handler_us } else { 0.0 },
                    ),
                );
            }
            target = st.release_vc.clone();
        }
        // Lock acquires are not policy epoch boundaries (the apps are
        // barrier-structured), so skip the invalidation bookkeeping.
        self.apply_notices(&target);
        self.inner.counters.lock_acquires += 1;
        net.trace(me, TraceEvent::LockAcquired { lock: id });
    }

    /// Release lock `id`: close the current interval (a *release* in the
    /// RC sense) and record our knowledge for the next acquirer.
    pub fn unlock(&mut self, id: u32) {
        let me = self.rank();
        let nprocs = self.nprocs();
        let _lw = self.cl.net().scope(me, StallCat::LockWait);
        self.close_interval();
        let slot = self.cl.lock_mgr().slot(id, nprocs);
        let mut st = slot.lock();
        assert_eq!(
            st.held_by,
            Some(me),
            "unlock of lock {id} not held by processor {me}"
        );
        st.held_by = None;
        st.last_holder = Some(me);
        st.release_vc.copy_from_slice(self.vc());
        st.release_time = self.now();
        self.cl.net().trace(me, TraceEvent::LockRelease { lock: id });
    }
}
