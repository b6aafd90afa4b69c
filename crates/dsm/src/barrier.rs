//! Barriers: global synchronization + the consistency exchange.
//!
//! A TreadMarks barrier is a total exchange of consistency information:
//! every arriving processor closes its interval and sends its new write
//! notices to the barrier manager; the departure message carries everyone
//! else's notices. After a barrier, every processor knows every interval
//! closed before it — so the barrier's *epoch* (barriers completed so
//! far) is the whole of a processor's consistency knowledge.
//!
//! On the host, one barrier is **two crossings** of the net's
//! [`simnet::Rendezvous`]:
//!
//! 1. *Arrive + leader.* Once everyone has closed and published, the
//!    last arriver — whoever the schedule makes it — runs the leader
//!    section in place while the others stay suspended: seal the
//!    epoch's write notices into the digest, bill the barrier
//!    ([`simnet::Net::bill_barrier`]), fold the record store,
//!    and advance the epoch. Nobody is released before it is complete.
//! 2. *Merged.* Each processor merges the digest (and may prefetch
//!    against the stable store), then crosses again. This crossing is
//!    what keeps a fast processor's next `close_interval` from publishing
//!    new intervals under a straggler that is still reading the digest
//!    or fetching records; dropping it would need a proof that no such
//!    read can observe the difference.

use simnet::{MsgKind, StallCat, TraceEvent};

use crate::cluster::Cluster;
use crate::interval::wire_bytes;
use crate::policy::EpochDecision;
use crate::proc::TmkProc;

impl TmkProc<'_> {
    /// TreadMarks barrier: release (close interval), rendezvous, acquire
    /// (merge everyone's write notices). Equivalent to
    /// [`TmkProc::barrier_tagged`] with phase 0 — single-barrier loops
    /// need no tagging.
    pub fn barrier(&mut self) {
        self.barrier_tagged(0);
    }

    /// A barrier with an explicit **phase identity**: `phase` names the
    /// barrier *site* (the source location in the app's loop body), and
    /// must be stable across iterations. Multi-barrier apps — moldyn's
    /// rebuild / pipelined-reduction / position-update barriers, nbf's
    /// reduction rounds — tag each site so the protocol policy can keep
    /// its learned state per site: gap histories, promotion state, and
    /// quiesce streaks all key on `(page, phase)`, and the policy's
    /// deferred/quiesced/push traffic is billed against the owning
    /// phase. Tags are local bookkeeping (no cross-processor agreement
    /// is needed); the rendezvous itself is unchanged.
    pub fn barrier_tagged(&mut self, phase: u32) {
        // Everything the barrier charges to this processor's clock —
        // the interval close, the rendezvous jump, digest work — bills
        // as barrier wait; an eager prefetch issued at the epoch
        // boundary re-scopes itself to PrefetchPush underneath.
        let _bw = self.cl.net().scope(self.me, StallCat::BarrierWait);
        if self.cl.net().tracing() {
            let epoch = self.cl.barrier_epoch();
            self.cl
                .net()
                .trace(self.me, TraceEvent::BarrierEnter { epoch, phase });
        }
        self.close_interval();
        let cl: &Cluster = self.cl;
        let net = cl.net();

        // Everyone has closed and published; the last arriver leads
        // while the rest stay suspended.
        net.rendezvous().wait_then(|| {
            let nprocs = self.nprocs();
            let mut deltas = cl.deltas.borrow_mut();

            // Arrival messages carry each processor's notices of this
            // epoch — at most one interval each; departure messages carry
            // everyone else's. Sealing sorts the epoch's notices into the
            // flat digest every processor merges once released.
            let closing = cl.barrier_epoch() as u32;
            deltas.clear();
            deltas.resize(nprocs, 0);
            cl.store().seal(closing, |notices| {
                for interval in notices.chunk_by(|a, b| a.1 == b.1) {
                    deltas[interval[0].1 as usize] = wire_bytes(nprocs, interval.len());
                }
            });
            let total: usize = deltas.iter().sum();
            // Metadata-scaling probe: the per-barrier notice payload,
            // counted once (not per fan-in/fan-out copy).
            net.add_notice_meta(total as u64);
            net.bill_barrier(MsgKind::Barrier, 16, |p| deltas[p]);

            // GC: fold the records of epochs before the previous one.
            cl.store().fold(closing.saturating_sub(1));
            cl.epoch.set(closing as u64 + 1);
            // The notice is a cluster-wide fact produced by whichever
            // processor arrived last — pin it to proc 0's lane so the
            // trace does not depend on the schedule. Proc 0 is
            // suspended in the rendezvous (or *is* the leader), so its
            // virtual clock is stable here.
            net.trace(
                0,
                TraceEvent::BarrierNotice {
                    epoch: cl.barrier_epoch(),
                    phase,
                    bytes: total as u64,
                },
            );
        });

        // The digest is sealed: merge it in one flat pass, read in place.
        let mut invalidated = std::mem::take(&mut self.inner.invalidated);
        let epoch = cl.barrier_epoch();
        cl.store().with_notices(epoch as u32 - 1, |digest| {
            self.apply_digest(digest, &mut invalidated)
        });
        self.inner.counters.barriers += 1;

        // A deferred plan whose pages are being re-invalidated is dead:
        // its window — "from the arming barrier to the next invalidation
        // of the predicted pages" — closed without a single touch.
        // Discarding it is the quiesce win — one whole exchange per peer
        // saved. Plans whose pages were *not* re-invalidated stay armed:
        // in a multi-barrier loop body the reads a phase predicts may
        // legitimately sit several (other-phase) barriers ahead. The
        // policy is told first, so the quiesced window reads as a free
        // probe rather than a covered need.
        // A plan also dies when its *own phase recurs*: the window it
        // covered ran from the arming barrier to the next barrier of
        // the same site, and that site is now here again — even if a
        // dissolved pattern means the pages were never re-invalidated.
        // Without this, a dead plan would linger armed until some
        // unrelated fault flushed its stale pages into an exchange.
        if !self.inner.deferred.is_empty() {
            let plans = std::mem::take(&mut self.inner.deferred);
            for mut plan in plans {
                let stale =
                    epoch.saturating_sub(plan.armed_at) >= crate::proc::DeferredPlan::STALE_EPOCHS;
                if plan.phase == phase || stale {
                    self.quiesce(plan.phase, &plan.pages);
                    continue;
                }
                if !invalidated.is_empty() {
                    // Cross-phase partial close: only the pages this
                    // barrier re-invalidated have their windows over;
                    // the rest of the plan stays armed for the reads
                    // its phase still predicts.
                    let (dead, live): (Vec<u32>, Vec<u32>) = plan
                        .pages
                        .iter()
                        .partition(|pg| invalidated.binary_search(pg).is_ok());
                    if !dead.is_empty() {
                        self.quiesce(plan.phase, &dead);
                        plan.pages = live;
                    }
                }
                if !plan.pages.is_empty() {
                    self.inner.deferred.push(plan);
                }
            }
        }

        // Epoch boundary for the protocol policy: it may answer the
        // just-applied invalidations with a batched prefetch — one
        // aggregated exchange per peer instead of a demand fault per
        // page — eager, deferred to the epoch's first fault, or as
        // writer-initiated update-push. The records it needs were
        // published before the first crossing, so fetching before the
        // second reads a stable store.
        //
        // The decision is the only record of what the policy believed;
        // here, and nowhere else, it becomes counters and trace events.
        // No policy installed is base TreadMarks: nothing is decided and
        // no policy counter is touched.
        let dec = match &mut self.inner.policy {
            Some(policy) => {
                let dec = policy.epoch_end(epoch, phase, &invalidated);
                cl.net().policy().record_epoch(self.me, phase, &dec.events);
                if cl.net().tracing() {
                    for &(page, act) in &dec.events {
                        cl.net().trace(
                            self.me,
                            TraceEvent::Policy {
                                page,
                                phase: dec.phase,
                                act,
                            },
                        );
                    }
                }
                dec
            }
            None => EpochDecision::none(),
        };
        self.inner.invalidated = invalidated;
        let mut todo = dec.picks;
        todo.retain(|&pg| self.page_invalid(pg));
        if !todo.is_empty() {
            if dec.defer {
                // At most one armed plan per phase, by construction:
                // the phase-recurrence rule above just discarded any
                // same-phase leftover.
                debug_assert!(
                    !self.inner.deferred.iter().any(|d| d.phase == dec.phase),
                    "same-phase plan survived its own phase's barrier"
                );
                cl.net().policy().record_deferred(self.me, dec.phase);
                cl.net().trace(
                    self.me,
                    TraceEvent::PlanDefer {
                        phase: dec.phase,
                        pages: todo.len() as u32,
                    },
                );
                self.inner.deferred.push(crate::proc::DeferredPlan {
                    pages: todo,
                    phase: dec.phase,
                    armed_at: epoch,
                });
            } else if dec.push {
                cl.net()
                    .policy()
                    .record_push(self.me, dec.phase, todo.len());
                self.fetch_pages_push(&todo, dec.phase);
            } else {
                cl.net()
                    .policy()
                    .record_prefetch(self.me, dec.phase, todo.len());
                self.fetch_pages(&todo, crate::FetchClass::Prefetch);
            }
        }

        // Nobody publishes new intervals until all have merged.
        net.rendezvous().wait();
        cl.net()
            .trace(self.me, TraceEvent::BarrierExit { epoch, phase });
    }

    /// Collectively zero the simulated clocks and message counters — the
    /// paper's harnesses exclude initialization (data generation, initial
    /// partitioning) from the timed region. Must be called by all
    /// processors. Per-processor event counters are *not* cleared; use
    /// [`TmkProc::reset_counters`].
    pub fn start_timed_region(&mut self) {
        self.barrier();
        // Zero the clocks in a leader section of its own (no protocol
        // traffic), while every processor is suspended: a processor racing
        // ahead into its next traced event (or clock read) mid-reset
        // would observe pre- or post-zero time depending on the host
        // schedule. The closing protocol barrier below is charged to
        // the freshly zeroed counters.
        let net = self.cl.net();
        net.rendezvous().wait_then(|| net.reset());
        self.barrier();
    }

    /// Clear this processor's protocol event counters.
    pub fn reset_counters(&mut self) {
        self.inner.counters = Default::default();
    }
}
