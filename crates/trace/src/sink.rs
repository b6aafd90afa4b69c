//! The bounded per-processor ring-buffer sink.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use simnet::{ProcId, SimTime, TraceEvent, TraceSink};

/// Lock a lane, recovering it as-is if a panicking recorder poisoned
/// it: a lane is plain data that stays readable whatever panicked while
/// it was held.
pub(crate) fn lock<T>(lane: &Mutex<T>) -> MutexGuard<'_, T> {
    lane.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One processor's lane: a fixed-capacity ring that drops the *oldest*
/// event when full (the tail of a run is what attribution reads, and a
/// `dropped` counter keeps the loss honest).
#[derive(Debug)]
struct Lane {
    /// Ring storage; capacity fixed at construction, never reallocated.
    buf: Vec<(u64, TraceEvent)>,
    /// Index of the oldest entry once the ring has wrapped.
    start: usize,
    /// Events overwritten (or refused, at capacity 0) on this lane.
    dropped: u64,
}

/// A [`TraceSink`] of bounded per-processor rings. `simnet` calls
/// [`TraceSink::record`] from the acting processor's own thread, so
/// each lane has a single writer in steady state and the per-lane lock
/// is uncontended; no cross-lane ordering exists or is needed —
/// determinism comes from the per-lane order plus virtual timestamps.
///
/// All memory is allocated here, at construction. The recording path
/// never allocates, which is what keeps the serve driver's
/// zero-net-heap-per-warm-job assertion meaningful even when a run is
/// traced (and trivially so when it is not: an uninstalled sink means
/// `Net` never takes the traced branch at all).
#[derive(Debug)]
pub struct Tracer {
    lanes: Vec<Mutex<Lane>>,
    /// Events recorded for a processor id beyond the constructed lane
    /// count (a misconfigured harness, not a protocol condition).
    overflow: AtomicU64,
}

impl Tracer {
    /// A tracer with `nprocs` lanes of `capacity` events each.
    pub fn new(nprocs: usize, capacity: usize) -> Self {
        Tracer {
            lanes: (0..nprocs)
                .map(|_| {
                    Mutex::new(Lane {
                        buf: Vec::with_capacity(capacity),
                        start: 0,
                        dropped: 0,
                    })
                })
                .collect(),
            overflow: AtomicU64::new(0),
        }
    }

    /// Fold the lanes into an immutable snapshot, oldest event first.
    /// The rings keep filling afterwards; capture is non-destructive.
    pub fn capture(&self) -> Trace {
        Trace {
            lanes: self
                .lanes
                .iter()
                .map(|lane| {
                    let l = lock(lane);
                    let mut events = Vec::with_capacity(l.buf.len());
                    events.extend_from_slice(&l.buf[l.start..]);
                    events.extend_from_slice(&l.buf[..l.start]);
                    ProcLane {
                        events: events
                            .into_iter()
                            .map(|(ns, ev)| (SimTime(ns), ev))
                            .collect(),
                        dropped: l.dropped,
                    }
                })
                .collect(),
            overflow: self.overflow.load(Ordering::Relaxed),
        }
    }
}

impl TraceSink for Tracer {
    fn record(&self, p: ProcId, t: SimTime, ev: TraceEvent) {
        let Some(lane) = self.lanes.get(p) else {
            self.overflow.fetch_add(1, Ordering::Relaxed);
            return;
        };
        let mut l = lock(lane);
        let cap = l.buf.capacity();
        if l.buf.len() < cap {
            l.buf.push((t.as_ns(), ev));
        } else if cap == 0 {
            l.dropped += 1;
        } else {
            let start = l.start;
            l.buf[start] = (t.as_ns(), ev);
            l.start = (start + 1) % cap;
            l.dropped += 1;
        }
    }
}

/// One processor's captured events, oldest first.
#[derive(Debug, Clone, PartialEq)]
pub struct ProcLane {
    pub events: Vec<(SimTime, TraceEvent)>,
    /// Oldest events lost to the ring bound before capture.
    pub dropped: u64,
}

/// An immutable folded snapshot of a [`Tracer`].
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    /// Indexed by `ProcId`.
    pub lanes: Vec<ProcLane>,
    /// Events whose processor id had no lane.
    pub overflow: u64,
}

impl Trace {
    /// Total events captured across all lanes.
    pub fn len(&self) -> usize {
        self.lanes.iter().map(|l| l.events.len()).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total events lost to ring bounds (not counting [`Trace::overflow`]).
    pub fn dropped(&self) -> u64 {
        self.lanes.iter().map(|l| l.dropped).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_keeps_the_newest_events_in_order() {
        let t = Tracer::new(1, 3);
        for page in 0..5u32 {
            t.record(0, SimTime(page as u64 * 10), TraceEvent::FaultEnd { page });
        }
        let trace = t.capture();
        assert_eq!(trace.lanes[0].dropped, 2);
        let pages: Vec<u32> = trace.lanes[0]
            .events
            .iter()
            .map(|&(_, ev)| match ev {
                TraceEvent::FaultEnd { page } => page,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(pages, vec![2, 3, 4]);
        assert_eq!(trace.lanes[0].events[0].0, SimTime(20));
    }

    #[test]
    fn lanes_are_independent_and_overflow_is_counted() {
        let t = Tracer::new(2, 4);
        t.record(0, SimTime(1), TraceEvent::TwinCreate { page: 7 });
        t.record(1, SimTime(2), TraceEvent::TwinCreate { page: 8 });
        t.record(9, SimTime(3), TraceEvent::TwinCreate { page: 9 });
        let trace = t.capture();
        assert_eq!(trace.lanes[0].events.len(), 1);
        assert_eq!(trace.lanes[1].events.len(), 1);
        assert_eq!(trace.overflow, 1);
        assert_eq!(trace.len(), 2);
        assert_eq!(trace.dropped(), 0);
    }

    #[test]
    fn capture_is_non_destructive() {
        let t = Tracer::new(1, 8);
        t.record(0, SimTime(5), TraceEvent::FaultEnd { page: 1 });
        let a = t.capture();
        let b = t.capture();
        assert_eq!(a, b);
    }
}
