//! Serve-driver lanes: job lifecycle, steals, cluster recycles.
//!
//! The serve layer has no simulated clock of its own — a worker's
//! "time" is the sequence of jobs it ran — so these lanes stamp events
//! with a per-worker sequence number instead of [`simnet::SimTime`].
//! Which worker steals which job is inherently host-schedule-dependent,
//! so serve lanes are deliberately *outside* the byte-identical
//! determinism claim the simulated-proc lanes make; the aggregate
//! counters ([`ServeTrace::totals`]) are still exact.

use std::fmt::Write as _;
use std::sync::Mutex;

use crate::sink::lock;

/// One serve-driver event on a worker lane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeEvent {
    /// The worker picked up job `job` (cell index `cell` of the grid).
    JobStart { job: u32, cell: u32 },
    /// The job completed; `sim_ns` is its simulated parallel time.
    JobDone { job: u32, sim_ns: u64 },
    /// The worker stole `jobs` jobs from `victim`'s deque.
    Steal { victim: u32, jobs: u32 },
    /// The worker returned a warm cluster to the recycle pool.
    Recycle { procs: u32 },
}

impl ServeEvent {
    fn name(self) -> &'static str {
        match self {
            ServeEvent::JobStart { .. } => "job",
            ServeEvent::JobDone { .. } => "job",
            ServeEvent::Steal { .. } => "steal",
            ServeEvent::Recycle { .. } => "recycle",
        }
    }
}

#[derive(Debug, Default)]
struct WorkerLane {
    events: Vec<ServeEvent>,
    /// Events refused once the lane hit its bound.
    dropped: u64,
}

/// Bounded per-worker event lanes for the serve driver. Recording
/// appends to a preallocated lane (never reallocating), so installing
/// one does not perturb the driver's heap accounting beyond its own
/// construction.
#[derive(Debug)]
pub struct ServeTrace {
    lanes: Vec<Mutex<WorkerLane>>,
    capacity: usize,
}

impl ServeTrace {
    /// Lanes for `workers` workers, each bounded to `capacity` events
    /// (newest events beyond the bound are dropped and counted — the
    /// serve story reads from the front: warmup, then steady state).
    pub fn new(workers: usize, capacity: usize) -> Self {
        ServeTrace {
            lanes: (0..workers)
                .map(|_| {
                    Mutex::new(WorkerLane {
                        events: Vec::with_capacity(capacity),
                        dropped: 0,
                    })
                })
                .collect(),
            capacity,
        }
    }

    /// Record `ev` on `worker`'s lane.
    pub fn record(&self, worker: usize, ev: ServeEvent) {
        let Some(lane) = self.lanes.get(worker) else {
            return;
        };
        let mut l = lock(lane);
        if l.events.len() < self.capacity {
            l.events.push(ev);
        } else {
            l.dropped += 1;
        }
    }

    /// `(jobs_done, steals, recycles)` across all lanes.
    pub fn totals(&self) -> (u64, u64, u64) {
        let (mut jobs, mut steals, mut recycles) = (0, 0, 0);
        for lane in &self.lanes {
            for ev in &lock(lane).events {
                match ev {
                    ServeEvent::JobDone { .. } => jobs += 1,
                    ServeEvent::Steal { .. } => steals += 1,
                    ServeEvent::Recycle { .. } => recycles += 1,
                    ServeEvent::JobStart { .. } => {}
                }
            }
        }
        (jobs, steals, recycles)
    }

    /// Chrome trace-event JSON for the worker lanes: `pid` 1
    /// ("serve pool"), one thread per worker, `ts` = the event's index
    /// on its lane. Job start/done become `B`/`E` spans.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\"traceEvents\":[\n");
        let mut first = true;
        for (w, _) in self.lanes.iter().enumerate() {
            if !std::mem::take(&mut first) {
                out.push_str(",\n");
            }
            let _ = write!(
                out,
                "{{\"ph\":\"M\",\"pid\":1,\"tid\":{w},\"name\":\"thread_name\",\
                 \"args\":{{\"name\":\"worker {w}\"}}}}"
            );
        }
        for (w, lane) in self.lanes.iter().enumerate() {
            let l = lock(lane);
            for (seq, &ev) in l.events.iter().enumerate() {
                if !std::mem::take(&mut first) {
                    out.push_str(",\n");
                }
                let ph = match ev {
                    ServeEvent::JobStart { .. } => 'B',
                    ServeEvent::JobDone { .. } => 'E',
                    _ => 'i',
                };
                let _ = write!(
                    out,
                    "{{\"ph\":\"{ph}\",\"pid\":1,\"tid\":{w},\"ts\":{seq},\"name\":\"{}\"",
                    ev.name()
                );
                if ph == 'i' {
                    out.push_str(",\"s\":\"t\"");
                }
                match ev {
                    ServeEvent::JobStart { job, cell } => {
                        let _ = write!(out, ",\"args\":{{\"job\":{job},\"cell\":{cell}}}}}");
                    }
                    ServeEvent::JobDone { job, sim_ns } => {
                        let _ = write!(out, ",\"args\":{{\"job\":{job},\"sim_ns\":{sim_ns}}}}}");
                    }
                    ServeEvent::Steal { victim, jobs } => {
                        let _ = write!(out, ",\"args\":{{\"victim\":{victim},\"jobs\":{jobs}}}}}");
                    }
                    ServeEvent::Recycle { procs } => {
                        let _ = write!(out, ",\"args\":{{\"procs\":{procs}}}}}");
                    }
                }
            }
        }
        let dropped: u64 = self.lanes.iter().map(|l| lock(l).dropped).sum();
        let _ = write!(
            out,
            "\n],\"displayTimeUnit\":\"ns\",\"otherData\":{{\"dropped\":{dropped}}}}}\n"
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json_well_formed;

    #[test]
    fn totals_count_event_classes() {
        let t = ServeTrace::new(2, 16);
        t.record(0, ServeEvent::JobStart { job: 0, cell: 3 });
        t.record(
            0,
            ServeEvent::JobDone {
                job: 0,
                sim_ns: 500,
            },
        );
        t.record(1, ServeEvent::Steal { victim: 0, jobs: 4 });
        t.record(1, ServeEvent::Recycle { procs: 8 });
        assert_eq!(t.totals(), (1, 1, 1));
    }

    #[test]
    fn lanes_are_bounded_with_a_drop_count() {
        let t = ServeTrace::new(1, 2);
        for job in 0..5 {
            t.record(0, ServeEvent::JobStart { job, cell: 0 });
        }
        assert!(json_well_formed(&t.to_chrome_json()));
        assert!(t.to_chrome_json().contains("\"dropped\":3"));
    }

    #[test]
    fn chrome_export_is_well_formed() {
        let t = ServeTrace::new(2, 16);
        t.record(0, ServeEvent::JobStart { job: 0, cell: 3 });
        t.record(
            0,
            ServeEvent::JobDone {
                job: 0,
                sim_ns: 500,
            },
        );
        t.record(1, ServeEvent::Steal { victim: 0, jobs: 2 });
        let json = t.to_chrome_json();
        assert!(json_well_formed(&json), "malformed:\n{json}");
        assert!(json.contains("\"name\":\"worker 1\""));
    }
}
