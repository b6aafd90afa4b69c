//! Chrome trace-event JSON export.
//!
//! The output loads directly into Perfetto (<https://ui.perfetto.dev>)
//! or `chrome://tracing`: one process (`pid` 0, "simulated cluster")
//! with one named thread per simulated processor. Durations use `B`/`E`
//! span pairs (faults, barriers, inspector/executor spans);
//! everything else is a thread-scoped instant (`ph: "i"`).
//!
//! Formatting is fully deterministic — integer-only timestamp
//! rendering (`ts` is microseconds, printed as `ns/1000.ns%1000` with
//! three fixed decimals), fixed key order, one event per line — so two
//! runs with the same seed produce byte-identical files, which is the
//! contract `bench/tests/trace_determinism.rs` asserts.

use std::fmt::Write as _;

use crate::{Trace, TraceEvent};

/// Render `trace` as a Chrome trace-event JSON document.
pub fn chrome_trace_json(trace: &Trace) -> String {
    let mut out = String::new();
    out.push_str("{\"traceEvents\":[\n");
    let mut first = true;
    for p in 0..trace.lanes.len() {
        sep(&mut out, &mut first);
        let _ = write!(
            out,
            "{{\"ph\":\"M\",\"pid\":0,\"tid\":{p},\"name\":\"thread_name\",\
             \"args\":{{\"name\":\"proc {p}\"}}}}"
        );
    }
    for (p, lane) in trace.lanes.iter().enumerate() {
        for &(t, ev) in &lane.events {
            sep(&mut out, &mut first);
            event_json(&mut out, p, t.as_ns(), ev);
        }
    }
    let _ = write!(
        out,
        "\n],\"displayTimeUnit\":\"ns\",\"otherData\":{{\"dropped\":{},\"overflow\":{}}}}}\n",
        trace.dropped(),
        trace.overflow
    );
    out
}

fn sep(out: &mut String, first: &mut bool) {
    if *first {
        *first = false;
    } else {
        out.push_str(",\n");
    }
}

/// `ts` is microseconds in the trace-event format; print the simulated
/// nanoseconds as a fixed-point micro value to keep full resolution
/// without any float formatting in the output path.
fn ts(out: &mut String, ns: u64) {
    let _ = write!(out, "{}.{:03}", ns / 1000, ns % 1000);
}

fn head(out: &mut String, ph: char, name: &str, p: usize, ns: u64) {
    let _ = write!(out, "{{\"ph\":\"{ph}\",\"pid\":0,\"tid\":{p},\"ts\":");
    ts(out, ns);
    let _ = write!(out, ",\"name\":\"{name}\"");
    if ph == 'i' {
        out.push_str(",\"s\":\"t\"");
    }
}

fn event_json(out: &mut String, p: usize, ns: u64, ev: TraceEvent) {
    match ev {
        TraceEvent::FaultBegin { page, write } => {
            head(out, 'B', "fault", p, ns);
            let _ = write!(out, ",\"args\":{{\"page\":{page},\"write\":{write}}}}}");
        }
        TraceEvent::FaultEnd { page } => {
            head(out, 'E', "fault", p, ns);
            let _ = write!(out, ",\"args\":{{\"page\":{page}}}}}");
        }
        TraceEvent::TwinCreate { page } => {
            head(out, 'i', "twin", p, ns);
            let _ = write!(out, ",\"args\":{{\"page\":{page}}}}}");
        }
        TraceEvent::DiffCreate { page, bytes } => {
            head(out, 'i', "diff", p, ns);
            let _ = write!(out, ",\"args\":{{\"page\":{page},\"bytes\":{bytes}}}}}");
        }
        TraceEvent::Fetch {
            class,
            pages,
            peers,
            bytes,
        } => {
            head(out, 'i', "fetch", p, ns);
            let _ = write!(
                out,
                ",\"args\":{{\"class\":\"{}\",\"pages\":{pages},\"peers\":{peers},\
                 \"bytes\":{bytes}}}}}",
                class.name()
            );
        }
        TraceEvent::BarrierEnter { epoch, phase } => {
            head(out, 'B', "barrier", p, ns);
            let _ = write!(out, ",\"args\":{{\"epoch\":{epoch},\"phase\":{phase}}}}}");
        }
        TraceEvent::BarrierNotice {
            epoch,
            phase,
            bytes,
        } => {
            head(out, 'i', "notice", p, ns);
            let _ = write!(
                out,
                ",\"args\":{{\"epoch\":{epoch},\"phase\":{phase},\"bytes\":{bytes}}}}}"
            );
        }
        TraceEvent::BarrierExit { epoch, phase } => {
            head(out, 'E', "barrier", p, ns);
            let _ = write!(out, ",\"args\":{{\"epoch\":{epoch},\"phase\":{phase}}}}}");
        }
        TraceEvent::Policy { page, phase, act } => {
            head(out, 'i', act.name(), p, ns);
            let _ = write!(out, ",\"args\":{{\"page\":{page},\"phase\":{phase}}}}}");
        }
        TraceEvent::PlanDefer { phase, pages } => {
            head(out, 'i', "plan_defer", p, ns);
            let _ = write!(out, ",\"args\":{{\"phase\":{phase},\"pages\":{pages}}}}}");
        }
        TraceEvent::PlanQuiesce { phase, pages } => {
            head(out, 'i', "plan_quiesce", p, ns);
            let _ = write!(out, ",\"args\":{{\"phase\":{phase},\"pages\":{pages}}}}}");
        }
        TraceEvent::SpanBegin { tag } => {
            head(out, 'B', tag.name(), p, ns);
            out.push('}');
        }
        TraceEvent::SpanEnd { tag } => {
            head(out, 'E', tag.name(), p, ns);
            out.push('}');
        }
        TraceEvent::Msg {
            kind,
            peer,
            bytes,
            out: dir_out,
        } => {
            head(out, 'i', "msg", p, ns);
            let _ = write!(
                out,
                ",\"args\":{{\"kind\":\"{}\",\"peer\":{peer},\"bytes\":{bytes},\
                 \"dir\":\"{}\"}}}}",
                kind.name(),
                if dir_out { "out" } else { "in" }
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{json_well_formed, FetchKind, SpanTag, Tracer};
    use simnet::{MsgKind, SimTime, TraceSink};

    fn sample() -> Trace {
        let t = Tracer::new(2, 64);
        t.record(
            0,
            SimTime(100),
            TraceEvent::FaultBegin {
                page: 3,
                write: true,
            },
        );
        t.record(0, SimTime(1234), TraceEvent::FaultEnd { page: 3 });
        t.record(
            0,
            SimTime(1500),
            TraceEvent::Fetch {
                class: FetchKind::Prefetch,
                pages: 4,
                peers: 2,
                bytes: 16384,
            },
        );
        t.record(
            1,
            SimTime(200),
            TraceEvent::SpanBegin {
                tag: SpanTag::Gather,
            },
        );
        t.record(
            1,
            SimTime(250),
            TraceEvent::Msg {
                kind: MsgKind::Gather,
                peer: 0,
                bytes: 512,
                out: true,
            },
        );
        t.record(
            1,
            SimTime(900),
            TraceEvent::SpanEnd {
                tag: SpanTag::Gather,
            },
        );
        t.capture()
    }

    #[test]
    fn export_is_well_formed_json() {
        let json = chrome_trace_json(&sample());
        assert!(json_well_formed(&json), "malformed:\n{json}");
    }

    #[test]
    fn export_is_deterministic_and_integer_formatted() {
        let a = chrome_trace_json(&sample());
        let b = chrome_trace_json(&sample());
        assert_eq!(a, b);
        // 1234 ns prints as 1.234 µs — fixed-point, no float formatting.
        assert!(a.contains("\"ts\":1.234,"), "{a}");
        assert!(a.contains("\"name\":\"proc 1\""));
    }

    #[test]
    fn spans_pair_begin_and_end_on_one_tid() {
        let json = chrome_trace_json(&sample());
        let b = json.matches("\"ph\":\"B\"").count();
        let e = json.matches("\"ph\":\"E\"").count();
        assert_eq!(b, e);
    }
}
