//! In-memory host-clock spans around the benchmark's calls into each
//! layer, written out as Chrome-trace JSON when the traced pass ends.
//!
//! The traced pass is one client on one thread, so the log is a plain
//! `Vec` plus a stack of open spans: a span's parent is whatever was
//! open when it began, and every span of one job carries that job's id.

use std::fmt::Write as _;
use std::time::Instant;

/// One closed (or still open) span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    /// Index of the enclosing span in [`SpanLog::spans`].
    pub parent: Option<usize>,
    /// The job this span belongs to (`None` for probes).
    pub job: Option<u64>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Counts recorded at the same boundary (messages, events, policy
    /// counters), as `(key, value)`.
    pub counts: Vec<(&'static str, u64)>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct SpanLog {
    t0: Instant,
    pub spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for SpanLog {
    fn default() -> Self {
        Self::new()
    }
}

impl SpanLog {
    pub fn new() -> Self {
        SpanLog {
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Open a span under whichever span is open now. A child inherits
    /// its parent's job id unless it names one.
    pub fn begin(&mut self, name: impl Into<String>, job: Option<u64>) -> usize {
        let parent = self.open.last().copied();
        let job = job.or_else(|| parent.and_then(|p| self.spans[p].job));
        let start_ns = self.now();
        self.spans.push(Span {
            name: name.into(),
            parent,
            job,
            start_ns,
            end_ns: start_ns,
            counts: Vec::new(),
        });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    /// Close span `id` (the innermost open one) and return its
    /// duration in nanoseconds.
    pub fn end(&mut self, id: usize, counts: Vec<(&'static str, u64)>) -> u64 {
        let end_ns = self.now();
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        let s = &mut self.spans[id];
        s.end_ns = end_ns;
        s.counts = counts;
        s.dur_ns()
    }

    /// Close every span still open, innermost first — for the caller
    /// that caught a panic thrown between a `begin` and its `end`.
    pub fn close_open(&mut self) {
        while let Some(&id) = self.open.last() {
            self.end(id, Vec::new());
        }
    }

    /// Self time of every span: its duration minus the part of that
    /// interval its children cover. One thread, so siblings never
    /// overlap and the cover is the sum of the children's durations.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::dur_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.dur_ns());
            }
        }
        own
    }

    /// Chrome trace-event JSON (`chrome://tracing`, Perfetto): one
    /// complete (`"ph":"X"`) event per span on a single host lane,
    /// microsecond timestamps, with the span's id, parent, job, self
    /// time and counts under `args`.
    pub fn to_chrome_json(&self, workload: &str) -> String {
        assert!(self.open.is_empty(), "a span is still open");
        let own = self.self_ns();
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        let _ = write!(
            out,
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,\
             \"args\":{{\"name\":\"benchmark {}\"}}}}",
            escape(workload)
        );
        for (id, s) in self.spans.iter().enumerate() {
            let _ = write!(
                out,
                ",\n{{\"name\":\"{}\",\"cat\":\"host\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{id}",
                escape(&s.name),
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
            );
            if let Some(p) = s.parent {
                let _ = write!(out, ",\"parent\":{p}");
            }
            if let Some(j) = s.job {
                let _ = write!(out, ",\"job\":{j}");
            }
            let _ = write!(out, ",\"self_us\":{:.3}", own[id] as f64 / 1e3);
            for (k, v) in &s.counts {
                let _ = write!(out, ",\"{k}\":{v}");
            }
            out.push_str("}}");
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Escape `s` for use inside a JSON string literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_inherit_the_job_and_self_time_excludes_them() {
        let mut log = SpanLog::new();
        let job = log.begin("job", Some(7));
        let a = log.begin("variant.seq", None);
        log.end(a, vec![("messages", 0)]);
        let b = log.begin("variant.tmk_base", None);
        log.end(b, vec![("messages", 12)]);
        log.end(job, Vec::new());
        let p = log.begin("probe.dsm.barrier", None);
        log.end(p, Vec::new());

        assert_eq!(log.spans[a].parent, Some(job));
        assert_eq!(log.spans[b].job, Some(7));
        assert_eq!(log.spans[p].parent, None);
        assert_eq!(log.spans[p].job, None);
        let own = log.self_ns();
        let kids = log.spans[a].dur_ns() + log.spans[b].dur_ns();
        assert_eq!(own[job], log.spans[job].dur_ns() - kids);
        assert_eq!(own[a], log.spans[a].dur_ns());

        let json = log.to_chrome_json("t\"est");
        assert!(trace::json_well_formed(&json), "{json}");
        assert!(json.contains("\"job\":7"));
        assert!(json.contains("\"messages\":12"));
    }

    #[test]
    fn escape_covers_quotes_and_control_characters() {
        assert_eq!(escape("a\"b\\c\nd\u{1}"), "a\\\"b\\\\c\\nd\\u0001");
    }
}
