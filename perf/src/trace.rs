//! In-memory span recorder for the traced pass.
//!
//! The harness records a span around every call it makes into the engine
//! — per request, per round, per phase — with name, start, end, parent and
//! request id. Spans stay in memory until the run ends and are written as
//! Chrome-trace JSON (`chrome://tracing`, Perfetto) when `--trace-out` is
//! given. End-to-end metrics are always measured with the recorder off;
//! rounds alternate between off and on in the traced pass, and the
//! difference is `trace.overhead_pct`.

use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// Identifier of a recorded span (its index); 0 is "no parent".
pub type SpanId = u32;

#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: SpanId,
    /// Request id within the run; `u64::MAX` for round and phase spans.
    req: u64,
}

/// Not a request: round and phase spans.
pub const NO_REQ: u64 = u64::MAX;

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer { origin: Instant::now(), spans: Vec::new() }
    }

    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Room for `n` more spans, so recording a request never reallocates
    /// inside a timed round.
    pub fn reserve(&mut self, n: usize) {
        self.spans.reserve(n);
    }

    /// Record a finished span; returns its id for children to name.
    #[inline]
    pub fn record(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: SpanId,
        req: u64,
    ) -> SpanId {
        self.spans.push(Span { name, start_ns, end_ns, parent, req });
        self.spans.len() as SpanId
    }

    /// Open a span whose end is filled in by [`Tracer::close`] — for
    /// rounds and phases, which must exist before their children.
    pub fn open(&mut self, name: &'static str, parent: SpanId) -> SpanId {
        let now = self.now_ns();
        self.record(name, now, now, parent, NO_REQ)
    }

    pub fn close(&mut self, id: SpanId) {
        let now = self.now_ns();
        self.spans[id as usize - 1].end_ns = now;
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Self time per span name: a span's duration minus the part its
    /// children cover. Returns `(name, spans, total_ns, self_ns)`.
    pub fn self_times(&self) -> Vec<(&'static str, u64, u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != 0 {
                child_ns[s.parent as usize - 1] += s.end_ns - s.start_ns;
            }
        }
        let mut by_name: Vec<(&'static str, u64, u64, u64)> = Vec::new();
        for (s, covered) in self.spans.iter().zip(child_ns) {
            let total = s.end_ns - s.start_ns;
            let own = total.saturating_sub(covered);
            match by_name.iter_mut().find(|e| e.0 == s.name) {
                Some(e) => {
                    e.1 += 1;
                    e.2 += total;
                    e.3 += own;
                }
                None => by_name.push((s.name, 1, total, own)),
            }
        }
        by_name
    }

    /// Write every span as a Chrome-trace "complete" event.
    pub fn write_chrome_trace(&self, path: &Path) -> io::Result<()> {
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        out.write_all(b"{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n")?;
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{},\"parent\":{}",
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                i + 1,
                s.parent
            )?;
            if s.req != NO_REQ {
                write!(out, ",\"req\":{}", s.req)?;
            }
            writeln!(out, "}}}}{sep}")?;
        }
        out.write_all(b"]}\n")?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new();
        let round = t.record("round", 0, 1000, 0, NO_REQ);
        t.record("put", 100, 300, round, 1);
        t.record("put", 400, 700, round, 2);
        let times = t.self_times();
        let round_row = times.iter().find(|e| e.0 == "round").unwrap();
        assert_eq!((round_row.1, round_row.2, round_row.3), (1, 1000, 500));
        let put_row = times.iter().find(|e| e.0 == "put").unwrap();
        assert_eq!((put_row.1, put_row.2, put_row.3), (2, 500, 500));
    }

    #[test]
    fn chrome_trace_is_one_event_per_span() {
        let mut t = Tracer::new();
        let r = t.record("round", 0, 2000, 0, NO_REQ);
        t.record("get", 10, 20, r, 7);
        let dir = crate::env::default_data_root();
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("trace-{}.json", std::process::id()));
        t.write_chrome_trace(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(text.matches("\"ph\":\"X\"").count(), 2);
        assert!(text.contains("\"req\":7") && text.trim_end().ends_with("]}"));
    }
}
