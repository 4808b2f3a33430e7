//! The benchmark's own spans: name, start, end, parent and request id,
//! kept in memory and written out once as a Chrome trace.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// What was called.
    pub name: String,
    /// Start, ns after the recorder's origin.
    pub start_ns: u64,
    /// End, ns after the recorder's origin.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Request id: the daemon-echoed trace id of a frame.
    pub request: Option<u64>,
    /// Track (0 = main thread, 1 + k = client connection k).
    pub track: u64,
}

/// In-memory span store.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Spans {
    /// An empty recorder whose timeline starts at `origin`.
    pub fn new(origin: Instant) -> Spans {
        Spans {
            origin,
            spans: Vec::new(),
        }
    }

    /// The timeline's zero.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    fn offset(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span on the main track; close it with [`Spans::close`].
    pub fn open(&mut self, name: &str, parent: Option<usize>) -> usize {
        let now = self.offset(Instant::now());
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: now,
            end_ns: now,
            parent,
            request: None,
            track: 0,
        });
        self.spans.len() - 1
    }

    /// Closes a span opened with [`Spans::open`].
    pub fn close(&mut self, index: usize) {
        self.spans[index].end_ns = self.offset(Instant::now());
    }

    /// Records a finished span from its timestamps.
    pub fn add(&mut self, span: Span) {
        self.spans.push(span);
    }

    /// Records a finished span from two instants.
    pub fn add_between(&mut self, name: &str, start: Instant, end: Instant, parent: usize) {
        self.add(Span {
            name: name.to_string(),
            start_ns: self.offset(start),
            end_ns: self.offset(end),
            parent: Some(parent),
            request: None,
            track: 0,
        });
    }

    /// Spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// The trace as Chrome `"X"` events (chrome://tracing, Perfetto).
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":{:?},\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{},\"args\":{{\"id\":{i}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3,
                s.track,
            );
            if let Some(p) = s.parent {
                let _ = write!(out, ",\"parent\":{p}");
            }
            if let Some(r) = s.request {
                let _ = write!(out, ",\"request\":{r}");
            }
            out.push_str("}}");
        }
        out.push_str("]}\n");
        out
    }
}
