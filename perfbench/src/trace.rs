//! In-memory span recorder for the traced run.
//!
//! The benchmark records spans around its own calls into each layer's
//! public functions; nothing inside the program is instrumented. Each span
//! has a name, a start and an end (nanoseconds since the run's epoch), the
//! span that caused it, and a request id shared by every span of one
//! request. Spans stay in memory and are written out once, when the run
//! ends. A disabled tracer records nothing, so the untraced run pays only
//! for the branch.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// Index of a span within its tracer.
pub type SpanId = usize;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<SpanId>,
    req: u64,
}

/// One thread's spans.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer whose timestamps count from `epoch`.
    pub fn new(enabled: bool, epoch: Instant) -> Self {
        Tracer {
            enabled,
            epoch,
            spans: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span at `start`; close it with [`Tracer::close`].
    pub fn open(
        &mut self,
        name: &'static str,
        start: Instant,
        parent: Option<SpanId>,
        req: u64,
    ) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let start_ns = self.ns(start);
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            req,
        });
        Some(self.spans.len() - 1)
    }

    /// Sets the end of a span opened with [`Tracer::open`].
    pub fn close(&mut self, id: Option<SpanId>, end: Instant) {
        if let Some(id) = id {
            let end_ns = self.ns(end);
            self.spans[id].end_ns = end_ns;
        }
    }

    /// Records a finished span.
    pub fn span(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<SpanId>,
        req: u64,
    ) -> Option<SpanId> {
        let id = self.open(name, start, parent, req);
        self.close(id, end);
        id
    }

    /// Appends another thread's spans, keeping their parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Durations in milliseconds of every span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .collect()
    }

    /// Self time in milliseconds of every span called `name`: its duration
    /// minus the part of it its children cover (children of one span do
    /// not overlap in this benchmark, so their durations are summed).
    pub fn self_ms(&self, name: &str) -> Vec<f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(i, s)| (s.end_ns - s.start_ns).saturating_sub(child_ns[i]) as f64 / 1e6)
            .collect()
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{}}}",
                s.name, s.start_ns, s.end_ns, s.req
            );
        }
        let mut f = std::fs::File::create(path)?;
        f.write_all(out.as_bytes())?;
        f.flush()
    }
}
