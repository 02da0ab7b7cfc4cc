//! In-memory spans recorded by the benchmark around its calls into each
//! crate's public functions.
//!
//! A span is `(id, name, start, end, parent, request)`; spans of one request
//! share the request id. Spans stay in memory while the workload runs and
//! are written out as JSON lines when the benchmark ends. A disabled tracer
//! records nothing, so the untraced end-to-end run pays only a branch.

use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the tracer's origin.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Unique id within the tracer (ids start at 1).
    pub id: u64,
    /// The layer call, named `crate.function`.
    pub name: &'static str,
    /// Start, ns since the origin.
    pub start_ns: u64,
    /// End, ns since the origin.
    pub end_ns: u64,
    /// The enclosing span, if any.
    pub parent: Option<u64>,
    /// The request this span belongs to.
    pub request: u64,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// The span store.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records spans only when `enabled`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// A fresh id for a span that will enclose others (pass it to
    /// [`Tracer::record`] as that span's `id`, and to children as `parent`).
    pub fn reserve_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Runs `f` inside a span named `name` and returns its result.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<u64>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        if !self.enabled {
            return f();
        }
        let start = Instant::now();
        let out = f();
        let id = self.reserve_id();
        self.record(id, name, start, Instant::now(), parent, request);
        out
    }

    /// Records a span measured by the caller.
    pub fn record(
        &self,
        id: u64,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<u64>,
        request: u64,
    ) {
        if !self.enabled {
            return;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        let span = Span {
            id,
            name,
            start_ns: ns(start),
            end_ns: ns(end),
            parent,
            request,
        };
        self.spans.lock().expect("span store poisoned").push(span);
    }

    /// A copy of every recorded span.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span store poisoned").clone()
    }

    /// Mean duration (ms) of the spans named `name`, 0 when there are none.
    pub fn mean_ms(&self, name: &str) -> f64 {
        let spans = self.spans.lock().expect("span store poisoned");
        let durations: Vec<f64> = spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect();
        crate::stats::mean(&durations)
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"request\":{}}}",
                s.id, s.name, s.start_ns, s.end_ns, parent, s.request
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("x.y", None, 1, || 5), 5);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn spans_carry_parent_and_request() {
        let t = Tracer::new(true);
        let root = t.reserve_id();
        let start = Instant::now();
        t.span("child.a", Some(root), 7, || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        t.record(root, "root.r", start, Instant::now(), None, 7);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert!(spans.iter().all(|s| s.request == 7));
        assert_eq!(spans[0].parent, Some(root));
        assert!(t.mean_ms("root.r") >= t.mean_ms("child.a"));
        assert!(t.mean_ms("child.a") >= 5.0);
        assert_eq!(t.mean_ms("missing"), 0.0);
    }
}
