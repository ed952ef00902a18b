//! Outside-in span tracing.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer's public functions; nothing inside the measured program is
//! instrumented. Every thread records into its own [`Tracer`] (no shared
//! state on the hot path), all tracers of a run share one epoch, and the
//! spans stay in memory until the run ends, when [`write_jsonl`] writes
//! them out and [`span_totals`] folds them into per-layer totals and self
//! times.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer boundary name, e.g. `prover.finite.search`.
    pub name: &'static str,
    /// Start, in nanoseconds since the run's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the run's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span in the same tracer, if any.
    pub parent: Option<u32>,
    /// The obligation, condition or transaction the span belongs to.
    pub id: u64,
}

impl Span {
    /// The span's duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Where a measured loop reports span boundaries. The untraced loops use
/// [`NoTrace`], whose methods compile to nothing, so traced and untraced
/// runs execute the same code apart from the clock reads.
pub trait Recorder {
    /// Opens a span nested in the innermost open span.
    fn enter(&mut self, name: &'static str, id: u64);
    /// Closes the innermost open span.
    fn exit(&mut self);
}

/// The recorder of untraced runs.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoTrace;

impl Recorder for NoTrace {
    #[inline(always)]
    fn enter(&mut self, _name: &'static str, _id: u64) {}

    #[inline(always)]
    fn exit(&mut self) {}
}

/// A per-thread in-memory span recorder.
#[derive(Debug, Clone)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    /// A recorder whose timestamps count from `epoch`, with room for
    /// `capacity` spans before it reallocates.
    pub fn new(epoch: Instant, capacity: usize) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::with_capacity(capacity),
            open: Vec::new(),
        }
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, id: u64, f: impl FnOnce(&mut Tracer) -> R) -> R {
        self.enter(name, id);
        let result = f(self);
        self.exit();
        result
    }

    /// The recorded spans, in the order they were opened.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

impl Recorder for Tracer {
    fn enter(&mut self, name: &'static str, id: u64) {
        let parent = self.open.last().copied();
        let index = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            id,
        });
        self.open.push(index);
    }

    fn exit(&mut self) {
        let index = self.open.pop().expect("exit without a matching enter");
        self.spans[index as usize].end_ns = self.now_ns();
    }
}

/// Aggregate of every span with one name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SpanTotal {
    /// Number of spans.
    pub count: u64,
    /// Summed durations, in seconds.
    pub total_s: f64,
    /// Summed self times (duration minus the direct children's durations),
    /// in seconds.
    pub self_s: f64,
    /// Longest single span, in seconds.
    pub max_s: f64,
}

/// Totals and self times per span name over every tracer of a run.
pub fn span_totals(tracers: &[&Tracer]) -> BTreeMap<&'static str, SpanTotal> {
    let mut totals: BTreeMap<&'static str, SpanTotal> = BTreeMap::new();
    for tracer in tracers {
        let spans = tracer.spans();
        let mut child_ns = vec![0u64; spans.len()];
        for span in spans {
            if let Some(parent) = span.parent {
                child_ns[parent as usize] += span.duration_ns();
            }
        }
        for (span, children) in spans.iter().zip(child_ns) {
            let total = totals.entry(span.name).or_default();
            let duration = span.duration_ns() as f64 * 1e-9;
            total.count += 1;
            total.total_s += duration;
            total.self_s += span.duration_ns().saturating_sub(children) as f64 * 1e-9;
            total.max_s = total.max_s.max(duration);
        }
    }
    totals
}

/// Durations, in nanoseconds, of every span named `name`.
pub fn durations_ns(tracers: &[&Tracer], name: &str) -> Vec<f64> {
    tracers
        .iter()
        .flat_map(|t| t.spans().iter())
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64)
        .collect()
}

/// Spans written per tracer. Spans are stored in the order they were
/// opened, so every parent of a written span is written too.
pub const MAX_WRITTEN_SPANS: usize = 50_000;

/// Writes the first [`MAX_WRITTEN_SPANS`] spans of every tracer as one JSON
/// object per line: thread, index, name, start and end (ns since the
/// epoch), parent index and id. The totals of [`span_totals`] cover every
/// span, written or not.
pub fn write_jsonl(path: &Path, tracers: &[&Tracer]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (thread, tracer) in tracers.iter().enumerate() {
        for (index, span) in tracer.spans().iter().take(MAX_WRITTEN_SPANS).enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"thread\":{thread},\"index\":{index},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"id\":{}}}",
                span.name, span.start_ns, span.end_ns, span.id
            )?;
        }
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut tracer = Tracer::new(Instant::now(), 4);
        tracer.span("outer", 1, |t| {
            t.span("inner", 1, |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let totals = span_totals(&[&tracer]);
        let outer = &totals["outer"];
        let inner = &totals["inner"];
        assert_eq!((outer.count, inner.count), (1, 1));
        assert!(inner.total_s >= 0.002);
        assert!(outer.total_s >= inner.total_s);
        assert!((outer.self_s - (outer.total_s - inner.total_s)).abs() < 1e-6);
        assert_eq!(tracer.spans()[1].parent, Some(0));
    }
}
