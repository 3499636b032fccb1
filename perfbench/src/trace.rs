//! In-memory spans recorded from the benchmark's side of each layer call.
//!
//! A span has a name, a start and an end (nanoseconds since the tracer's
//! epoch), the index of the span that encloses it, and the id of the op it
//! belongs to. Spans are pushed into a `Vec` and only read after the timed
//! loop ends. A disabled tracer records nothing, so the same code path runs
//! untraced.

use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A per-thread span recorder.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u64,
}

/// Handle returned by [`Tracer::begin`]; `usize::MAX` when disabled.
#[derive(Clone, Copy)]
pub struct SpanId(usize);

impl Tracer {
    pub fn new(enabled: bool, epoch: Instant) -> Tracer {
        Tracer {
            enabled,
            epoch,
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Turns recording on or off between ops (the traced run alternates).
    pub fn set_enabled(&mut self, enabled: bool) {
        debug_assert!(self.stack.is_empty(), "toggled inside a span");
        self.enabled = enabled;
    }

    /// Sets the op id stamped on the spans that follow.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(usize::MAX);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            op: self.op,
        });
        self.stack.push(id);
        SpanId(id)
    }

    pub fn end(&mut self, id: SpanId) {
        if id.0 == usize::MAX {
            return;
        }
        let end_ns = self.now_ns();
        self.spans[id.0].end_ns = end_ns;
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(id.0), "spans must nest");
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    /// Makes room for `additional` more spans and touches the new memory,
    /// so pushes inside a timed op neither reallocate nor page-fault. Call
    /// it between ops.
    pub fn reserve(&mut self, additional: usize) {
        if !self.enabled || self.spans.capacity() - self.spans.len() >= additional {
            return;
        }
        let len = self.spans.len();
        let target = (len + additional).max(2 * self.spans.capacity());
        let blank = Span {
            name: "",
            start_ns: 0,
            end_ns: 0,
            parent: None,
            op: 0,
        };
        self.spans.resize(target, blank);
        self.spans.truncate(len);
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time of every span: its duration minus the time its direct
/// children cover. Children of one span run one after another on the same
/// thread, so their durations do not overlap.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.dur_ns();
        }
    }
    spans
        .iter()
        .zip(&child_ns)
        .map(|(s, c)| s.dur_ns().saturating_sub(*c))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("op", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("a.inner", 15, 25, Some(1)),
            span("b", 50, 90, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 20, 10, 40]);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        let id = t.begin("x");
        t.end(id);
        assert_eq!(t.span("y", || 7), 7);
        assert!(t.into_spans().is_empty());
    }

    #[test]
    fn spans_nest_and_carry_the_op_id() {
        let mut t = Tracer::new(true, Instant::now());
        t.set_op(42);
        t.reserve(8);
        let root = t.begin("op");
        t.span("child", || ());
        t.end(root);
        let spans = t.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans.iter().all(|s| s.op == 42 && s.end_ns >= s.start_ns));
    }
}
