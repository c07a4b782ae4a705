//! Harness-side spans: one per call into a layer of the program.
//!
//! Spans are recorded from outside the program, around the calls the
//! benchmark makes, kept in memory and written out when the run ends.
//! A disabled log (the untraced repetitions) records nothing.

use std::time::Instant;

/// One recorded span.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// Layer-prefixed name, e.g. `exec.step_round`.
    pub name: &'static str,
    /// Nanoseconds since the log was created.
    pub start_ns: u64,
    /// Nanoseconds since the log was created.
    pub end_ns: u64,
    /// Index of the span that was open when this one began.
    pub parent: Option<usize>,
    /// The request this span belongs to: a job id or a version.
    pub request: u64,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle returned by [`SpanLog::begin`]; pass it back to
/// [`SpanLog::end`].
#[derive(Clone, Copy, Debug)]
pub struct SpanId(Option<usize>);

/// An in-memory span log with a stack of open spans.
pub struct SpanLog {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl SpanLog {
    /// A log that records.
    pub fn enabled() -> Self {
        SpanLog { epoch: Instant::now(), enabled: true, spans: Vec::new(), open: Vec::new() }
    }

    /// A log whose `begin`/`end` do nothing.
    pub fn disabled() -> Self {
        SpanLog { epoch: Instant::now(), enabled: false, spans: Vec::new(), open: Vec::new() }
    }

    /// Opens a span as a child of the innermost open one.
    pub fn begin(&mut self, name: &'static str, request: u64) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let now = self.epoch.elapsed().as_nanos() as u64;
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(idx);
        SpanId(Some(idx))
    }

    /// Closes a span (and any span opened inside it that was left
    /// open).
    pub fn end(&mut self, id: SpanId) {
        let Some(idx) = id.0 else { return };
        let now = self.epoch.elapsed().as_nanos() as u64;
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = now;
            if top == idx {
                break;
            }
        }
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total duration of the spans called `name`, in seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        let ns: u64 = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_ns)
            .sum();
        ns as f64 / 1e9
    }

    /// Durations of the spans called `name`, in seconds.
    pub fn durations_s(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e9)
            .collect()
    }

    /// Self time of the spans called `name`, in seconds: each span's
    /// duration minus the part of it that its child spans cover.
    pub fn self_s(&self, name: &str) -> f64 {
        self_time_ns(&self.spans, name) as f64 / 1e9
    }
}

/// Self time of all spans called `name`: duration minus the union of
/// the intervals of direct children, clipped to the parent.
pub fn self_time_ns(spans: &[Span], name: &str) -> u64 {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    let mut total = 0u64;
    for (i, s) in spans.iter().enumerate() {
        if s.name != name {
            continue;
        }
        let kids = &mut children[i];
        kids.sort_unstable();
        let mut covered = 0u64;
        let mut cursor = s.start_ns;
        for &(a, b) in kids.iter() {
            let a = a.max(cursor);
            let b = b.min(s.end_ns);
            if b > a {
                covered += b - a;
                cursor = b;
            }
        }
        total += s.dur_ns().saturating_sub(covered);
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span { name, start_ns: start, end_ns: end, parent, request: 0 }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = [
            span("outer", 0, 100, None),
            span("inner", 10, 30, Some(0)),
            span("inner", 50, 90, Some(0)),
            span("leaf", 55, 60, Some(2)),
        ];
        assert_eq!(self_time_ns(&spans, "outer"), 100 - 20 - 40);
        // Grandchildren are subtracted from their own parent only.
        assert_eq!(self_time_ns(&spans, "inner"), 20 + 40 - 5);
        assert_eq!(self_time_ns(&spans, "leaf"), 5);
        assert_eq!(self_time_ns(&spans, "absent"), 0);
    }

    #[test]
    fn overlapping_children_are_covered_once_and_clipped() {
        let spans = [
            span("outer", 10, 110, None),
            span("a", 20, 60, Some(0)),
            span("b", 40, 80, Some(0)),
            // Starts inside, ends past the parent: clipped at 110.
            span("c", 100, 150, Some(0)),
        ];
        // Union of children inside [10,110] is [20,80] + [100,110] = 70.
        assert_eq!(self_time_ns(&spans, "outer"), 100 - 70);
    }

    #[test]
    fn log_nests_by_call_order() {
        let mut log = SpanLog::enabled();
        let outer = log.begin("outer", 7);
        let inner = log.begin("inner", 7);
        log.end(inner);
        let second = log.begin("inner", 8);
        log.end(second);
        log.end(outer);
        let s = log.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(s[0].parent, None);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(0));
        assert_eq!(s[2].request, 8);
        assert!(s[0].end_ns >= s[2].end_ns);
        assert!(log.self_s("outer") <= log.total_s("outer"));
        assert_eq!(log.durations_s("inner").len(), 2);
    }

    #[test]
    fn ending_an_outer_span_closes_what_it_left_open() {
        let mut log = SpanLog::enabled();
        let outer = log.begin("outer", 0);
        let _leaked = log.begin("inner", 0);
        log.end(outer);
        let next = log.begin("next", 0);
        log.end(next);
        assert_eq!(log.spans()[2].parent, None);
        assert!(log.spans()[1].end_ns <= log.spans()[0].end_ns);
    }

    #[test]
    fn disabled_log_records_nothing() {
        let mut log = SpanLog::disabled();
        let id = log.begin("x", 0);
        log.end(id);
        assert!(log.spans().is_empty());
    }
}
