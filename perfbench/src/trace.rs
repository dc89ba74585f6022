//! Spans recorded from outside the program, around calls into its layers.
//!
//! A span has a name, a start and end (nanoseconds since the tracer's
//! origin), the span that caused it, the solve or request it belongs to,
//! and the range of `PassLog` entries recorded while it was open — so
//! engine counts are attributed at the same boundary the time is.
//! Spans stay in memory and are written out once, at the end of the run.

use std::time::Instant;

/// One closed span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer name, e.g. `"acd"` or `"driver.activate"`.
    pub name: &'static str,
    /// Index of this span in [`Tracer::spans`].
    pub id: usize,
    /// The enclosing span, if any.
    pub parent: Option<usize>,
    /// Solve or request identifier shared by all spans of one unit of work.
    pub unit: u64,
    /// Start, in nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer's origin.
    pub end_ns: u64,
    /// `PassLog` entries `[first, last)` recorded inside the span.
    pub passes: (usize, usize),
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// In-memory span recorder with a stack of open spans.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Nanoseconds since the origin.
    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Open a span under the innermost open one; `pass` is the current
    /// `PassLog` length.
    pub fn enter(&mut self, name: &'static str, unit: u64, pass: usize) -> usize {
        let id = self.spans.len();
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            id,
            parent: self.open.last().copied(),
            unit,
            start_ns,
            end_ns: start_ns,
            passes: (pass, pass),
        });
        self.open.push(id);
        id
    }

    /// Close the innermost open span, which must be `id`.
    pub fn exit(&mut self, id: usize, pass: usize) {
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        let end_ns = self.ns(Instant::now());
        let span = &mut self.spans[id];
        span.end_ns = end_ns;
        span.passes.1 = pass;
    }

    /// Record an already-finished span (e.g. a served request, from its
    /// due time to its completion instant).
    pub fn record(&mut self, name: &'static str, unit: u64, start: Instant, end: Instant) {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            id,
            parent: None,
            unit,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            passes: (0, 0),
        });
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as one JSON document (one object per span).
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "  {{\"id\": {}, \"name\": \"{}\", \"parent\": {}, \"unit\": {}, \"start_ns\": {}, \"end_ns\": {}, \"passes\": [{}, {}]}}{}\n",
                s.id,
                s.name,
                parent,
                s.unit,
                s.start_ns,
                s.end_ns,
                s.passes.0,
                s.passes.1,
                if i + 1 < self.spans.len() { "," } else { "" }
            ));
        }
        out.push(']');
        out
    }
}
