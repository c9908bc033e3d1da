//! Spans recorded from the benchmark's own code around calls into each
//! layer's public functions. Nothing here reaches inside a library crate.
//!
//! A span has a name, a layer, start and end, its parent and the job it
//! served. A span's self time is its duration minus its children's, so the
//! self times of one timeline add up exactly to the duration of its root
//! spans, whose own self time is the `unattributed` remainder.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// The layer charged for time no layer span covers.
pub const UNATTRIBUTED: &str = "unattributed";

/// Layers reported, in the order the benchmark prints them.
pub const LAYERS: [&str; 6] =
    ["sparse", "core", "service", "service.parallel", "service.wire", UNATTRIBUTED];

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// The function called, e.g. `Csr::validate`.
    pub name: &'static str,
    /// The layer the function belongs to.
    pub layer: &'static str,
    /// Timeline (thread) that recorded it.
    pub timeline: usize,
    /// Nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's origin.
    pub end_ns: u64,
    /// Index of the parent span in the same timeline, if any.
    pub parent: Option<usize>,
    /// The job the call served, if any.
    pub job: Option<u64>,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A per-thread span recorder. A disabled tracer records no spans, so the
/// untraced run executes the same code path.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    timeline: usize,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A tracer on `timeline`, measuring from `origin`.
    pub fn new(enabled: bool, timeline: usize, origin: Instant) -> Tracer {
        Tracer { enabled, timeline, origin, spans: Vec::new(), stack: Vec::new() }
    }

    fn since_origin(&self, at: Instant) -> u64 {
        u64::try_from(at.duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    fn push(&mut self, layer: &'static str, name: &'static str, job: Option<u64>, at: Instant) {
        let start_ns = self.since_origin(at);
        self.spans.push(Span {
            name,
            layer,
            timeline: self.timeline,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            job,
        });
        self.stack.push(self.spans.len() - 1);
    }

    fn pop(&mut self, at: Instant) {
        let end_ns = self.since_origin(at);
        if let Some(i) = self.stack.pop() {
            self.spans[i].end_ns = end_ns;
        }
    }

    /// Opens a span; close it with [`Tracer::close`].
    pub fn open(&mut self, layer: &'static str, name: &'static str, job: Option<u64>) {
        if self.enabled {
            self.push(layer, name, job, Instant::now());
        }
    }

    /// Closes the innermost open span.
    pub fn close(&mut self) {
        if self.enabled {
            self.pop(Instant::now());
        }
    }

    /// Runs `f` inside a leaf span; returns its result and its duration in
    /// nanoseconds. The duration is measured whether or not spans are
    /// recorded.
    pub fn timed<R>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        job: Option<u64>,
        f: impl FnOnce() -> R,
    ) -> (R, u64) {
        let start = Instant::now();
        if self.enabled {
            self.push(layer, name, job, start);
        }
        let r = f();
        let end = Instant::now();
        if self.enabled {
            self.pop(end);
        }
        (r, u64::try_from(end.duration_since(start).as_nanos()).unwrap_or(u64::MAX))
    }

    /// [`Tracer::timed`] without the duration.
    pub fn time<R>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        job: Option<u64>,
        f: impl FnOnce() -> R,
    ) -> R {
        self.timed(layer, name, job, f).0
    }

    /// The recorded spans (all closed once the run is over).
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time per layer, in nanoseconds, over spans from any number of
/// timelines (each timeline's parents index into its own spans).
pub fn self_time_by_layer(timelines: &[Vec<Span>]) -> BTreeMap<&'static str, u64> {
    let mut by_layer: BTreeMap<&'static str, u64> = BTreeMap::new();
    for spans in timelines {
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur();
            }
        }
        for (s, c) in spans.iter().zip(child_ns) {
            *by_layer.entry(s.layer).or_insert(0) += s.dur().saturating_sub(c);
        }
    }
    by_layer
}

/// Total duration of the root spans of every timeline, in nanoseconds.
pub fn root_ns(timelines: &[Vec<Span>]) -> u64 {
    timelines.iter().flatten().filter(|s| s.parent.is_none()).map(Span::dur).sum()
}

/// The spans as JSON lines, one object per span.
pub fn to_json_lines(timelines: &[Vec<Span>]) -> String {
    let mut out = String::new();
    for s in timelines.iter().flatten() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let job = s.job.map_or("null".to_string(), |j| j.to_string());
        let _ = writeln!(
            out,
            "{{\"name\":\"{}\",\"layer\":\"{}\",\"timeline\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"job\":{job}}}",
            s.name, s.layer, s.timeline, s.start_ns, s.end_ns
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name: "f", layer, timeline: 0, start_ns, end_ns, parent, job: None }
    }

    #[test]
    fn self_times_add_up_to_the_roots() {
        let tl = vec![
            span(UNATTRIBUTED, 0, 100, None),
            span("core", 10, 60, Some(0)),
            span("sparse", 20, 30, Some(1)),
            span("service.wire", 70, 90, Some(0)),
        ];
        let other = vec![span(UNATTRIBUTED, 0, 50, None), span("core", 0, 40, Some(0))];
        let timelines = [tl, other];
        let by = self_time_by_layer(&timelines);
        assert_eq!(by["core"], 40 + 40);
        assert_eq!(by["sparse"], 10);
        assert_eq!(by["service.wire"], 20);
        assert_eq!(by[UNATTRIBUTED], 30 + 10);
        assert_eq!(by.values().sum::<u64>(), root_ns(&timelines));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, 0, Instant::now());
        assert_eq!(t.time("core", "f", None, || 7), 7);
        assert!(t.into_spans().is_empty());
    }

    #[test]
    fn nested_spans_link_to_parents() {
        let mut t = Tracer::new(true, 3, Instant::now());
        t.open(UNATTRIBUTED, "run", None);
        t.time("core", "inner", Some(9), || ());
        t.close();
        let spans = t.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[1].parent, spans[1].job, spans[1].timeline), (Some(0), Some(9), 3));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
    }
}
