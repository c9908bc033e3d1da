//! Deterministic observability primitives: stall attribution, Chrome-trace
//! events, and a flat metrics registry.
//!
//! The paper's evaluation (Fig. 6 bandwidth, Fig. 9 busy/stall fractions)
//! is a *measurement* argument, so the simulator needs a first-class
//! measurement layer. This module holds the pieces that are independent of
//! any particular hardware unit:
//!
//! * [`StageClass`] / [`StageBreakdown`] — the canonical four-way split of
//!   every pipeline-stage cycle into busy / stalled-on-memory /
//!   stalled-on-queue / idle, with the invariant that the buckets sum
//!   exactly to the cycles the stage was ticked;
//! * [`ChromeTrace`] — an event buffer serialisable to the
//!   `chrome://tracing` / Perfetto JSON object format;
//! * [`MetricsRegistry`] — a flat, sorted name → value store with
//!   deterministic JSON rendering and an FNV-1a fingerprint, so `--strict`
//!   replay gates can cover metrics byte-for-byte;
//! * [`fnv1a64`] — the workspace's shared fingerprint hash.
//!
//! Everything here is std-only and deterministic: no wall-clock, no
//! hashing-order dependence (BTreeMap only), and no floating point in any
//! fingerprinted byte stream (fractions are rendered as integer permille).

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::plain_struct;
use crate::stats::{Counter, CycleBreakdown, Histogram};

/// FNV-1a 64-bit hash — the workspace's standard cheap fingerprint.
///
/// The same constants are used by the checkpoint checksum and the bench
/// campaign report fingerprints; keeping one public copy here lets trace
/// summaries and campaign reports share it.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// What a pipeline stage did with one cycle.
///
/// Exactly one class is charged per tick, which is what makes the
/// [`StageBreakdown`] buckets sum to total cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StageClass {
    /// The stage moved at least one token / did useful work.
    Busy,
    /// The stage was blocked waiting on the memory system (outstanding
    /// reads or writes, refused bursts).
    MemStall,
    /// The stage was blocked on a full or empty coupling queue
    /// (downstream backpressure, or upstream starvation while the
    /// upstream is still live).
    QueueStall,
    /// The stage had nothing to do (startup, drained pipeline, upstream
    /// finished).
    Idle,
}

/// Per-stage cycle attribution: busy / mem-stall / queue-stall / idle.
///
/// The observability invariant: when a stage is ticked exactly once per
/// cycle and charges exactly one [`StageClass`] per tick, `total()` equals
/// the number of cycles the stage existed for — the `trace_report` bench
/// bin asserts this across the whole synthetic suite.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageBreakdown {
    /// Cycles in [`StageClass::Busy`].
    pub busy: Counter,
    /// Cycles in [`StageClass::MemStall`].
    pub mem_stall: Counter,
    /// Cycles in [`StageClass::QueueStall`].
    pub queue_stall: Counter,
    /// Cycles in [`StageClass::Idle`].
    pub idle: Counter,
}

plain_struct!(StageBreakdown { busy, mem_stall, queue_stall, idle });

impl StageBreakdown {
    /// Charges one cycle to `class`.
    pub fn charge(&mut self, class: StageClass) {
        match class {
            StageClass::Busy => self.busy.incr(),
            StageClass::MemStall => self.mem_stall.incr(),
            StageClass::QueueStall => self.queue_stall.incr(),
            StageClass::Idle => self.idle.incr(),
        }
    }

    /// Charges `n` cycles to `class` at once: what `n` calls of
    /// [`charge`](StageBreakdown::charge) would do.
    pub fn charge_cycles(&mut self, class: StageClass, n: u64) {
        match class {
            StageClass::Busy => self.busy.add(n),
            StageClass::MemStall => self.mem_stall.add(n),
            StageClass::QueueStall => self.queue_stall.add(n),
            StageClass::Idle => self.idle.add(n),
        }
    }

    /// Total cycles accounted across the four buckets.
    pub fn total(&self) -> u64 {
        self.busy.get() + self.mem_stall.get() + self.queue_stall.get() + self.idle.get()
    }

    /// Accumulates another breakdown (e.g. across lanes).
    pub fn merge_from(&mut self, other: &StageBreakdown) {
        self.busy.add(other.busy.get());
        self.mem_stall.add(other.mem_stall.get());
        self.queue_stall.add(other.queue_stall.get());
        self.idle.add(other.idle.get());
    }

    /// The buckets as `[busy, mem_stall, queue_stall, idle]`.
    pub fn as_array(&self) -> [u64; 4] {
        [self.busy.get(), self.mem_stall.get(), self.queue_stall.get(), self.idle.get()]
    }

    /// Maps a PE [`CycleBreakdown`] onto the stage vocabulary: the PE's
    /// merge (sorting-queue) stall is a queue stall.
    pub fn from_cycle_breakdown(b: &CycleBreakdown) -> Self {
        let mut s = StageBreakdown::default();
        s.busy.add(b.busy.get());
        s.mem_stall.add(b.memory_stall.get());
        s.queue_stall.add(b.merge_stall.get());
        s.idle.add(b.idle.get());
        s
    }
}

/// Escapes a string for inclusion in a JSON string literal.
fn json_escape(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// One `chrome://tracing` event in the JSON object format.
///
/// Only the event shapes the exporter needs are modelled: complete ("X")
/// spans, counter ("C") samples, and metadata ("M") naming records. All
/// argument values are integers so the serialised bytes are deterministic.
#[derive(Debug, Clone)]
enum ChromeEvent {
    /// A complete event: a span with start timestamp and duration.
    Complete {
        name: String,
        pid: u64,
        tid: u64,
        /// Start, in trace time units (simulated cycles).
        ts: u64,
        /// Duration, in trace time units.
        dur: u64,
        args: Vec<(String, u64)>,
    },
    /// A counter sample; each arg becomes one track in the counter lane.
    CounterSample { name: String, pid: u64, tid: u64, ts: u64, args: Vec<(String, u64)> },
    /// A process/thread naming metadata record.
    Metadata { name: String, pid: u64, tid: u64, arg_name: String },
}

/// A buffer of Chrome-trace events with a deterministic JSON serialiser.
///
/// The output is the `{"traceEvents":[...]}` object form understood by
/// `chrome://tracing` and Perfetto. Timestamps are simulated cycles
/// (declared via a `displayTimeUnit` of `"ns"`; one cycle renders as one
/// nanosecond, which keeps the numbers integral and the bytes stable).
#[derive(Debug, Clone, Default)]
pub struct ChromeTrace {
    events: Vec<ChromeEvent>,
}

impl ChromeTrace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        ChromeTrace::default()
    }

    /// Names a process (a `process_name` metadata event).
    pub fn name_process(&mut self, pid: u64, name: &str) {
        self.events.push(ChromeEvent::Metadata {
            name: "process_name".to_string(),
            pid,
            tid: 0,
            arg_name: name.to_string(),
        });
    }

    /// Names a thread (a `thread_name` metadata event).
    pub fn name_thread(&mut self, pid: u64, tid: u64, name: &str) {
        self.events.push(ChromeEvent::Metadata {
            name: "thread_name".to_string(),
            pid,
            tid,
            arg_name: name.to_string(),
        });
    }

    /// Appends a complete ("X") span with integer arguments.
    pub fn complete_with_args(
        &mut self,
        name: &str,
        pid: u64,
        tid: u64,
        ts: u64,
        dur: u64,
        args: &[(&str, u64)],
    ) {
        self.events.push(ChromeEvent::Complete {
            name: name.to_string(),
            pid,
            tid,
            ts,
            dur,
            args: args.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
        });
    }

    /// Appends a counter ("C") sample; each arg becomes a series.
    pub fn counter(&mut self, name: &str, pid: u64, tid: u64, ts: u64, args: &[(&str, u64)]) {
        self.events.push(ChromeEvent::CounterSample {
            name: name.to_string(),
            pid,
            tid,
            ts,
            args: args.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
        });
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no events have been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Serialises the trace to the Chrome JSON object format.
    ///
    /// Events are emitted in insertion order; all values are integers, so
    /// two identical runs produce byte-identical output.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
        for (i, ev) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            match ev {
                ChromeEvent::Complete { name, pid, tid, ts, dur, args } => {
                    out.push_str("{\"ph\":\"X\",\"name\":\"");
                    json_escape(name, &mut out);
                    let _ = write!(out, "\",\"pid\":{pid},\"tid\":{tid},\"ts\":{ts},\"dur\":{dur}");
                    Self::write_args(&mut out, args);
                    out.push('}');
                }
                ChromeEvent::CounterSample { name, pid, tid, ts, args } => {
                    out.push_str("{\"ph\":\"C\",\"name\":\"");
                    json_escape(name, &mut out);
                    let _ = write!(out, "\",\"pid\":{pid},\"tid\":{tid},\"ts\":{ts}");
                    Self::write_args(&mut out, args);
                    out.push('}');
                }
                ChromeEvent::Metadata { name, pid, tid, arg_name } => {
                    out.push_str("{\"ph\":\"M\",\"name\":\"");
                    json_escape(name, &mut out);
                    let _ = write!(
                        out,
                        "\",\"pid\":{pid},\"tid\":{tid},\"ts\":0,\"args\":{{\"name\":\""
                    );
                    json_escape(arg_name, &mut out);
                    out.push_str("\"}}");
                }
            }
        }
        out.push_str("]}");
        out
    }

    fn write_args(out: &mut String, args: &[(String, u64)]) {
        if args.is_empty() {
            return;
        }
        out.push_str(",\"args\":{");
        for (i, (k, v)) in args.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            json_escape(k, out);
            let _ = write!(out, "\":{v}");
        }
        out.push('}');
    }
}

/// A flat, deterministic metrics store: sorted counter and histogram
/// namespaces with stable JSON rendering and an FNV-1a fingerprint.
///
/// Names are free-form dotted paths (`"tenant.a.completed"`,
/// `"lane0.spal.busy"`). Iteration and serialisation order is the
/// `BTreeMap` name order, never insertion or hash order.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Histogram>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Sets counter `name` to `value` (creating it if absent).
    pub fn set_counter(&mut self, name: &str, value: u64) {
        self.counters.insert(name.to_string(), value);
    }

    /// Adds `delta` to counter `name` (creating it at 0 if absent).
    pub fn add_counter(&mut self, name: &str, delta: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += delta;
    }

    /// Reads counter `name`, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.get(name).copied()
    }

    /// Records `sample` into histogram `name`, creating it with `bounds`
    /// on first use (later calls ignore `bounds`).
    pub fn record(&mut self, name: &str, bounds: &[u64], sample: u64) {
        self.histograms
            .entry(name.to_string())
            .or_insert_with(|| Histogram::new(bounds.to_vec()))
            .record(sample);
    }

    /// Reads histogram `name`, if present.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Number of counters plus histograms.
    pub fn len(&self) -> usize {
        self.counters.len() + self.histograms.len()
    }

    /// Whether the registry holds no metrics.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.histograms.is_empty()
    }

    /// Renders the registry as a deterministic JSON object.
    ///
    /// Counters are plain integers; histograms render their total, max,
    /// mean-as-permille (integer, avoids float formatting in fingerprinted
    /// bytes), and per-bucket counts. Key order is lexicographic.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\"counters\":{");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            json_escape(k, &mut out);
            let _ = write!(out, "\":{v}");
        }
        out.push_str("},\"histograms\":{");
        for (i, (k, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            json_escape(k, &mut out);
            let mean_permille = (h.mean() * 1000.0).round() as u64;
            let _ = write!(
                out,
                "\":{{\"total\":{},\"max\":{},\"mean_permille\":{},\"counts\":[",
                h.total(),
                h.max(),
                mean_permille
            );
            for (j, c) in h.counts().iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{c}");
            }
            out.push_str("]}");
        }
        out.push_str("}}");
        out
    }

    /// FNV-1a-64 fingerprint of [`to_json`](MetricsRegistry::to_json) —
    /// the replay-gate identity of this registry.
    pub fn fingerprint(&self) -> u64 {
        fnv1a64(self.to_json().as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vectors() {
        // Standard FNV-1a test vectors.
        assert_eq!(fnv1a64(b""), 0xCBF2_9CE4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xAF63_DC4C_8601_EC8C);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171F73967E8);
    }

    #[test]
    fn breakdown_buckets_sum_to_charged_cycles() {
        let mut b = StageBreakdown::default();
        for i in 0..100u64 {
            b.charge(match i % 4 {
                0 => StageClass::Busy,
                1 => StageClass::MemStall,
                2 => StageClass::QueueStall,
                _ => StageClass::Idle,
            });
        }
        assert_eq!(b.total(), 100);
        assert_eq!(b.as_array(), [25, 25, 25, 25]);
    }

    #[test]
    fn a_bulk_charge_equals_that_many_single_charges() {
        let classes = [StageClass::Busy, StageClass::MemStall, StageClass::QueueStall];
        let (mut bulk, mut single) = (StageBreakdown::default(), StageBreakdown::default());
        for (n, class) in [7u64, 0, 3].into_iter().zip(classes) {
            bulk.charge_cycles(class, n);
            (0..n).for_each(|_| single.charge(class));
        }
        bulk.charge_cycles(StageClass::Idle, 2);
        single.charge(StageClass::Idle);
        single.charge(StageClass::Idle);
        assert_eq!(bulk, single);
        assert_eq!(bulk.as_array(), [7, 0, 3, 2]);
    }

    #[test]
    fn breakdown_maps_pe_merge_stall_to_queue_stall() {
        let mut pe = CycleBreakdown::default();
        pe.busy.add(5);
        pe.merge_stall.add(3);
        pe.memory_stall.add(2);
        pe.idle.add(1);
        let s = StageBreakdown::from_cycle_breakdown(&pe);
        assert_eq!(s.as_array(), [5, 2, 3, 1]);
        assert_eq!(s.total(), pe.total());
    }

    #[test]
    fn breakdown_merges() {
        let mut a = StageBreakdown::default();
        a.charge(StageClass::Busy);
        let mut b = StageBreakdown::default();
        b.charge(StageClass::Idle);
        b.charge(StageClass::Idle);
        a.merge_from(&b);
        assert_eq!(a.total(), 3);
        assert_eq!(a.idle.get(), 2);
    }

    #[test]
    fn chrome_trace_serialises_deterministically() {
        let build = || {
            let mut t = ChromeTrace::new();
            t.name_process(1, "hbm");
            t.name_thread(1, 2, "ch\"0\"");
            t.counter("bw", 1, 2, 10, &[("read", 64), ("write", 32)]);
            t.complete_with_args("window", 1, 2, 0, 10, &[("cycles", 10)]);
            t.to_json()
        };
        let a = build();
        assert_eq!(a, build());
        assert!(a.starts_with("{\"displayTimeUnit\":\"ns\",\"traceEvents\":["));
        assert!(a.ends_with("]}"));
        assert!(a.contains("\"ph\":\"C\""));
        assert!(a.contains("\"ph\":\"X\""));
        assert!(a.contains("ch\\\"0\\\""));
        assert!(a.contains("\"args\":{\"read\":64,\"write\":32}"));
    }

    #[test]
    fn empty_trace_is_a_valid_object() {
        let t = ChromeTrace::new();
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
        assert_eq!(t.to_json(), "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[]}");
    }

    #[test]
    fn registry_orders_keys_and_fingerprints_stably() {
        let mut r = MetricsRegistry::new();
        r.set_counter("z.last", 3);
        r.add_counter("a.first", 1);
        r.add_counter("a.first", 1);
        r.record("wait", &[10, 100], 5);
        r.record("wait", &[99], 150); // bounds of later calls are ignored
        assert_eq!(r.counter("a.first"), Some(2));
        assert_eq!(r.len(), 3);
        let json = r.to_json();
        // "a.first" must precede "z.last" regardless of insertion order.
        assert!(json.find("a.first").unwrap() < json.find("z.last").unwrap());
        assert!(json.contains("\"wait\":{\"total\":2,\"max\":150"));
        let mut r2 = MetricsRegistry::new();
        r2.record("wait", &[10, 100], 5);
        r2.record("wait", &[10, 100], 150);
        r2.set_counter("a.first", 2);
        r2.set_counter("z.last", 3);
        assert_eq!(r.fingerprint(), r2.fingerprint());
    }

    #[test]
    fn empty_registry_renders_and_fingerprints() {
        let r = MetricsRegistry::new();
        assert!(r.is_empty());
        assert_eq!(r.to_json(), "{\"counters\":{},\"histograms\":{}}");
        assert_eq!(r.fingerprint(), fnv1a64(r.to_json().as_bytes()));
    }
}
