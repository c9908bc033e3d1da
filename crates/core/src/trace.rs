//! Run-level tracing: windowed HBM/channel timelines, per-lane stage
//! attribution timelines, and the Chrome-trace exporter.
//!
//! The primitives (bucket vocabulary, event buffer, metrics registry) live
//! in [`matraptor_sim::trace`]; this module owns the structures that know
//! about accelerator anatomy — channels, lanes, pipeline stages — and the
//! sampler the drive loop feeds while tracing is enabled.
//!
//! Determinism contract: tracing is strictly observational. The sampler is
//! threaded through the drive loop as an `Option` that every untraced
//! entry point passes as `None`, so the traced and untraced machines tick
//! identically; with tracing enabled, all recorded quantities are integer
//! deltas of deterministic counters, so two traced runs of the same inputs
//! are byte-identical (the trace-report CI gate pins this).

use matraptor_mem::ChannelStats;
use matraptor_sim::stats::Histogram;
use matraptor_sim::trace::{fnv1a64, ChromeTrace};

use crate::stats::LaneAttribution;

/// Configuration for a traced run.
#[derive(Debug, Clone)]
pub struct TraceConfig {
    /// Sampling window in accelerator cycles. Each window contributes one
    /// point to every channel and lane timeline. Clamped to ≥ 1.
    pub window: u64,
    /// Bucket boundaries for the per-channel queue-occupancy histograms
    /// (sampled every memory-clock tick).
    pub queue_depth_bounds: Vec<u64>,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig { window: 1024, queue_depth_bounds: vec![1, 2, 4, 8, 16, 32] }
    }
}

/// One sampling window of one HBM channel: byte and busy-cycle deltas.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChannelWindow {
    /// First accelerator cycle of the window.
    pub start: u64,
    /// Bytes read from the channel during the window (pin traffic).
    pub read_bytes: u64,
    /// Bytes written to the channel during the window (pin traffic).
    pub write_bytes: u64,
    /// Memory-clock cycles the channel's bus was busy during the window.
    pub busy_cycles: u64,
}

/// The full timeline of one HBM channel across a traced run.
#[derive(Debug, Clone)]
pub struct ChannelTimeline {
    /// Channel index.
    pub channel: usize,
    /// Per-window byte/busy deltas, in time order.
    pub windows: Vec<ChannelWindow>,
    /// Queue-depth distribution, sampled once per memory-clock tick.
    pub queue_depth: Histogram,
}

/// One sampling window of one lane: per-stage attribution deltas in
/// `[busy, mem_stall, queue_stall, idle]` order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaneWindow {
    /// First accelerator cycle of the window.
    pub start: u64,
    /// SpAL bucket deltas.
    pub spal: [u64; 4],
    /// SpBL bucket deltas.
    pub spbl: [u64; 4],
    /// PE bucket deltas.
    pub pe: [u64; 4],
    /// Writer bucket deltas.
    pub writer: [u64; 4],
}

/// The full per-stage timeline of one lane across a traced run.
#[derive(Debug, Clone)]
pub struct LaneTimeline {
    /// Lane index.
    pub lane: usize,
    /// Per-window attribution deltas, in time order.
    pub windows: Vec<LaneWindow>,
}

/// Everything a traced run recorded beyond its [`RunOutcome`] statistics.
///
/// [`RunOutcome`]: crate::RunOutcome
#[derive(Debug, Clone)]
pub struct RunTrace {
    /// The sampling window the timelines were recorded at, in accelerator
    /// cycles.
    pub window: u64,
    /// Total accelerator cycles of the run.
    pub total_cycles: u64,
    /// Accelerator cycles per memory-clock cycle.
    pub clock_ratio: u64,
    /// One timeline per HBM channel.
    pub channels: Vec<ChannelTimeline>,
    /// One timeline per lane.
    pub lanes: Vec<LaneTimeline>,
}

impl RunTrace {
    /// Exports the trace as `chrome://tracing` JSON events.
    ///
    /// Layout: process 1 is the HBM (one thread per channel, one counter
    /// sample per window carrying byte/busy deltas); processes 2+ are the
    /// lanes (one thread per pipeline stage, counter samples carrying the
    /// four attribution buckets); plus one whole-run complete span. All
    /// values are integers, so the bytes are replay-stable.
    pub fn to_chrome_trace(&self) -> ChromeTrace {
        let mut t = ChromeTrace::new();
        const HBM_PID: u64 = 1;
        const LANE_PID_BASE: u64 = 2;
        t.name_process(HBM_PID, "hbm");
        t.complete_with_args(
            "run",
            HBM_PID,
            0,
            0,
            self.total_cycles,
            &[("total_cycles", self.total_cycles), ("window", self.window)],
        );
        for ch in &self.channels {
            let tid = ch.channel as u64 + 1;
            t.name_thread(HBM_PID, tid, &format!("channel{}", ch.channel));
            for w in &ch.windows {
                t.counter(
                    &format!("ch{}.traffic", ch.channel),
                    HBM_PID,
                    tid,
                    w.start,
                    &[
                        ("read_bytes", w.read_bytes),
                        ("write_bytes", w.write_bytes),
                        ("busy_cycles", w.busy_cycles),
                    ],
                );
            }
        }
        for lane in &self.lanes {
            let pid = LANE_PID_BASE + lane.lane as u64;
            t.name_process(pid, &format!("lane{}", lane.lane));
            for (tid, stage) in ["spal", "spbl", "pe", "writer"].iter().enumerate() {
                t.name_thread(pid, tid as u64 + 1, stage);
            }
            for w in &lane.windows {
                for (tid, (stage, buckets)) in
                    [("spal", w.spal), ("spbl", w.spbl), ("pe", w.pe), ("writer", w.writer)]
                        .iter()
                        .enumerate()
                {
                    t.counter(
                        &format!("lane{}.{stage}", lane.lane),
                        pid,
                        tid as u64 + 1,
                        w.start,
                        &[
                            ("busy", buckets[0]),
                            ("mem_stall", buckets[1]),
                            ("queue_stall", buckets[2]),
                            ("idle", buckets[3]),
                        ],
                    );
                }
            }
        }
        t
    }

    /// FNV-1a fingerprint of the exported Chrome-trace bytes — the
    /// replay-gate identity of the trace.
    pub fn fingerprint(&self) -> u64 {
        fnv1a64(self.to_chrome_trace().to_json().as_bytes())
    }
}

/// The drive loop's tracing hook: accumulates windowed deltas of the
/// otherwise-cumulative channel and lane counters.
#[derive(Debug)]
pub(crate) struct TraceSampler {
    window: u64,
    /// Cumulative `[read_bytes, write_bytes, busy_cycles]` per channel at
    /// the last window boundary.
    prev_ch: Vec<[u64; 3]>,
    /// Cumulative per-stage buckets per lane at the last window boundary.
    prev_lane: Vec<[[u64; 4]; 4]>,
    /// First cycle of the currently open window.
    window_start: u64,
    channels: Vec<ChannelTimeline>,
    lanes: Vec<LaneTimeline>,
}

impl TraceSampler {
    pub(crate) fn new(cfg: &TraceConfig, num_channels: usize, num_lanes: usize) -> Self {
        TraceSampler {
            window: cfg.window.max(1),
            prev_ch: vec![[0; 3]; num_channels],
            prev_lane: vec![[[0; 4]; 4]; num_lanes],
            window_start: 0,
            channels: (0..num_channels)
                .map(|channel| ChannelTimeline {
                    channel,
                    windows: Vec::new(),
                    queue_depth: Histogram::new(cfg.queue_depth_bounds.clone()),
                })
                .collect(),
            lanes: (0..num_lanes).map(|lane| LaneTimeline { lane, windows: Vec::new() }).collect(),
        }
    }

    /// The configured (clamped) sampling window.
    pub(crate) fn window(&self) -> u64 {
        self.window
    }

    /// Records one memory-clock tick's queue depths.
    pub(crate) fn record_queue_depths(&mut self, depths: impl IntoIterator<Item = usize>) {
        for (ch, d) in self.channels.iter_mut().zip(depths) {
            ch.queue_depth.record(d as u64);
        }
    }

    /// Closes the window ending at `end` (exclusive): turns the cumulative
    /// channel stats and lane attributions into per-window deltas.
    pub(crate) fn close_window(
        &mut self,
        end: u64,
        ch_stats: &[ChannelStats],
        lane_attrs: &[LaneAttribution],
    ) {
        if end <= self.window_start {
            return; // empty window (e.g. run finished exactly on a boundary)
        }
        for (i, (ch, st)) in self.channels.iter_mut().zip(ch_stats).enumerate() {
            let now = [st.read_bytes.get(), st.write_bytes.get(), st.busy_cycles.get()];
            let prev = &mut self.prev_ch[i];
            ch.windows.push(ChannelWindow {
                start: self.window_start,
                read_bytes: now[0] - prev[0],
                write_bytes: now[1] - prev[1],
                busy_cycles: now[2] - prev[2],
            });
            *prev = now;
        }
        for (i, (lane, attr)) in self.lanes.iter_mut().zip(lane_attrs).enumerate() {
            let now = [
                attr.spal.as_array(),
                attr.spbl.as_array(),
                attr.pe.as_array(),
                attr.writer.as_array(),
            ];
            let prev = &mut self.prev_lane[i];
            let delta =
                |n: [u64; 4], p: [u64; 4]| [n[0] - p[0], n[1] - p[1], n[2] - p[2], n[3] - p[3]];
            lane.windows.push(LaneWindow {
                start: self.window_start,
                spal: delta(now[0], prev[0]),
                spbl: delta(now[1], prev[1]),
                pe: delta(now[2], prev[2]),
                writer: delta(now[3], prev[3]),
            });
            *prev = now;
        }
        self.window_start = end;
    }

    /// Flushes the final (possibly partial) window and assembles the
    /// [`RunTrace`].
    pub(crate) fn finish(
        mut self,
        total_cycles: u64,
        clock_ratio: u64,
        ch_stats: &[ChannelStats],
        lane_attrs: &[LaneAttribution],
    ) -> RunTrace {
        self.close_window(total_cycles, ch_stats, lane_attrs);
        RunTrace {
            window: self.window,
            total_cycles,
            clock_ratio,
            channels: self.channels,
            lanes: self.lanes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use matraptor_sim::trace::StageBreakdown;

    fn attrs(busy: u64) -> Vec<LaneAttribution> {
        let mut s = StageBreakdown::default();
        s.busy.add(busy);
        vec![LaneAttribution { spal: s, spbl: s, pe: s, writer: s }]
    }

    #[test]
    fn sampler_turns_cumulative_counters_into_window_deltas() {
        let cfg = TraceConfig { window: 10, queue_depth_bounds: vec![1, 4] };
        let mut sampler = TraceSampler::new(&cfg, 1, 1);
        sampler.record_queue_depths([0]);
        sampler.record_queue_depths([5]);

        let mut st = ChannelStats::default();
        st.read_bytes.add(100);
        st.busy_cycles.add(7);
        sampler.close_window(10, std::slice::from_ref(&st), &attrs(10));
        st.read_bytes.add(40);
        st.write_bytes.add(64);
        let trace = sampler.finish(15, 1, &[st], &attrs(15));

        assert_eq!(trace.total_cycles, 15);
        let ch = &trace.channels[0];
        assert_eq!(ch.windows.len(), 2);
        assert_eq!(ch.windows[0].read_bytes, 100);
        assert_eq!(ch.windows[0].busy_cycles, 7);
        assert_eq!(
            ch.windows[1],
            ChannelWindow { start: 10, read_bytes: 40, write_bytes: 64, busy_cycles: 0 }
        );
        assert_eq!(ch.queue_depth.total(), 2);
        assert_eq!(ch.queue_depth.max(), 5);
        let lane = &trace.lanes[0];
        assert_eq!(lane.windows[0].spal, [10, 0, 0, 0]);
        assert_eq!(lane.windows[1].spal, [5, 0, 0, 0]);
        // Window deltas reassemble to the cumulative totals.
        let sum: u64 = lane.windows.iter().map(|w| w.spal[0]).sum();
        assert_eq!(sum, 15);
    }

    #[test]
    fn boundary_aligned_finish_adds_no_empty_window() {
        let cfg = TraceConfig { window: 10, queue_depth_bounds: vec![1] };
        let mut sampler = TraceSampler::new(&cfg, 1, 1);
        let st = ChannelStats::default();
        sampler.close_window(10, std::slice::from_ref(&st), &attrs(10));
        let trace = sampler.finish(10, 1, &[st], &attrs(10));
        assert_eq!(trace.channels[0].windows.len(), 1);
        assert_eq!(trace.lanes[0].windows.len(), 1);
    }

    #[test]
    fn chrome_export_is_deterministic_and_structured() {
        let cfg = TraceConfig { window: 8, queue_depth_bounds: vec![1, 2] };
        let build = || {
            let mut sampler = TraceSampler::new(&cfg, 2, 1);
            let mut st = ChannelStats::default();
            st.read_bytes.add(64);
            sampler.record_queue_depths([1, 3]);
            sampler.finish(8, 2, &[st, ChannelStats::default()], &attrs(8))
        };
        let trace = build();
        let json = trace.to_chrome_trace().to_json();
        assert_eq!(trace.fingerprint(), build().fingerprint());
        assert!(json.contains("\"name\":\"ch0.traffic\""));
        assert!(json.contains("\"name\":\"lane0.spal\""));
        assert!(json.contains("\"name\":\"run\""));
        assert!(json.contains("\"read_bytes\":64"));
    }
}
