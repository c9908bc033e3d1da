//! CSR vs C²SR access-pattern drivers — the experiment behind Fig. 6.
//!
//! Section VI-A of the paper measures achieved bandwidth when 2, 4 or 8
//! PEs stream a sparse matrix out of memory:
//!
//! * **CSR**: the `(value, col id)` array is one flat, channel-interleaved
//!   allocation; each PE reads the rows assigned to it with narrow 8 B
//!   element requests (wider requests would split across channels and
//!   misalign). Multiple PEs collide on channels.
//! * **C²SR**: each PE owns a channel and issues 64 B streaming requests
//!   into its own contiguous per-channel segment — no conflicts, full
//!   bursts.

use matraptor_sim::Cycle;

use crate::{Hbm, HbmConfig, MemRequest};

/// Result of driving one access pattern to completion.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BandwidthReport {
    /// Useful bytes transferred.
    pub useful_bytes: u64,
    /// Memory-clock cycles from first issue to last response.
    pub elapsed_cycles: u64,
    /// Achieved bandwidth in GB/s.
    pub achieved_gbs: f64,
    /// Theoretical peak of the simulated configuration in GB/s.
    pub peak_gbs: f64,
}

/// One PE's request stream: `(addr, bytes)` issued in order.
pub type RequestStream = Vec<(u64, u32)>;

/// A bandwidth measurement failed to drain: some requests never
/// completed within the cycle budget. Reports where the work got stuck —
/// per-channel queue depths and the in-flight count — so a wedged model
/// (or an injected fault) is attributable instead of a bare panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DrainStall {
    /// Memory cycle at which the drain was abandoned.
    pub cycle: u64,
    /// Requests that did complete.
    pub completed: usize,
    /// Requests the streams wanted completed.
    pub total: usize,
    /// Requests submitted but unanswered.
    pub in_flight: usize,
    /// Queue depth of every channel at abandonment; the deepest non-empty
    /// entry is the stuck channel.
    pub channel_queue_depths: Vec<usize>,
}

impl DrainStall {
    /// The most-backed-up channel `(index, depth)`, if any queue is
    /// non-empty.
    pub fn stuck_channel(&self) -> Option<(usize, usize)> {
        self.channel_queue_depths
            .iter()
            .copied()
            .enumerate()
            .filter(|&(_, depth)| depth > 0)
            .max_by_key(|&(_, depth)| depth)
    }
}

impl std::fmt::Display for DrainStall {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "bandwidth drain stalled at cycle {}: {}/{} requests completed, {} in flight",
            self.cycle, self.completed, self.total, self.in_flight
        )?;
        if let Some((ch, depth)) = self.stuck_channel() {
            write!(f, "; stuck channel {ch} holds {depth} queued fragments")?;
        }
        Ok(())
    }
}

impl std::error::Error for DrainStall {}

/// Drives `streams` (one per PE) against a fresh [`Hbm`] until every
/// request has completed, with each PE keeping up to `max_outstanding`
/// requests in flight — the paper's "outstanding requests and responses
/// queues" (64 entries).
///
/// Returns the achieved-bandwidth report used by the Fig. 6 binary.
///
/// # Errors
///
/// [`DrainStall`] if the simulation fails to drain within a generous
/// cycle budget — a deadlock in the model or the request streams. The
/// error names the stuck channel and its queue depth.
pub fn measure_bandwidth(
    cfg: &HbmConfig,
    streams: &[RequestStream],
    max_outstanding: usize,
) -> Result<BandwidthReport, DrainStall> {
    let mut hbm = Hbm::new(cfg.clone());
    let total_requests: usize = streams.iter().map(Vec::len).sum();
    let total_bytes: u64 = streams.iter().flatten().map(|&(_, b)| b as u64).sum();

    // Per-PE issue state.
    let mut next_idx = vec![0usize; streams.len()];
    let mut outstanding = vec![0usize; streams.len()];
    let mut completed = 0usize;
    // Request ids encode (pe, sequence) so responses decrement the right
    // PE's outstanding count.
    let pe_of_id = |id: u64| (id % streams.len().max(1) as u64) as usize;

    let budget = (total_bytes * 64).max(100_000);
    let mut t = 0u64;
    while completed < total_requests {
        if t >= budget {
            return Err(DrainStall {
                cycle: t,
                completed,
                total: total_requests,
                in_flight: hbm.in_flight(),
                channel_queue_depths: hbm.queue_depths().collect(),
            });
        }
        let now = Cycle(t);
        for (pe, stream) in streams.iter().enumerate() {
            while next_idx[pe] < stream.len() && outstanding[pe] < max_outstanding {
                let (addr, bytes) = stream[next_idx[pe]];
                let id = (next_idx[pe] * streams.len() + pe) as u64;
                if hbm.submit(now, MemRequest::read(id, addr, bytes)) {
                    next_idx[pe] += 1;
                    outstanding[pe] += 1;
                } else {
                    break;
                }
            }
        }
        hbm.tick(now);
        while let Some(resp) = hbm.pop_response(now) {
            outstanding[pe_of_id(resp.id.0)] -= 1;
            completed += 1;
        }
        t += 1;
    }

    let stats = hbm.stats();
    Ok(BandwidthReport {
        useful_bytes: stats.bytes_read.saturating_add(stats.bytes_written),
        elapsed_cycles: t,
        achieved_gbs: stats.achieved_bandwidth_gbs(t, cfg.clock_ghz),
        peak_gbs: cfg.peak_bandwidth_gbs(),
    })
}

/// Builds the per-PE request streams for the **CSR** layout: row lengths
/// `row_bytes[i]` are laid out back-to-back in one flat allocation, rows
/// are assigned to PEs round-robin, and each PE reads its rows in
/// `element_bytes` chunks.
pub fn csr_streams(row_bytes: &[u64], num_pes: usize, element_bytes: u32) -> Vec<RequestStream> {
    assert!(num_pes > 0 && element_bytes > 0);
    // Prefix offsets of each row in the flat allocation.
    let mut offsets = Vec::with_capacity(row_bytes.len());
    let mut cursor = 0u64;
    for &len in row_bytes {
        offsets.push(cursor);
        cursor += len;
    }
    let mut streams = vec![Vec::new(); num_pes];
    for (i, (&off, &len)) in offsets.iter().zip(row_bytes).enumerate() {
        let pe = i % num_pes;
        let mut pos = 0u64;
        while pos < len {
            let chunk = (element_bytes as u64).min(len.saturating_sub(pos)) as u32;
            streams[pe].push((off + pos, chunk));
            pos += chunk as u64;
        }
    }
    streams
}

/// Builds the per-PE request streams for the **C²SR** layout: row `i`
/// lives on channel `i % num_pes`, each channel's rows are contiguous in
/// channel-local space, and each PE issues `request_bytes`-wide streaming
/// reads against its own channel.
pub fn c2sr_streams(
    cfg: &HbmConfig,
    row_bytes: &[u64],
    num_pes: usize,
    request_bytes: u32,
) -> Vec<RequestStream> {
    assert!(num_pes > 0 && request_bytes > 0);
    assert_eq!(num_pes, cfg.num_channels, "Fig. 6 keeps PE count equal to channel count");
    // Channel-local extent per PE.
    let mut local_len = vec![0u64; num_pes];
    for (i, &len) in row_bytes.iter().enumerate() {
        local_len[i % num_pes] = local_len[i % num_pes].saturating_add(len);
    }
    let mut streams = vec![Vec::new(); num_pes];
    for pe in 0..num_pes {
        let mut pos = 0u64;
        while pos < local_len[pe] {
            let chunk = (request_bytes as u64).min(local_len[pe] - pos) as u32;
            streams[pe].push((cfg.channel_local_to_flat(pe, pos), chunk));
            pos += chunk as u64;
        }
    }
    streams
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Uniform 200-byte rows, enough rows to amortise startup.
    fn row_lengths(n: usize) -> Vec<u64> {
        vec![200; n]
    }

    #[test]
    fn c2sr_beats_csr_substantially() {
        // The headline of Fig. 6.
        let cfg = HbmConfig::with_channels(8);
        let rows = row_lengths(2000);
        let csr = measure_bandwidth(&cfg, &csr_streams(&rows, 8, 8), 64).expect("drains");
        let c2sr = measure_bandwidth(&cfg, &c2sr_streams(&cfg, &rows, 8, 64), 64).expect("drains");
        assert!(
            c2sr.achieved_gbs > 3.0 * csr.achieved_gbs,
            "C2SR {:.1} GB/s should dwarf CSR {:.1} GB/s",
            c2sr.achieved_gbs,
            csr.achieved_gbs
        );
        assert!(c2sr.achieved_gbs > 0.55 * c2sr.peak_gbs, "C2SR should approach peak");
        assert!(csr.achieved_gbs < 0.25 * csr.peak_gbs, "CSR should be far from peak");
    }

    #[test]
    fn bandwidth_scales_with_channels() {
        // 2 → 4 → 8 channels roughly doubles achieved bandwidth (Fig. 6's
        // x-axis).
        let rows = row_lengths(800);
        let mut last = 0.0;
        for n in [2usize, 4, 8] {
            let cfg = HbmConfig::with_channels(n);
            let rep =
                measure_bandwidth(&cfg, &c2sr_streams(&cfg, &rows, n, 64), 64).expect("drains");
            assert!(
                rep.achieved_gbs > 1.6 * last,
                "{n} channels: {:.1} GB/s did not scale from {last:.1}",
                rep.achieved_gbs
            );
            last = rep.achieved_gbs;
        }
    }

    #[test]
    fn csr_streams_chunk_rows() {
        let streams = csr_streams(&[20, 8], 2, 8);
        // Row 0 (PE 0): chunks 8+8+4 at offsets 0,8,16.
        assert_eq!(streams[0], vec![(0, 8), (8, 8), (16, 4)]);
        // Row 1 (PE 1): one 8-byte chunk at offset 20.
        assert_eq!(streams[1], vec![(20, 8)]);
    }

    #[test]
    fn c2sr_streams_stay_on_their_channel() {
        let cfg = HbmConfig::with_channels(4);
        let streams = c2sr_streams(&cfg, &row_lengths(64), 4, 64);
        for (pe, stream) in streams.iter().enumerate() {
            for &(addr, _) in stream {
                assert_eq!(cfg.channel_of_addr(addr), pe, "PE {pe} crossed channels");
            }
        }
    }

    #[test]
    fn report_is_internally_consistent() {
        let cfg = HbmConfig::with_channels(2);
        let rows = row_lengths(100);
        let rep = measure_bandwidth(&cfg, &c2sr_streams(&cfg, &rows, 2, 64), 16).expect("drains");
        assert_eq!(rep.useful_bytes, 100 * 200);
        assert!(rep.achieved_gbs <= rep.peak_gbs);
        assert!(rep.elapsed_cycles > 0);
    }

    #[test]
    fn stalled_channel_reports_drain_stall_instead_of_panicking() {
        use crate::fault::{FaultWindow, MemFaults};
        use crate::MemRequest;

        // Drive a permanently stalled single-channel device by hand: the
        // request never completes and the drain must surface the stuck
        // channel and its queue depth.
        let cfg = HbmConfig::with_channels(1);
        let mut hbm = Hbm::new(cfg);
        hbm.set_faults(MemFaults {
            stalls: vec![FaultWindow::forever(0, 0)],
            refusals: Vec::new(),
        });
        assert!(hbm.submit(Cycle(0), MemRequest::read(1, 0, 64)));
        for t in 0..200 {
            hbm.tick(Cycle(t));
            assert!(hbm.pop_response(Cycle(t)).is_none());
        }
        assert!(!hbm.is_idle(), "stalled channel must not drain");
        assert_eq!(hbm.in_flight(), 1);
        assert_eq!(hbm.queue_depths().collect::<Vec<_>>(), vec![1]);
        assert_eq!(hbm.fault_counters().stalled_cycles, 200);

        // And through the drain API: a stream that can never complete
        // (zero outstanding-request budget, so nothing is ever submitted)
        // must return the structured error rather than hanging.
        let cfg = HbmConfig::with_channels(1);
        let streams = vec![vec![(0u64, 64u32)]];
        let stall = measure_bandwidth(&cfg, &streams, 0).expect_err("cannot drain");
        assert_eq!(stall.completed, 0);
        assert_eq!(stall.total, 1);
        assert!(stall.to_string().contains("stalled"));
    }

    #[test]
    fn refusal_window_bounces_submits_until_it_lifts() {
        use crate::fault::{FaultWindow, MemFaults};
        use crate::MemRequest;

        let cfg = HbmConfig::with_channels(1);
        let mut hbm = Hbm::new(cfg);
        hbm.set_faults(MemFaults {
            stalls: Vec::new(),
            refusals: vec![FaultWindow { channel: 0, start: 0, end: 10 }],
        });
        assert!(!hbm.submit(Cycle(0), MemRequest::read(1, 0, 64)));
        assert!(!hbm.submit(Cycle(9), MemRequest::read(1, 0, 64)));
        assert!(hbm.submit(Cycle(10), MemRequest::read(1, 0, 64)));
        assert_eq!(hbm.fault_counters().refused_submits, 2);
    }
}
