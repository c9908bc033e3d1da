//! The multi-channel HBM device.

use matraptor_sim::codec::{Dec, Enc, Mismatch, Reader};
use matraptor_sim::watchdog::mix_signature;
use matraptor_sim::{plain_struct, Cycle, IdTable, LatencyPipe};

use crate::channel::{Channel, Fragment};
use crate::fault::{FaultCounters, MemFaults};
use crate::{AddressMap, ChannelStats, HbmConfig, MemKind, MemRequest, MemResponse};

/// Aggregate statistics across all channels.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct HbmStats {
    /// Useful (requested) bytes read.
    pub bytes_read: u64,
    /// Useful (requested) bytes written.
    pub bytes_written: u64,
    /// DRAM read traffic in burst-quantized bytes (what the pins moved —
    /// an 8 B read still transfers a whole burst). This is what gem5-style
    /// traffic counters report and what rooflines are drawn against.
    pub traffic_read: u64,
    /// DRAM write traffic in burst-quantized bytes.
    pub traffic_written: u64,
    /// Total bursts serviced.
    pub bursts: u64,
    /// Bursts that re-activated a DRAM row.
    pub row_misses: u64,
    /// Total channel-busy cycles (summed over channels).
    pub busy_cycles: u64,
    /// Completed requests.
    pub requests_completed: u64,
    /// Sum of request latencies (submit → response ready), memory cycles.
    pub total_latency: u64,
}

impl HbmStats {
    /// Achieved bandwidth in GB/s over an elapsed window of memory-clock
    /// cycles.
    pub fn achieved_bandwidth_gbs(&self, elapsed_cycles: u64, clock_ghz: f64) -> f64 {
        if elapsed_cycles == 0 {
            return 0.0;
        }
        self.bytes_read.saturating_add(self.bytes_written) as f64 / elapsed_cycles as f64
            * clock_ghz
    }
}

/// The HBM device: per-channel queues and service pipelines plus a shared
/// response-latency pipe.
///
/// Interaction protocol (all methods take the current [`Cycle`]):
///
/// 1. [`Hbm::submit`] — admission is atomic per request: either every
///    burst-fragment fits in its channel queue, or the request is refused
///    and the requester stalls (this is where CSR's channel conflicts turn
///    into lost cycles). A refusal returns the channels the request waits
///    on, its [`Hbm::channel_mask`];
/// 2. [`Hbm::tick`] — advance every channel one cycle. Only a tick frees
///    queue slots, and [`Hbm::freed_channels`] names the channels it freed
///    one on, so without a fault schedule a refused request stays refused
///    until a tick frees a slot on one of its channels. For the same
///    reason a channel in [`Hbm::full_channels`] refuses every request
///    with a fragment on it until a tick frees it;
/// 3. [`Hbm::pop_response`] — collect completions, `access_latency` cycles
///    after a request's last fragment left its channel.
///
/// # Example
///
/// ```rust
/// use matraptor_mem::{Hbm, HbmConfig, MemRequest};
/// use matraptor_sim::Cycle;
///
/// let mut hbm = Hbm::new(HbmConfig::default());
/// let mut now = Cycle(0);
/// assert!(hbm.submit(now, MemRequest::read(1, 0, 64)).is_ok());
/// let resp = loop {
///     hbm.tick(now);
///     if let Some(r) = hbm.pop_response(now) {
///         break r;
///     }
///     now = now.next();
/// };
/// assert_eq!(resp.id.0, 1);
/// ```
#[derive(Debug)]
pub struct Hbm {
    // conformance:allow(checkpoint-coverage): configuration is fingerprint-checked separately; restore takes it as a constructor argument
    cfg: HbmConfig,
    /// `cfg`'s address arithmetic, precomputed.
    // conformance:allow(checkpoint-coverage): derived from the configuration; restore decodes fragments through it
    map: AddressMap,
    channels: Vec<Channel>,
    /// In-flight request bookkeeping, keyed by request id: fragments
    /// remaining + original size.
    pending: IdTable<PendingRequest>,
    /// Completed requests waiting out the access latency.
    response_pipe: LatencyPipe<MemResponse>,
    completed_requests: u64,
    latency_sum: u64,
    /// Installed fault schedule (empty by default; see [`MemFaults`]).
    faults: MemFaults,
    fault_counters: FaultCounters,
    /// Per-channel fragment counts of the request being admitted; all zero
    /// between calls, so admission never allocates.
    // conformance:allow(checkpoint-coverage): scratch space, all zero between calls
    need: Vec<u32>,
    /// Channels whose queue gained a free slot in the last tick, as a
    /// [`channel_bit`] set.
    // conformance:allow(checkpoint-coverage): rewritten by every tick; a restored device's requesters resume by submitting, not by waiting on it
    freed: u64,
    /// Channels whose request queue has no free slot, as a [`channel_bit`]
    /// set. Exact only with at most 64 channels; [`Hbm::full_channels`]
    /// hides it otherwise.
    // conformance:allow(checkpoint-coverage): derived from the queue depths; restore recomputes it
    full: u64,
}

/// `channel`'s bit in a channel set (bit `channel % 64`). Channels past 64
/// share bits, so a set can name a channel that did not change, never miss
/// one that did.
#[inline]
pub fn channel_bit(channel: usize) -> u64 {
    1 << (channel % 64)
}

#[derive(Debug, Clone, Copy)]
struct PendingRequest {
    kind: MemKind,
    bytes: u32,
    fragments_left: u32,
    submitted: Cycle,
}

plain_struct!(PendingRequest { kind, bytes, fragments_left, submitted });

impl Hbm {
    /// Creates the device.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent (see
    /// [`HbmConfig::validate`]).
    pub fn new(cfg: HbmConfig) -> Self {
        cfg.validate();
        let channels = (0..cfg.num_channels).map(|_| Channel::new(&cfg)).collect();
        let response_pipe = LatencyPipe::new(cfg.access_latency);
        Hbm {
            map: AddressMap::new(&cfg),
            need: vec![0; cfg.num_channels],
            cfg,
            channels,
            pending: IdTable::new(),
            response_pipe,
            completed_requests: 0,
            latency_sum: 0,
            faults: MemFaults::none(),
            fault_counters: FaultCounters::default(),
            freed: 0,
            full: 0,
        }
    }

    /// The configuration this device was built with.
    pub fn config(&self) -> &HbmConfig {
        &self.cfg
    }

    /// Installs a deterministic fault schedule. An empty schedule (the
    /// default) leaves behaviour bit-identical to a fault-free device.
    pub fn set_faults(&mut self, faults: MemFaults) {
        self.faults = faults;
    }

    /// Whether a fault schedule is installed. Under one, admission and
    /// service depend on the cycle, not only on queue state.
    pub fn has_faults(&self) -> bool {
        !self.faults.is_empty()
    }

    /// How often the installed fault schedule actually bit.
    pub fn fault_counters(&self) -> FaultCounters {
        self.fault_counters
    }

    /// Current depth of each channel's request queue (occupancy only; an
    /// in-service burst is not counted), in channel order. Used by
    /// deadlock diagnostics and the trace sampler.
    pub fn queue_depths(&self) -> impl Iterator<Item = usize> + '_ {
        self.channels.iter().map(Channel::queue_len)
    }

    /// Splits a request at burst boundaries into `(channel, addr, bytes)`
    /// pieces — lazily, so admission allocates nothing.
    #[inline]
    fn pieces(&self, req: &MemRequest) -> impl Iterator<Item = (usize, u64, u32)> + Clone {
        let map = self.map;
        let mut at = req.addr;
        let end = at + req.bytes as u64;
        std::iter::from_fn(move || {
            (at < end).then(|| {
                let piece_end = map.burst_end(at).min(end);
                // At most one burst, which is a u32.
                let piece = (map.channel_of(at), at, (piece_end - at) as u32);
                at = piece_end;
                piece
            })
        })
    }

    /// Splits a request into its burst fragments, each with its channel.
    #[inline]
    fn fragments(&self, req: &MemRequest) -> impl Iterator<Item = (usize, Fragment)> {
        let (map, id, kind) = (self.map, req.id, req.kind);
        self.pieces(req)
            .map(move |(ch, addr, bytes)| (ch, Fragment::new(&map, id, kind, addr, bytes)))
    }

    /// Whether every fragment of `req` finds a slot in its channel queue,
    /// and the channels it has fragments on (its [`Hbm::channel_mask`]).
    /// `need` holds per-channel counts; it is all zero on entry and exit.
    #[inline]
    fn fits(&self, req: &MemRequest, need: &mut [u32]) -> (bool, u64) {
        let pieces = self.pieces(req);
        let (mut fits, mut mask) = (true, 0);
        for (ch, ..) in pieces.clone() {
            need[ch] += 1;
            fits &= self.channels[ch].free_slots() >= need[ch] as usize;
            mask |= channel_bit(ch);
        }
        for (ch, ..) in pieces {
            need[ch] = 0;
        }
        (fits, mask)
    }

    /// The channels `req` has fragments on, as a set of channel bits (bit
    /// `channel % 64`). Without a fault schedule a refused `req` stays
    /// refused until [`Hbm::freed_channels`] meets this set.
    #[inline]
    pub fn channel_mask(&self, req: &MemRequest) -> u64 {
        self.pieces(req).fold(0, |mask, (ch, ..)| mask | channel_bit(ch))
    }

    /// The channels whose request queue gained a free slot in the last
    /// [`Hbm::tick`], as a set of channel bits (bit `channel % 64`).
    #[inline]
    pub fn freed_channels(&self) -> u64 {
        self.freed
    }

    /// The channels whose request queue is full, as a set of channel bits:
    /// a request with a fragment on one of them would be refused. Only
    /// submits fill a queue and only ticks free one, so a channel stays in
    /// the set until [`Hbm::freed_channels`] names it. The set is empty
    /// under a fault schedule, whose refusal windows count every attempted
    /// submit, and with more than 64 channels, where bits are shared.
    #[inline]
    pub fn full_channels(&self) -> u64 {
        if self.faults.is_empty() && self.channels.len() <= 64 {
            self.full
        } else {
            0
        }
    }

    /// Submits a request. A refusal changes nothing and returns the
    /// request's [`Hbm::channel_mask`]: the channels it waits on. A request
    /// is refused if any target channel queue lacks space, the id is
    /// already in flight, it is empty, or an installed refusal fault covers
    /// a target channel this cycle.
    ///
    /// # Errors
    ///
    /// The refused request's channel mask.
    #[inline]
    pub fn submit(&mut self, now: Cycle, req: MemRequest) -> Result<(), u64> {
        if !self.faults.is_empty() {
            let (refusing, mask) =
                self.pieces(&req).fold((false, 0), |(refusing, mask), (ch, ..)| {
                    (refusing || self.faults.refusing(ch, now.as_u64()), mask | channel_bit(ch))
                });
            if refusing {
                self.fault_counters.refused_submits += 1;
                return Err(mask);
            }
        }
        // Fast refusal: the first fragment's queue is full. Requesters
        // retry refused reads every cycle, so this is the common case
        // under memory pressure, and most requests fit in one burst, whose
        // mask is the first channel's bit.
        let first = self.map.channel_of(req.addr);
        if req.bytes != 0 && self.channels[first].free_slots() == 0 {
            let end = req.addr + req.bytes as u64;
            return Err(if end <= self.map.burst_end(req.addr) {
                channel_bit(first)
            } else {
                self.channel_mask(&req)
            });
        }
        let mut need = std::mem::take(&mut self.need);
        let (fits, mask) = self.fits(&req, &mut need);
        self.need = need;
        if !fits || req.bytes == 0 || self.pending.contains_key(req.id.0) {
            return Err(mask);
        }
        let mut fragments_left = 0;
        for (ch, frag) in self.fragments(&req) {
            let channel = &mut self.channels[ch];
            channel.enqueue(frag);
            if channel.free_slots() == 0 {
                self.full |= channel_bit(ch);
            }
            fragments_left += 1;
        }
        self.pending.insert(
            req.id.0,
            PendingRequest { kind: req.kind, bytes: req.bytes, fragments_left, submitted: now },
        );
        Ok(())
    }

    /// Advances all channels one cycle and matures completed requests into
    /// the response pipe. A channel whose tick could change nothing this
    /// cycle is skipped; a stalled channel still counts its stalled cycle.
    #[inline]
    pub fn tick(&mut self, now: Cycle) {
        self.freed = 0;
        for (ch_idx, ch) in self.channels.iter_mut().enumerate() {
            if !self.faults.is_empty() && self.faults.stalled(ch_idx, now.as_u64()) {
                self.fault_counters.stalled_cycles =
                    self.fault_counters.stalled_cycles.saturating_add(1);
                continue;
            }
            if !ch.due(now) {
                continue;
            }
            let queued = ch.queue_len();
            let completed = ch.tick(now);
            if ch.queue_len() < queued {
                self.freed |= channel_bit(ch_idx);
            }
            if let Some(frag) = completed {
                let done = {
                    let p = self
                        .pending
                        .get_mut(frag.req_id.0)
                        // conformance:allow(panic-safety): invariant: fragments complete only for requests still pending
                        .expect("fragment completed for unknown request");
                    p.fragments_left -= 1;
                    p.fragments_left == 0
                };
                if done {
                    // conformance:allow(panic-safety): invariant: presence checked two lines above
                    let p = self.pending.remove(frag.req_id.0).expect("just seen");
                    self.completed_requests += 1;
                    self.latency_sum = self
                        .latency_sum
                        .saturating_add((now - p.submitted) + self.cfg.access_latency);
                    self.response_pipe
                        .push(now, MemResponse { id: frag.req_id, kind: p.kind, bytes: p.bytes });
                }
            }
        }
        self.full &= !self.freed;
    }

    /// Pops one matured response, if any.
    #[inline]
    pub fn pop_response(&mut self, now: Cycle) -> Option<MemResponse> {
        self.response_pipe.pop_ready(now)
    }

    /// The earliest memory cycle at which [`Hbm::tick`] or
    /// [`Hbm::pop_response`] can change anything: the soonest channel wake
    /// time, or the maturity of the oldest response. Without a fault
    /// schedule, every tick before it changes nothing (it frees no
    /// channel) and every pop before it returns nothing, so a requester
    /// with nothing else to do may skip to it. (Under a schedule, a stalled
    /// channel counts each stalled tick.) `Cycle(u64::MAX)` when no
    /// channel will wake and no response is in flight.
    #[inline]
    pub fn next_event(&self) -> Cycle {
        let head = self.response_pipe.next_ready().unwrap_or(Cycle(u64::MAX));
        self.channels.iter().map(Channel::wake).fold(head, Cycle::min)
    }

    /// Whether all queues, channels, and pipes are drained.
    #[inline]
    pub fn is_idle(&self) -> bool {
        self.pending.is_empty()
            && self.response_pipe.is_empty()
            && self.channels.iter().all(Channel::is_idle)
    }

    /// Number of requests currently in flight.
    pub fn in_flight(&self) -> usize {
        self.pending.len()
    }

    /// Per-channel statistics.
    pub fn channel_stats(&self) -> Vec<ChannelStats> {
        self.channels.iter().map(Channel::stats).collect()
    }

    /// Forward-progress signature for a watchdog. It moves only when the
    /// device services something: the in-flight count, queue depths and
    /// per-channel busy cycles. Fault counters are left out — a stalled
    /// channel accumulating stall ticks is not progress. Allocation-free,
    /// unlike [`Hbm::channel_stats`].
    pub fn progress_signature(&self) -> u64 {
        let mut sig = mix_signature(0, self.in_flight() as u64);
        for depth in self.queue_depths() {
            sig = mix_signature(sig, depth as u64);
        }
        for ch in &self.channels {
            sig = mix_signature(sig, ch.stats().busy_cycles.get());
        }
        sig
    }

    /// Writes the full mutable device state into a checkpoint: every
    /// channel, the in-flight requests in id order, the response pipe, the
    /// counters and the fault schedule. The configuration is *not* written
    /// — read it back with [`Hbm::restore`] into a device of the same
    /// [`HbmConfig`].
    pub fn snapshot(&self, out: &mut Vec<u8>) {
        self.channels.len().enc(out);
        self.channels.iter().for_each(|ch| ch.snapshot(out));
        self.pending.len().enc(out);
        for (id, p) in self.pending.iter() {
            id.enc(out);
            p.enc(out);
        }
        self.response_pipe.snapshot(out);
        (self.completed_requests, self.latency_sum).enc(out);
        self.faults.enc(out);
        self.fault_counters.enc(out);
    }

    /// Returns the device to its power-on state, keeping its storage:
    /// every queue, bank, pipe and counter empty, nothing in flight, and
    /// no fault schedule. A device that ran a job is then the device
    /// [`Hbm::new`] builds.
    pub fn reset(&mut self) {
        self.channels.iter_mut().for_each(Channel::reset);
        self.pending.clear();
        self.response_pipe.clear();
        self.completed_requests = 0;
        self.latency_sum = 0;
        self.faults = MemFaults::none();
        self.fault_counters = FaultCounters::default();
        self.freed = 0;
        self.full = 0;
    }

    /// Reads a [`Hbm::snapshot`] back into this device, keeping its
    /// storage.
    ///
    /// # Errors
    ///
    /// [`Mismatch`] if the checkpoint disagrees with the device's
    /// configuration (channel or bank count, a queue deeper than
    /// configured), lists a request twice, or its bytes are malformed.
    pub fn restore(&mut self, r: &mut Reader<'_>) -> Result<(), Mismatch> {
        self.reset();
        r.count_of(self.channels.len(), "the HBM channel count differs")?;
        for ch in &mut self.channels {
            ch.restore(&self.map, r)?;
        }
        for _ in 0..r.count()? {
            let (id, request) = Dec::dec(r)?;
            if self.pending.insert(id, request).is_some() {
                return Err(Mismatch("the HBM lists a request twice"));
            }
        }
        self.response_pipe.restore(r)?;
        (self.completed_requests, self.latency_sum) = Dec::dec(r)?;
        self.faults = MemFaults::dec(r)?;
        self.fault_counters = FaultCounters::dec(r)?;
        self.full = self
            .channels
            .iter()
            .enumerate()
            .filter(|(_, ch)| ch.free_slots() == 0)
            .fold(0, |full, (ch, _)| full | channel_bit(ch));
        Ok(())
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> HbmStats {
        let mut s = HbmStats::default();
        for ch in &self.channels {
            let c = ch.stats();
            s.bursts += c.bursts.get();
            s.row_misses += c.row_misses.get();
            s.busy_cycles = s.busy_cycles.saturating_add(c.busy_cycles.get());
        }
        s.bytes_read = self.channels.iter().map(|c| c.stats().read_bytes.get()).sum();
        s.bytes_written = self.channels.iter().map(|c| c.stats().write_bytes.get()).sum();
        let burst = self.cfg.burst_bytes as u64;
        s.traffic_read =
            self.channels.iter().map(|c| c.stats().read_bursts.get()).sum::<u64>() * burst;
        s.traffic_written =
            self.channels.iter().map(|c| c.stats().write_bursts.get()).sum::<u64>() * burst;
        s.requests_completed = self.completed_requests;
        s.total_latency = self.latency_sum;
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FaultWindow;
    use matraptor_sparse::rng::ChaCha8Rng;

    /// The device's checkpoint bytes.
    fn bytes(hbm: &Hbm) -> Vec<u8> {
        let mut out = Vec::new();
        hbm.snapshot(&mut out);
        out
    }

    /// A device of `cfg` with checkpoint `bytes` read back into it.
    fn restored(cfg: HbmConfig, bytes: &[u8]) -> Hbm {
        let mut hbm = Hbm::new(cfg);
        let mut r = Reader::new(bytes);
        hbm.restore(&mut r).expect("a device's own checkpoint restores");
        r.finish().expect("the device reads its whole checkpoint");
        hbm
    }

    fn run_until_idle(hbm: &mut Hbm, limit: u64) -> (Vec<(u64, MemResponse)>, u64) {
        let mut responses = Vec::new();
        let mut t = 0;
        while t < limit {
            let now = Cycle(t);
            hbm.tick(now);
            while let Some(r) = hbm.pop_response(now) {
                responses.push((t, r));
            }
            if hbm.is_idle() {
                break;
            }
            t += 1;
        }
        (responses, t)
    }

    #[test]
    fn single_read_latency() {
        let cfg = HbmConfig::default();
        let mut hbm = Hbm::new(cfg);
        assert!(hbm.submit(Cycle(0), MemRequest::read(1, 0, 64)).is_ok());
        let (resp, _) = run_until_idle(&mut hbm, 1000);
        assert_eq!(resp.len(), 1);
        // burst(4) + cold row miss(22) + access latency(20) = 46.
        assert_eq!(resp[0].0, 46);
        assert_eq!(resp[0].1.bytes, 64);
    }

    #[test]
    fn requests_to_distinct_channels_overlap() {
        let cfg = HbmConfig::default();
        let mut hbm = Hbm::new(cfg.clone());
        // Channel 0 and channel 1 (addresses one interleave block apart).
        assert!(hbm.submit(Cycle(0), MemRequest::read(1, 0, 64)).is_ok());
        assert!(hbm.submit(Cycle(0), MemRequest::read(2, 64, 64)).is_ok());
        let (resp, _) = run_until_idle(&mut hbm, 1000);
        assert_eq!(resp.len(), 2);
        // Both complete at the same cycle — full channel parallelism.
        assert_eq!(resp[0].0, resp[1].0);
    }

    #[test]
    fn requests_to_same_channel_serialise() {
        let cfg = HbmConfig::default();
        let mut hbm = Hbm::new(cfg.clone());
        let stride = cfg.interleave_bytes as u64 * cfg.num_channels as u64;
        assert!(hbm.submit(Cycle(0), MemRequest::read(1, 0, 64)).is_ok());
        assert!(hbm.submit(Cycle(0), MemRequest::read(2, stride, 64)).is_ok());
        let (resp, _) = run_until_idle(&mut hbm, 1000);
        assert_eq!(resp.len(), 2);
        assert!(resp[1].0 > resp[0].0, "same-channel requests must serialise");
    }

    #[test]
    fn split_request_completes_once() {
        let cfg = HbmConfig::default();
        let mut hbm = Hbm::new(cfg);
        // 128 B spanning two interleave blocks ⇒ two channels, one response.
        assert!(hbm.submit(Cycle(0), MemRequest::read(1, 0, 128)).is_ok());
        let (resp, _) = run_until_idle(&mut hbm, 1000);
        assert_eq!(resp.len(), 1);
        assert_eq!(resp[0].1.bytes, 128);
    }

    #[test]
    fn misaligned_request_splits_at_burst_boundary() {
        let cfg = HbmConfig::default();
        let hbm = Hbm::new(cfg);
        // 64 B starting at offset 32: fragments [32..64) and [64..96).
        let frags: Vec<_> = hbm.fragments(&MemRequest::read(1, 32, 64)).collect();
        assert_eq!(frags.len(), 2);
        assert_eq!(frags[0].1.bytes, 32);
        assert_eq!(frags[1].1.bytes, 32);
        // And they land on different channels (the CSR problem).
        assert_ne!(frags[0].0, frags[1].0);
    }

    #[test]
    fn every_fragment_of_a_valid_config_stays_on_its_channel() {
        for (interleave_bytes, burst_bytes) in [(64, 64), (128, 64), (96, 32), (192, 64)] {
            let cfg = HbmConfig { interleave_bytes, burst_bytes, ..HbmConfig::with_channels(3) };
            let hbm = Hbm::new(cfg.clone());
            for addr in (0..1_000).step_by(7) {
                for bytes in [1, 8, 63, 64, 100, 300] {
                    for (ch, f) in hbm.fragments(&MemRequest::read(0, addr, bytes)) {
                        let last = f.addr + f.bytes as u64 - 1;
                        assert_eq!(cfg.channel_of_addr(last), ch, "{cfg:?} {addr} {bytes}");
                    }
                }
            }
        }
    }

    #[test]
    fn duplicate_id_rejected_while_in_flight() {
        let mut hbm = Hbm::new(HbmConfig::default());
        assert!(hbm.submit(Cycle(0), MemRequest::read(1, 0, 64)).is_ok());
        assert!(hbm.submit(Cycle(0), MemRequest::read(1, 128, 64)).is_err());
    }

    #[test]
    fn zero_byte_request_rejected() {
        let mut hbm = Hbm::new(HbmConfig::default());
        assert!(hbm.submit(Cycle(0), MemRequest::read(1, 0, 0)).is_err());
    }

    #[test]
    fn backpressure_when_queue_full() {
        let cfg = HbmConfig { queue_depth: 1, ..HbmConfig::default() };
        let mut hbm = Hbm::new(cfg);
        assert!(hbm.submit(Cycle(0), MemRequest::read(1, 0, 64)).is_ok());
        // Same channel, queue full (depth 1, first not yet serviced).
        assert!(hbm.submit(Cycle(0), MemRequest::read(2, 512, 64)).is_err());
    }

    #[test]
    fn a_refused_request_is_admitted_after_the_tick_that_frees_its_channel() {
        let cfg = HbmConfig { queue_depth: 1, ..HbmConfig::default() };
        let stride = cfg.interleave_bytes as u64 * cfg.num_channels as u64;
        let mut hbm = Hbm::new(cfg);
        assert!(hbm.submit(Cycle(0), MemRequest::read(1, 0, 64)).is_ok());
        // Same channel, whose one slot is taken: refused, waiting on channel 0.
        let waiting = MemRequest::read(2, stride, 64);
        assert_eq!(hbm.submit(Cycle(0), waiting), Err(1));
        assert_eq!(hbm.full_channels(), 1);
        // The first tick moves request 1 onto the bus, freeing the slot.
        hbm.tick(Cycle(0));
        assert_eq!(hbm.freed_channels(), 1);
        assert_eq!(hbm.full_channels(), 0);
        assert!(hbm.submit(Cycle(1), waiting).is_ok());
        assert_eq!(hbm.full_channels(), 1);
    }

    #[test]
    fn a_tick_that_dequeues_nothing_frees_no_channel() {
        let cfg = HbmConfig::default();
        let stride = cfg.interleave_bytes as u64 * cfg.num_channels as u64;
        let mut hbm = Hbm::new(cfg);
        hbm.tick(Cycle(0));
        assert_eq!(hbm.freed_channels(), 0, "an idle device frees nothing");
        assert!(hbm.submit(Cycle(1), MemRequest::read(1, 0, 64)).is_ok());
        assert!(hbm.submit(Cycle(1), MemRequest::read(2, stride, 64)).is_ok());
        hbm.tick(Cycle(1));
        assert_eq!(hbm.freed_channels(), 1, "request 1 went onto the bus");
        // Request 1 holds the bus through its activation and burst, so
        // request 2 stays queued.
        hbm.tick(Cycle(2));
        assert_eq!(hbm.freed_channels(), 0);
    }

    #[test]
    fn the_refusal_mask_of_a_split_request_names_both_channels() {
        let cfg = HbmConfig { queue_depth: 1, ..HbmConfig::default() };
        let block = cfg.interleave_bytes as u64;
        let mut hbm = Hbm::new(cfg);
        // Fill channel 1, then ask for 128 B straddling channels 0 and 1.
        assert!(hbm.submit(Cycle(0), MemRequest::read(1, block, 64)).is_ok());
        let split = MemRequest::read(2, 0, 128);
        assert_eq!(hbm.submit(Cycle(0), split), Err(0b11));
        assert_eq!(hbm.channel_mask(&split), 0b11);
        assert_eq!(hbm.full_channels(), 0b10);
    }

    #[test]
    fn mid_flight_snapshot_restores_to_identical_completions() {
        // Drive a device partway through a batch of requests, snapshot,
        // and check the restored copy completes the remaining work on
        // exactly the same cycles as the original.
        let cfg = HbmConfig::default();
        let mut hbm = Hbm::new(cfg.clone());
        for i in 0..8u64 {
            assert!(hbm.submit(Cycle(0), MemRequest::read(i, i * 24, 24)).is_ok());
        }
        for t in 0..10u64 {
            hbm.tick(Cycle(t));
            let _ = hbm.pop_response(Cycle(t));
        }
        let state = bytes(&hbm);
        let mut twin = restored(cfg, &state);
        assert_eq!(bytes(&twin), state, "restore must round-trip");
        let (orig, t1) = run_until_idle_from(&mut hbm, 10, 1000);
        let (copy, t2) = run_until_idle_from(&mut twin, 10, 1000);
        assert_eq!(orig, copy, "completion schedule must be bit-identical");
        assert_eq!(t1, t2);
        assert_eq!(hbm.stats(), twin.stats());
    }

    #[test]
    fn achieved_bandwidth_over_zero_window_is_zero_not_nan() {
        let stats = HbmStats { bytes_read: 4096, bytes_written: 1024, ..HbmStats::default() };
        // A zero-cycle window (e.g. a trace window closed before the first
        // memory tick) must report 0, never NaN or infinity.
        let bw = stats.achieved_bandwidth_gbs(0, 1.0);
        assert_eq!(bw, 0.0);
        assert!(bw.is_finite());
        // Non-degenerate sanity: 5120 B over 256 cycles at 1 GHz = 20 GB/s.
        assert!((stats.achieved_bandwidth_gbs(256, 1.0) - 20.0).abs() < 1e-12);
    }

    #[test]
    fn per_channel_busy_cycles_do_not_double_count_across_restore() {
        // The busy counter is cumulative and rides the snapshot; a restore
        // must neither replay already-counted service (double-count) nor
        // drop it. Pin this by comparing a paused-snapshot-restored run
        // against an unpaused run of the same schedule, channel by channel.
        let cfg = HbmConfig::default();
        let submit_all = |hbm: &mut Hbm| {
            for i in 0..8u64 {
                assert!(hbm.submit(Cycle(0), MemRequest::read(i, i * 24, 24)).is_ok());
            }
        };

        let mut unpaused = Hbm::new(cfg.clone());
        submit_all(&mut unpaused);
        let _ = run_until_idle(&mut unpaused, 1000);

        let mut paused = Hbm::new(cfg.clone());
        submit_all(&mut paused);
        for t in 0..10u64 {
            paused.tick(Cycle(t));
            let _ = paused.pop_response(Cycle(t));
        }
        let mut resumed = restored(cfg, &bytes(&paused));
        let _ = run_until_idle_from(&mut resumed, 10, 1000);

        assert_eq!(
            unpaused.channel_stats(),
            resumed.channel_stats(),
            "per-channel stats (incl. busy_cycles) must match the unpaused run"
        );
        assert_eq!(unpaused.stats().busy_cycles, resumed.stats().busy_cycles);
        assert_eq!(unpaused.stats(), resumed.stats());
    }

    fn run_until_idle_from(hbm: &mut Hbm, from: u64, limit: u64) -> (Vec<(u64, MemResponse)>, u64) {
        let mut responses = Vec::new();
        let mut t = from;
        while t < limit {
            let now = Cycle(t);
            hbm.tick(now);
            while let Some(r) = hbm.pop_response(now) {
                responses.push((t, r));
            }
            if hbm.is_idle() {
                break;
            }
            t += 1;
        }
        (responses, t)
    }

    #[test]
    fn streaming_reaches_high_bandwidth() {
        // One channel, perfectly sequential 64 B reads: efficiency should
        // approach burst/(burst + amortised row miss) ≈ 4/(4+22/16) ≈ 0.75.
        let cfg = HbmConfig::with_channels(1);
        let mut hbm = Hbm::new(cfg.clone());
        let total = 512u64; // bursts
        let mut submitted = 0u64;
        let mut completed = 0u64;
        let mut t = 0u64;
        while completed < total {
            let now = Cycle(t);
            while submitted < total
                && hbm.submit(now, MemRequest::read(submitted, submitted * 64, 64)).is_ok()
            {
                submitted += 1;
            }
            hbm.tick(now);
            while hbm.pop_response(now).is_some() {
                completed += 1;
            }
            t += 1;
        }
        let gbs = hbm.stats().achieved_bandwidth_gbs(t, cfg.clock_ghz);
        let peak = cfg.peak_bandwidth_gbs();
        assert!(gbs > 0.6 * peak, "streaming too slow: {gbs:.1} of {peak} GB/s");
        assert!(gbs < peak, "cannot exceed peak: {gbs:.1}");
    }

    /// Drives seeded random requests, split over 4 channels of tiny rows
    /// and two banks, through a device whose channels tick only when due
    /// and through a reference whose channels tick every cycle under the
    /// always-rescan rule, both under `faults`. Every cycle the two must
    /// agree on admissions, freed and full channels, responses and state,
    /// fault counters included.
    fn check_due_ticks_match_every_cycle_ticks(faults: &MemFaults, lookahead: usize, seed: u64) {
        let cfg = HbmConfig {
            row_bytes: 128,
            banks_per_channel: 2,
            queue_depth: 4,
            bank_lookahead: lookahead,
            ..HbmConfig::with_channels(4)
        };
        let (mut due_only, mut reference) = (Hbm::new(cfg.clone()), Hbm::new(cfg));
        due_only.set_faults(faults.clone());
        reference.set_faults(faults.clone());
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut next_id = 0;
        for t in 0..3_000 {
            let now = Cycle(t);
            let case = || format!("{faults:?} lookahead {lookahead} seed {seed} cycle {t}");
            for ch in &mut reference.channels {
                ch.rescan_next_tick();
            }
            due_only.tick(now);
            reference.tick(now);
            assert_eq!(due_only.freed_channels(), reference.freed_channels(), "{}", case());
            loop {
                let response = due_only.pop_response(now);
                assert_eq!(response, reference.pop_response(now), "{}", case());
                if response.is_none() {
                    break;
                }
            }
            for _ in 0..rng.gen_range(0..4u64) {
                let (addr, bytes) = (rng.gen_range(0..4_096u64), rng.gen_range(1..160u32));
                let req = if rng.gen_bool(0.3) {
                    MemRequest::write(next_id, addr, bytes)
                } else {
                    MemRequest::read(next_id, addr, bytes)
                };
                let admitted = due_only.submit(now, req);
                assert_eq!(admitted, reference.submit(now, req), "{}", case());
                next_id += u64::from(admitted.is_ok());
            }
            assert_eq!(due_only.full_channels(), reference.full_channels(), "{}", case());
            assert_eq!(bytes(&due_only), bytes(&reference), "{}", case());
        }
        assert!(reference.stats().requests_completed > 200, "the stream must carry traffic");
    }

    #[test]
    fn a_device_ticking_channels_only_when_due_matches_ticking_every_cycle() {
        let window = |channel, start, end| FaultWindow { channel, start, end };
        let schedules = [
            MemFaults::none(),
            MemFaults {
                stalls: vec![window(1, 100, 400), window(2, 900, 950), window(0, 2_000, 2_600)],
                ..MemFaults::none()
            },
            MemFaults {
                refusals: vec![
                    window(0, 50, 600),
                    window(3, 1_000, 1_300),
                    window(1, 2_000, 2_100),
                ],
                ..MemFaults::none()
            },
        ];
        for (k, faults) in schedules.iter().enumerate() {
            for lookahead in [0, 1, 4, 12] {
                check_due_ticks_match_every_cycle_ticks(
                    faults,
                    lookahead,
                    10 * k as u64 + lookahead as u64,
                );
            }
        }
    }

    /// Bursts of seeded random requests, submitted at scattered cycles to a
    /// device that skips from each visited cycle straight to the next burst
    /// or to its [`Hbm::next_event`], whichever is sooner, and to a
    /// reference ticked every cycle. The two must free the same channels
    /// and pop the same responses at the same cycles, and end in the same
    /// state: the cycles skipped change nothing.
    #[test]
    fn a_device_skipping_to_its_next_event_matches_ticking_every_cycle() {
        for lookahead in [0, 1, 4] {
            for seed in 0..3u64 {
                let cfg = HbmConfig {
                    row_bytes: 128,
                    banks_per_channel: 2,
                    queue_depth: 4,
                    bank_lookahead: lookahead,
                    ..HbmConfig::with_channels(4)
                };
                let mut rng = ChaCha8Rng::seed_from_u64(seed);
                let mut bursts: Vec<(u64, Vec<MemRequest>)> = Vec::new();
                let (mut at, mut id) = (0, 0);
                for _ in 0..40 {
                    at += rng.gen_range(1..300u64);
                    let burst = (0..rng.gen_range(1..8u64))
                        .map(|_| {
                            id += 1;
                            let (addr, bytes) =
                                (rng.gen_range(0..4_096u64), rng.gen_range(1..160u32));
                            if rng.gen_bool(0.3) {
                                MemRequest::write(id, addr, bytes)
                            } else {
                                MemRequest::read(id, addr, bytes)
                            }
                        })
                        .collect();
                    bursts.push((at, burst));
                }
                let end = at + 2_000;
                // Runs `hbm` over the bursts, visiting the cycles `next`
                // names, and logs every visible event with its cycle.
                let drive = |hbm: &mut Hbm, next: &dyn Fn(&Hbm, u64, u64) -> u64| {
                    let (mut log, mut t, mut pending) = (Vec::new(), 0, bursts.iter().peekable());
                    while t < end {
                        let now = Cycle(t);
                        hbm.tick(now);
                        log.push((t, hbm.freed_channels(), None));
                        while let Some(r) = hbm.pop_response(now) {
                            log.push((t, 0, Some(r)));
                        }
                        if let Some((_, burst)) = pending.next_if(|(at, _)| *at == t) {
                            for &req in burst {
                                log.push((t, hbm.submit(now, req).err().unwrap_or(0), None));
                            }
                        }
                        let next_burst = pending.peek().map_or(end, |(at, _)| *at);
                        t = next(hbm, t, next_burst);
                    }
                    log.retain(|&(_, mask, response)| mask != 0 || response.is_some());
                    log
                };
                let (mut skipping, mut reference) = (Hbm::new(cfg.clone()), Hbm::new(cfg));
                let skipped = drive(&mut skipping, &|hbm, t, burst| {
                    hbm.next_event().as_u64().max(t + 1).min(burst)
                });
                let every = drive(&mut reference, &|_, t, _| t + 1);
                let case = format!("lookahead {lookahead} seed {seed}");
                assert_eq!(skipped, every, "{case}");
                assert_eq!(bytes(&skipping), bytes(&reference), "{case}");
                assert!(
                    reference.stats().requests_completed > 100,
                    "the stream must carry traffic"
                );
            }
        }
    }
}
