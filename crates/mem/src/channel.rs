//! A single HBM channel: queue, burst service, per-bank row state.

use matraptor_sim::codec::{Dec, Enc, Mismatch, Reader};
use matraptor_sim::stats::Counter;
use matraptor_sim::{plain_struct, Cycle, Fifo};

use crate::{AddressMap, HbmConfig, MemKind, RequestId};

/// One burst-sized piece of a memory request, bound to a single channel.
///
/// [`crate::Hbm`] splits requests at burst boundaries before enqueueing,
/// so a fragment never spans bursts, interleave blocks, or channels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Fragment {
    pub req_id: RequestId,
    pub kind: MemKind,
    /// Flat byte address of the fragment start.
    pub addr: u64,
    /// Useful bytes this fragment carries (≤ one burst).
    pub bytes: u32,
    /// DRAM row of `addr` within its channel, decoded once at split time
    /// so the controller's per-cycle lookahead does no address arithmetic.
    pub row: u64,
    /// Bank holding `row`.
    pub bank: usize,
}

/// Per-channel accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChannelStats {
    /// Cycles the data bus was transferring or blocked on a row
    /// activation it could not hide.
    pub busy_cycles: Counter,
    /// Useful (requested) bytes read.
    pub read_bytes: Counter,
    /// Useful (requested) bytes written.
    pub write_bytes: Counter,
    /// Total bursts serviced.
    pub bursts: Counter,
    /// Bursts that carried read data.
    pub read_bursts: Counter,
    /// Bursts that carried write data.
    pub write_bursts: Counter,
    /// Bursts that had to open a new DRAM row.
    pub row_misses: Counter,
}

plain_struct!(ChannelStats {
    busy_cycles,
    read_bytes,
    write_bytes,
    bursts,
    read_bursts,
    write_bursts,
    row_misses,
});

impl Fragment {
    /// A fragment of request `req_id` at `addr`, with its DRAM coordinates
    /// decoded through `map`.
    #[inline]
    pub(crate) fn new(
        map: &AddressMap,
        req_id: RequestId,
        kind: MemKind,
        addr: u64,
        bytes: u32,
    ) -> Self {
        let (row, bank) = map.dram_coords(addr);
        Fragment { req_id, kind, addr, bytes, row, bank }
    }

    /// Reads a fragment a checkpoint holds, decoding its DRAM coordinates
    /// through `map` again.
    fn dec(map: &AddressMap, r: &mut Reader<'_>) -> Result<Self, Mismatch> {
        Ok(Fragment::new(map, Dec::dec(r)?, Dec::dec(r)?, Dec::dec(r)?, Dec::dec(r)?))
    }
}

/// A fragment's checkpoint form leaves out its DRAM coordinates, which
/// [`Fragment::dec`] decodes again.
impl Enc for Fragment {
    fn enc(&self, out: &mut Vec<u8>) {
        (self.req_id, self.kind, self.addr).enc(out);
        self.bytes.enc(out);
    }
}

/// Deepest lookahead the controller models (`HbmConfig::bank_lookahead`
/// is clamped to it).
const LOOKAHEAD_MAX: usize = 16;

impl ChannelStats {
    /// Useful bytes in either direction.
    pub fn useful_bytes(&self) -> u64 {
        self.read_bytes.get() + self.write_bytes.get()
    }
}

/// Per-bank row-buffer state.
#[derive(Debug, Clone, Copy, Default)]
struct Bank {
    /// Row currently open (readable without activation).
    open_row: Option<u64>,
    /// Row being activated, ready at `ready_at`.
    prep_row: Option<u64>,
    /// Cycle at which the bank finishes its current activity.
    ready_at: Cycle,
}

plain_struct!(Bank { open_row, prep_row, ready_at });

/// A single channel: an in-order data bus over banks that activate rows in
/// parallel.
///
/// The controller looks `bank_lookahead` fragments into its queue and
/// starts row activations early (a light-weight FR-FCFS: transfers stay in
/// order, but bank preparation overlaps with earlier transfers — this is
/// what lets interleaved random streams from many requesters approach the
/// bus rate, while a *single* stream still exposes part of each activation
/// at row boundaries, keeping streaming slightly under peak as the paper
/// observes).
#[derive(Debug, Clone)]
pub(crate) struct Channel {
    queue: Fifo<Fragment>,
    /// Fragment on the bus and the cycle its burst completes.
    in_service: Option<(Fragment, Cycle)>,
    banks: Vec<Bank>,
    stats: ChannelStats,
    /// Queued fragments scanned for early activations.
    // conformance:allow(checkpoint-coverage): fixed hardware constant from config, rebuilt by restore
    lookahead: usize,
    // conformance:allow(checkpoint-coverage): fixed hardware constant from config, rebuilt by restore
    row_miss_penalty: u64,
    // conformance:allow(checkpoint-coverage): fixed hardware constant from config, rebuilt by restore
    burst_cycles: u64,
    /// Earliest cycle at which the activation scan can start anything.
    /// A scan sets it to the soonest ready time of a bank its window waits
    /// on; a fragment that may need an activation lowers it when it enters
    /// the window or becomes the first of the window on its bank. So the
    /// skipped scans are exactly the ones that would have found nothing.
    // conformance:allow(checkpoint-coverage): derived; a restored channel scans on its first tick
    scan_at: Cycle,
    /// Earliest cycle at which a tick can change anything: the in-service
    /// burst's end, `scan_at`, or the bank-ready time the head waits for.
    /// Ticks before it are no-ops, so [`crate::Hbm`] skips them.
    // conformance:allow(checkpoint-coverage): derived; a restored channel ticks on its first cycle
    wake: Cycle,
}

impl Channel {
    pub(crate) fn new(cfg: &HbmConfig) -> Self {
        Channel {
            queue: Fifo::new(cfg.queue_depth),
            in_service: None,
            banks: vec![Bank::default(); cfg.banks_per_channel],
            stats: ChannelStats::default(),
            lookahead: cfg.bank_lookahead.min(LOOKAHEAD_MAX),
            row_miss_penalty: cfg.row_miss_penalty,
            burst_cycles: cfg.burst_cycles(),
            scan_at: Cycle::ZERO,
            wake: Cycle::ZERO,
        }
    }

    /// Free queue slots, used by `Hbm` to admit multi-fragment requests
    /// atomically.
    #[inline]
    pub(crate) fn free_slots(&self) -> usize {
        self.queue.free()
    }

    /// Current queue occupancy, surfaced in deadlock diagnostics.
    #[inline]
    pub(crate) fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Enqueues a fragment.
    ///
    /// # Panics
    ///
    /// Panics if the queue is full — callers must check
    /// [`Channel::free_slots`] first (hardware backpressure).
    #[inline]
    pub(crate) fn enqueue(&mut self, frag: Fragment) {
        if self.queue.is_empty() {
            // The new head may go on the bus at the next tick.
            self.wake = Cycle::ZERO;
        }
        self.queue
            .try_push(frag)
            // conformance:allow(panic-safety): documented contract: callers must check free_slots first
            .unwrap_or_else(|_| panic!("channel queue overflow; check free_slots first"));
        if self.queue.len() <= self.lookahead {
            self.entered_window(frag);
        }
    }

    /// Whether a tick at `now` can change anything.
    #[inline]
    pub(crate) fn due(&self, now: Cycle) -> bool {
        now >= self.wake
    }

    /// The first cycle at which [`Channel::due`] holds.
    #[inline]
    pub(crate) fn wake(&self) -> Cycle {
        self.wake
    }

    /// `f` just entered the lookahead window. Unless its bank is open on
    /// its row or being prepared, the scan may start its activation once
    /// the bank is ready. (A bank prepared or opened for another row
    /// belongs to an earlier window fragment, whose bus start rechecks.)
    #[inline]
    fn entered_window(&mut self, f: Fragment) {
        let b = &self.banks[f.bank];
        if b.open_row != Some(f.row) && b.prep_row.is_none() {
            self.scan_at = self.scan_at.min(b.ready_at);
            self.wake = self.wake.min(self.scan_at);
        }
    }

    /// Starts row activations for fragments near the head of the queue.
    /// The first fragment touching a bank "claims" it, so a later fragment
    /// can never close a row an earlier one still needs.
    ///
    /// Returns the earliest cycle a rescan could start another activation
    /// if neither the queue nor any bank changes before then: the soonest
    /// `ready_at` among claimed banks that are only waiting for time.
    #[inline]
    fn start_activations(&mut self, now: Cycle) -> Cycle {
        let mut next = Cycle(u64::MAX);
        let mut claimed = 0u64; // bitset over banks (≤ 64 banks)
        for f in self.queue.iter().take(self.lookahead) {
            let bit = 1u64 << (f.bank % 64);
            if claimed & bit != 0 {
                continue;
            }
            claimed |= bit;
            let b = &mut self.banks[f.bank];
            if b.open_row == Some(f.row) || b.prep_row.is_some() {
                // Open, being prepared, or blocked behind another row's
                // activation until the head issues on this bank.
                continue;
            }
            if now >= b.ready_at {
                b.prep_row = Some(f.row);
                b.open_row = None;
                b.ready_at = now + self.row_miss_penalty;
                self.stats.row_misses.incr();
            } else {
                next = next.min(b.ready_at);
            }
        }
        next
    }

    /// Advances one cycle. Returns a fragment whose burst completed at
    /// exactly this cycle, if any.
    ///
    /// Ticking only when [`Channel::due`] gives the same results as
    /// ticking every cycle.
    #[inline]
    pub(crate) fn tick(&mut self, now: Cycle) -> Option<Fragment> {
        // Complete the in-flight burst first so the bus frees this cycle.
        let completed = match self.in_service {
            Some((frag, done_at)) if done_at <= now => {
                self.in_service = None;
                Some(frag)
            }
            _ => None,
        };

        if now >= self.scan_at {
            self.scan_at = self.start_activations(now);
        }

        // Put the head fragment on the bus when it is free.
        if self.in_service.is_none() {
            if let Some(&Fragment { row, bank, .. }) = self.queue.front() {
                let b = &mut self.banks[bank];
                let start = if b.open_row == Some(row) || b.prep_row == Some(row) {
                    now.max(b.ready_at)
                } else if b.prep_row.is_none() && now >= b.ready_at {
                    // Activation could not be pre-started (e.g. lookahead
                    // window of 0 or bank conflict): pay it inline.
                    b.open_row = None;
                    b.prep_row = Some(row);
                    b.ready_at = now + self.row_miss_penalty;
                    self.stats.row_misses.incr();
                    b.ready_at
                } else {
                    // Bank busy with a different row's activation; wait.
                    self.wake = b.ready_at.min(self.scan_at);
                    return completed;
                };
                // conformance:allow(panic-safety): invariant: loop condition proved the queue is non-empty
                let frag = self.queue.pop().expect("front exists");
                let end = start + self.burst_cycles;
                self.in_service = Some((frag, end));
                let b = &mut self.banks[bank];
                b.open_row = Some(row);
                b.prep_row = None;
                b.ready_at = end;
                self.bus_started(bank, row, end);
                self.stats.busy_cycles.add(end - now);
                self.stats.bursts.incr();
                match frag.kind {
                    MemKind::Read => {
                        self.stats.read_bytes.add(frag.bytes as u64);
                        self.stats.read_bursts.incr();
                    }
                    MemKind::Write => {
                        self.stats.write_bytes.add(frag.bytes as u64);
                        self.stats.write_bursts.incr();
                    }
                }
            }
        }
        // A head that could not start returned above, so without a burst
        // in service the queue is empty.
        self.wake = match self.in_service {
            Some((_, end)) => end.min(self.scan_at),
            None => self.scan_at,
        };
        completed
    }

    /// The head left the queue for the bus, opening `row` on `bank` until
    /// `end`. Two fragments may now want an activation: the window's new
    /// last fragment, and the window's next fragment on `bank`, which now
    /// claims it and needs an activation after `end` unless it wants `row`.
    /// Every other fragment keeps its claim and its bank.
    #[inline]
    fn bus_started(&mut self, bank: usize, row: u64, end: Cycle) {
        if self.lookahead == 0 {
            return;
        }
        if let Some(&entrant) = self.queue.get(self.lookahead - 1) {
            self.entered_window(entrant);
        }
        let mut window = self.queue.iter().take(self.lookahead);
        if window.find(|f| f.bank == bank).is_some_and(|f| f.row != row) {
            self.scan_at = self.scan_at.min(end);
        }
    }

    /// Puts back, for the next tick, the rule this channel had before it
    /// kept wake times: tick, and rescan the window, whatever the cycle.
    /// The equivalence tests run a reference channel this way.
    #[cfg(test)]
    pub(crate) fn rescan_next_tick(&mut self) {
        self.scan_at = Cycle::ZERO;
        self.wake = Cycle::ZERO;
    }

    /// Whether the channel has no queued or in-flight work.
    #[inline]
    pub(crate) fn is_idle(&self) -> bool {
        self.in_service.is_none() && self.queue.is_empty()
    }

    pub(crate) fn stats(&self) -> ChannelStats {
        self.stats
    }

    /// Writes the channel's mutable state into a checkpoint: the queue with
    /// its push count, the burst in service with its end, every bank's row
    /// state, and the statistics.
    pub(crate) fn snapshot(&self, out: &mut Vec<u8>) {
        self.queue.snapshot(out);
        self.in_service.enc(out);
        self.banks.enc(out);
        self.stats.enc(out);
    }

    /// Returns the channel to its power-on state, keeping its storage.
    pub(crate) fn reset(&mut self) {
        self.queue.clear();
        self.in_service = None;
        self.banks.fill(Bank::default());
        self.stats = ChannelStats::default();
        self.scan_at = Cycle::ZERO;
        self.wake = Cycle::ZERO;
    }

    /// Reads a [`Channel::snapshot`] back into this channel, built for the
    /// same configuration.
    ///
    /// # Errors
    ///
    /// [`Mismatch`] if the queue is deeper than configured, the bank count
    /// differs, or the bytes are malformed.
    pub(crate) fn restore(&mut self, map: &AddressMap, r: &mut Reader<'_>) -> Result<(), Mismatch> {
        self.reset();
        self.queue.restore(r, |r| Fragment::dec(map, r))?;
        if r.tag(2)? == 1 {
            self.in_service = Some((Fragment::dec(map, r)?, Cycle::dec(r)?));
        }
        r.count_of(self.banks.len(), "a channel's bank count differs")?;
        for bank in &mut self.banks {
            *bank = Bank::dec(r)?;
        }
        self.stats = ChannelStats::dec(r)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use matraptor_sparse::rng::ChaCha8Rng;

    /// A read fragment of request `id` at flat address `addr`.
    fn frag(cfg: &HbmConfig, id: u64, addr: u64, bytes: u32) -> Fragment {
        Fragment::new(&AddressMap::new(cfg), RequestId(id), MemKind::Read, addr, bytes)
    }

    /// The channel's checkpoint bytes.
    fn bytes(ch: &Channel) -> Vec<u8> {
        let mut out = Vec::new();
        ch.snapshot(&mut out);
        out
    }

    fn drive(ch: &mut Channel, until: u64) -> Vec<(u64, u64)> {
        let mut done = Vec::new();
        for t in 0..until {
            if let Some(f) = ch.tick(Cycle(t)) {
                done.push((f.req_id.0, t));
            }
        }
        done
    }

    #[test]
    fn cold_burst_pays_activation_plus_burst() {
        let cfg = HbmConfig::default(); // burst 4, activation 22
        let mut ch = Channel::new(&cfg);
        ch.enqueue(frag(&cfg, 1, 0, 64));
        let done = drive(&mut ch, 100);
        // Prep starts at t=0 (in the lookahead window), transfer waits for
        // it: ready at 22, burst done at 26.
        assert_eq!(done, vec![(1, 26)]);
    }

    #[test]
    fn open_row_hits_are_back_to_back() {
        let cfg = HbmConfig::default();
        let mut ch = Channel::new(&cfg);
        ch.enqueue(frag(&cfg, 1, 0, 64));
        ch.enqueue(frag(&cfg, 2, 64, 64));
        let done = drive(&mut ch, 200);
        assert_eq!(done[0], (1, 26));
        assert_eq!(done[1], (2, 30));
        assert_eq!(ch.stats().row_misses.get(), 1);
    }

    #[test]
    fn activations_on_different_banks_overlap_with_transfers() {
        // Rows 0 and 1 live in different banks; bank 1's activation should
        // run while bank 0's bursts are on the bus. One channel, so flat
        // addresses equal channel-local offsets.
        let cfg = HbmConfig::with_channels(1); // row = 1 KB = 16 bursts
        let mut ch = Channel::new(&cfg);
        // Four bursts in row 0, then one in row 1.
        for i in 0..4 {
            ch.enqueue(frag(&cfg, i, i * 64, 64));
        }
        ch.enqueue(frag(&cfg, 9, 1024, 64));
        let done = drive(&mut ch, 300);
        let last = done.last().unwrap();
        // Row-0 bursts finish at 26,30,34,38. Row 1's activation started
        // once it entered the 4-deep window (t=4, after the first pop),
        // ready at 4+22=26 ≤ 38, so its burst is not delayed: done at 42.
        assert_eq!(last, &(9, 42));
        assert_eq!(ch.stats().row_misses.get(), 2);
    }

    #[test]
    fn same_bank_conflict_serialises() {
        // Two different rows in the SAME bank (row stride = banks * row).
        // One channel keeps flat == channel-local addressing.
        let cfg = HbmConfig::with_channels(1);
        let nbanks = cfg.banks_per_channel as u64;
        let mut ch = Channel::new(&cfg);
        ch.enqueue(frag(&cfg, 1, 0, 64));
        ch.enqueue(frag(&cfg, 2, nbanks * cfg.row_bytes, 64));
        let done = drive(&mut ch, 300);
        // Second activation cannot start until the first transfer ends
        // (t=26): ready 48, done 52.
        assert_eq!(done, vec![(1, 26), (2, 52)]);
        assert_eq!(ch.stats().row_misses.get(), 2);
    }

    #[test]
    fn narrow_read_still_occupies_full_burst() {
        let cfg = HbmConfig::default();
        let mut ch = Channel::new(&cfg);
        ch.enqueue(frag(&cfg, 1, 0, 8));
        ch.enqueue(frag(&cfg, 2, 8, 8));
        let done = drive(&mut ch, 200);
        // Same row: 4-cycle bursts back to back despite 8 B payloads.
        assert_eq!(done[1].1 - done[0].1, 4);
        assert_eq!(ch.stats().useful_bytes(), 16);
    }

    #[test]
    fn idle_and_backpressure() {
        let cfg = HbmConfig { queue_depth: 2, ..HbmConfig::default() };
        let mut ch = Channel::new(&cfg);
        assert!(ch.is_idle());
        ch.enqueue(frag(&cfg, 1, 0, 64));
        ch.enqueue(frag(&cfg, 2, 64, 64));
        assert_eq!(ch.free_slots(), 0);
        assert!(!ch.is_idle());
    }

    /// Drives one seeded random fragment stream through a channel ticked
    /// only when due and through a reference ticked every cycle under the
    /// always-rescan rule, and checks every cycle that their completions,
    /// statistics and snapshots agree.
    ///
    /// Traffic comes in bursts with idle gaps, so queues fill, drain and
    /// refill. Rows come from a small pool striped over few banks, so the
    /// stream mixes row hits, row misses and bank conflicts.
    fn check_due_ticks_match_every_cycle_ticks(cfg: &HbmConfig, seed: u64, cycles: u64) {
        let map = AddressMap::new(cfg);
        let burst = cfg.burst_bytes as u64;
        let rows = 3 * cfg.banks_per_channel as u64;
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let (mut due_only, mut reference) = (Channel::new(cfg), Channel::new(cfg));
        let (mut next_id, mut row, mut rate) = (0, 0, 0);
        for t in 0..cycles {
            let now = Cycle(t);
            if t % 64 == 0 {
                // A new phase: idle, trickling or flooding.
                rate = rng.gen_range(0..5u64);
            }
            for _ in 0..rate {
                if due_only.free_slots() == 0 || rng.gen_bool(0.5) {
                    break;
                }
                if rng.gen_bool(0.4) {
                    row = rng.gen_range(0..rows);
                }
                let addr = row * cfg.row_bytes + rng.gen_range(0..cfg.row_bytes / burst) * burst;
                let kind = if rng.gen_bool(0.3) { MemKind::Write } else { MemKind::Read };
                let f = Fragment::new(&map, RequestId(next_id), kind, addr, burst as u32);
                next_id += 1;
                due_only.enqueue(f);
                reference.enqueue(f);
            }
            reference.rescan_next_tick();
            let want = reference.tick(now);
            let got = if due_only.due(now) { due_only.tick(now) } else { None };
            let case = || format!("{cfg:?} seed {seed} cycle {t}");
            assert_eq!(got, want, "completion differs: {}", case());
            assert_eq!(due_only.stats(), reference.stats(), "stats differ: {}", case());
            assert_eq!(bytes(&due_only), bytes(&reference), "state differs: {}", case());
        }
        assert!(next_id > cycles / 64, "the stream must carry traffic");
        assert!(reference.stats().row_misses.get() > 0);
    }

    #[test]
    fn ticking_only_when_due_matches_ticking_every_cycle() {
        let mut seed = 0;
        for lookahead in [0, 1, 4, 12, 20] {
            for queue_depth in [1, 4, 64] {
                for (banks_per_channel, row_miss_penalty) in [(2, 22), (16, 22), (2, 3)] {
                    let cfg = HbmConfig {
                        row_bytes: 128,
                        banks_per_channel,
                        row_miss_penalty,
                        queue_depth,
                        bank_lookahead: lookahead,
                        ..HbmConfig::with_channels(1)
                    };
                    seed += 1;
                    check_due_ticks_match_every_cycle_ticks(&cfg, seed, 3_000);
                }
            }
        }
    }
}
