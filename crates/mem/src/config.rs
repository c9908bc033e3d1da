//! HBM configuration.

use matraptor_sim::Divisor;

/// Parameters of the HBM model.
///
/// Defaults reproduce the paper's evaluated configuration (Section V): up
/// to eight 128-bit physical channels at 1 GHz for a 128 GB/s peak, 64 B
/// channel interleaving, and 64-entry request/response queues.
///
/// # Example
///
/// ```rust
/// use matraptor_mem::HbmConfig;
///
/// let cfg = HbmConfig::default();
/// assert_eq!(cfg.peak_bandwidth_gbs(), 128.0);
/// assert_eq!(cfg.burst_cycles(), 4);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct HbmConfig {
    /// Number of independent physical channels.
    pub num_channels: usize,
    /// Data bus width per channel in bytes (128-bit = 16 B).
    pub channel_width_bytes: u32,
    /// Memory clock in GHz.
    pub clock_ghz: f64,
    /// Burst (access-granularity) size in bytes: a channel occupies the
    /// bus for a whole burst regardless of how few bytes were requested.
    pub burst_bytes: u32,
    /// Address-interleave granularity across channels for flat (CSR-style)
    /// address spaces.
    pub interleave_bytes: u32,
    /// Pipeline latency from request issue to first data, in memory-clock
    /// cycles.
    pub access_latency: u64,
    /// Depth of each channel's request queue.
    pub queue_depth: usize,
    /// DRAM row (page) size in bytes; crossing a row boundary pays
    /// [`HbmConfig::row_miss_penalty`].
    pub row_bytes: u64,
    /// Extra cycles charged when a burst targets a different DRAM row than
    /// the one open in its bank (precharge + activate).
    pub row_miss_penalty: u64,
    /// Banks per channel, each with an independent open row. Multiple
    /// banks let interleaved streams from different requesters keep their
    /// rows open simultaneously, as real HBM does.
    pub banks_per_channel: usize,
    /// How many queued fragments the controller scans to pre-start bank
    /// activations (in-order transfers, overlapped preparation — a
    /// light-weight FR-FCFS).
    pub bank_lookahead: usize,
}

impl Default for HbmConfig {
    fn default() -> Self {
        HbmConfig {
            num_channels: 8,
            channel_width_bytes: 16,
            clock_ghz: 1.0,
            burst_bytes: 64,
            interleave_bytes: 64,
            access_latency: 20,
            queue_depth: 64,
            row_bytes: 1024,
            row_miss_penalty: 22,
            banks_per_channel: 16,
            bank_lookahead: 12,
        }
    }
}

impl HbmConfig {
    /// A configuration with `n` channels and everything else default —
    /// the 2-/4-/8-channel sweep of Fig. 6.
    pub fn with_channels(n: usize) -> Self {
        HbmConfig { num_channels: n, ..HbmConfig::default() }
    }

    /// Peak bandwidth in GB/s: `channels × width × clock`.
    pub fn peak_bandwidth_gbs(&self) -> f64 {
        self.num_channels as f64 * self.channel_width_bytes as f64 * self.clock_ghz
    }

    /// Cycles a channel's data bus is occupied per burst.
    pub fn burst_cycles(&self) -> u64 {
        (self.burst_bytes as u64).div_ceil(self.channel_width_bytes as u64)
    }

    /// The channel that owns flat address `addr` under cyclic
    /// interleaving.
    pub fn channel_of_addr(&self, addr: u64) -> usize {
        ((addr / self.interleave_bytes as u64) % self.num_channels as u64) as usize
    }

    /// Maps a channel-local byte offset to the flat address owned by
    /// `channel` — the inverse of [`HbmConfig::channel_of_addr`] restricted
    /// to one channel. This is how C²SR's per-channel streams are laid out
    /// in the shared address space.
    pub fn channel_local_to_flat(&self, channel: usize, local_offset: u64) -> u64 {
        let il = self.interleave_bytes as u64;
        let block = local_offset / il;
        let within = local_offset % il;
        (block * self.num_channels as u64 + channel as u64) * il + within
    }

    /// The byte offset of `addr` within its channel's own address space —
    /// the inverse of [`HbmConfig::channel_local_to_flat`].
    ///
    /// DRAM row-buffer locality is a *per-channel* property: data that is
    /// contiguous in a channel is physically contiguous in that channel's
    /// DRAM, even though it appears strided in the flat interleaved space.
    // conformance:allow(dead-api): the reference formula that tests::address_map_matches_the_reference_formulas checks AddressMap::local_offset against
    pub fn channel_local_offset(&self, addr: u64) -> u64 {
        let il = self.interleave_bytes as u64;
        let block = addr / il;
        (block / self.num_channels as u64) * il + addr % il
    }

    /// Checks internal consistency, naming the first violated constraint:
    /// every field positive, at most 64 banks (the bank bitset), and the
    /// interleave a whole number of bursts (which would otherwise make a
    /// burst span two interleave blocks, and so two channels).
    ///
    /// # Errors
    ///
    /// The violated constraint.
    pub fn try_validate(&self) -> Result<(), &'static str> {
        let detail = if self.num_channels == 0 {
            "need at least one channel"
        } else if self.channel_width_bytes == 0 {
            "zero channel width"
        } else if self.clock_ghz <= 0.0 {
            "zero clock"
        } else if self.burst_bytes == 0 {
            "zero burst"
        } else if self.queue_depth == 0 {
            "zero queue depth"
        } else if self.interleave_bytes < self.burst_bytes {
            "interleave must be at least one burst"
        } else if !self.interleave_bytes.is_multiple_of(self.burst_bytes) {
            "interleave must be a multiple of the burst"
        } else if self.row_bytes < self.burst_bytes as u64 {
            "row smaller than burst"
        } else if self.banks_per_channel == 0 {
            "need at least one bank"
        } else if self.banks_per_channel > 64 {
            "bank bitset supports at most 64 banks"
        } else {
            return Ok(());
        };
        Err(detail)
    }

    /// Validates internal consistency; called by [`crate::Hbm::new`].
    ///
    /// # Panics
    ///
    /// Panics with the constraint [`HbmConfig::try_validate`] names.
    pub fn validate(&self) {
        if let Err(detail) = self.try_validate() {
            // conformance:allow(panic-safety): deliberate fail-fast wrapper; fallible callers use try_validate
            panic!("invalid HBM configuration: {detail}");
        }
    }
}

/// The address arithmetic of an [`HbmConfig`], precomputed for the cycle
/// loop: the same mappings as [`HbmConfig::channel_of_addr`],
/// [`HbmConfig::channel_local_offset`] and
/// [`HbmConfig::channel_local_to_flat`], plus the DRAM row and bank of an
/// address, with every division by a configuration constant reduced to a
/// shift and mask when the constant is a power of two.
///
/// # Example
///
/// ```rust
/// use matraptor_mem::{AddressMap, HbmConfig};
///
/// let cfg = HbmConfig::default();
/// let map = AddressMap::new(&cfg);
/// let addr = cfg.channel_local_to_flat(3, 5_000);
/// assert_eq!(map.channel_of(addr), 3);
/// assert_eq!(map.local_offset(addr), 5_000);
/// assert_eq!(map.dram_coords(addr), (4, 4)); // row 5000 / 1024, bank 4 % 16
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AddressMap {
    interleave: Divisor,
    channels: Divisor,
    row: Divisor,
    banks: Divisor,
    burst: Divisor,
}

impl AddressMap {
    /// Precomputes the mapping of `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if a geometry field is zero (see [`HbmConfig::validate`]).
    pub fn new(cfg: &HbmConfig) -> Self {
        AddressMap {
            interleave: Divisor::new(cfg.interleave_bytes as u64),
            channels: Divisor::new(cfg.num_channels as u64),
            row: Divisor::new(cfg.row_bytes),
            banks: Divisor::new(cfg.banks_per_channel as u64),
            burst: Divisor::new(cfg.burst_bytes as u64),
        }
    }

    /// The channel owning flat address `addr`.
    #[inline]
    pub fn channel_of(&self, addr: u64) -> usize {
        // Below num_channels, which is a usize.
        self.channels.remainder(self.interleave.quotient(addr)) as usize
    }

    /// The byte offset of `addr` within its channel's address space.
    #[inline]
    pub fn local_offset(&self, addr: u64) -> u64 {
        let block = self.interleave.quotient(addr);
        self.channels.quotient(block) * self.interleave.get() + self.interleave.remainder(addr)
    }

    /// The flat address of channel-local byte `local_offset` of `channel`.
    #[inline]
    pub fn local_to_flat(&self, channel: usize, local_offset: u64) -> u64 {
        let il = self.interleave.get();
        let block = self.interleave.quotient(local_offset);
        (block * self.channels.get() + channel as u64) * il
            + self.interleave.remainder(local_offset)
    }

    /// The DRAM `(row, bank)` holding `addr` within its channel: rows are
    /// `row_bytes` of channel-local space, striped across the banks.
    #[inline]
    pub fn dram_coords(&self, addr: u64) -> (u64, usize) {
        let row = self.row.quotient(self.local_offset(addr));
        // Below banks_per_channel, which is a usize.
        (row, self.banks.remainder(row) as usize)
    }

    /// The first address past the burst containing `addr`.
    #[inline]
    pub fn burst_end(&self, addr: u64) -> u64 {
        (self.burst.quotient(addr) + 1) * self.burst.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn address_map_matches_the_reference_formulas() {
        // Power-of-two geometries take the shift path; the odd ones the
        // division fallback. Both must agree with HbmConfig exactly.
        let configs = [
            HbmConfig::default(),
            HbmConfig::with_channels(2),
            HbmConfig::with_channels(3),
            HbmConfig { interleave_bytes: 96, burst_bytes: 32, ..HbmConfig::with_channels(5) },
            HbmConfig { row_bytes: 1000, banks_per_channel: 7, ..HbmConfig::default() },
        ];
        for cfg in &configs {
            let map = AddressMap::new(cfg);
            for addr in (0..50_000u64).step_by(37).chain([1 << 40, 0x5000_0000 + 13]) {
                let local = cfg.channel_local_offset(addr);
                assert_eq!(map.channel_of(addr), cfg.channel_of_addr(addr), "{cfg:?} {addr}");
                assert_eq!(map.local_offset(addr), local, "{cfg:?} {addr}");
                let row = local / cfg.row_bytes;
                let bank = (row % cfg.banks_per_channel as u64) as usize;
                assert_eq!(map.dram_coords(addr), (row, bank), "{cfg:?} {addr}");
                let burst = cfg.burst_bytes as u64;
                assert_eq!(map.burst_end(addr), (addr / burst + 1) * burst);
                let ch = addr as usize % cfg.num_channels;
                assert_eq!(map.local_to_flat(ch, addr), cfg.channel_local_to_flat(ch, addr));
            }
        }
    }

    #[test]
    fn paper_configuration() {
        let cfg = HbmConfig::default();
        cfg.validate();
        assert_eq!(cfg.peak_bandwidth_gbs(), 128.0);
        assert_eq!(HbmConfig::with_channels(2).peak_bandwidth_gbs(), 32.0);
        assert_eq!(HbmConfig::with_channels(4).peak_bandwidth_gbs(), 64.0);
    }

    #[test]
    fn address_interleaving_round_trip() {
        let cfg = HbmConfig::default();
        for ch in 0..cfg.num_channels {
            for local in [0u64, 8, 63, 64, 1000, 4096] {
                let flat = cfg.channel_local_to_flat(ch, local);
                assert_eq!(cfg.channel_of_addr(flat), ch, "ch={ch} local={local}");
            }
        }
    }

    #[test]
    fn consecutive_interleave_blocks_rotate_channels() {
        let cfg = HbmConfig::with_channels(4);
        let channels: Vec<usize> =
            (0..8).map(|i| cfg.channel_of_addr(i * cfg.interleave_bytes as u64)).collect();
        assert_eq!(channels, vec![0, 1, 2, 3, 0, 1, 2, 3]);
    }

    #[test]
    fn channel_local_streaming_is_contiguous_blocks() {
        // Consecutive local blocks of a channel are spaced num_channels
        // apart in flat space.
        let cfg = HbmConfig::with_channels(8);
        let a0 = cfg.channel_local_to_flat(3, 0);
        let a1 = cfg.channel_local_to_flat(3, 64);
        assert_eq!(a1 - a0, 8 * 64);
    }

    #[test]
    #[should_panic(expected = "interleave")]
    fn interleave_below_burst_rejected() {
        let cfg = HbmConfig { interleave_bytes: 32, ..HbmConfig::default() };
        cfg.validate();
    }

    /// With 96 B blocks of 64 B bursts, the burst `[64, 128)` would start
    /// in channel 0's block and end in channel 1's.
    #[test]
    #[should_panic(expected = "interleave must be a multiple of the burst")]
    fn interleave_not_a_multiple_of_the_burst_rejected() {
        let cfg = HbmConfig { interleave_bytes: 96, ..HbmConfig::with_channels(2) };
        assert_ne!(cfg.channel_of_addr(64), cfg.channel_of_addr(127));
        cfg.validate();
    }
}
