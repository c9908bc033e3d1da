//! Accelerator configuration.

use matraptor_mem::HbmConfig;

use crate::error::ConfigError;
use crate::layout::INFO_BYTES;

/// Parameters of the MatRaptor accelerator.
///
/// Defaults reproduce the evaluated configuration of Section V: a systolic
/// array with **eight rows (lanes)** to match the eight HBM channels, each
/// PE with **ten 4 KB sorting queues**, 64-entry outstanding-request
/// queues, and a 2 GHz accelerator clock over a 1 GHz HBM. Lanes =
/// channels: the lane count is not a field but
/// [`num_lanes`](MatRaptorConfig::num_lanes), read from `mem.num_channels`.
///
/// # Example
///
/// ```rust
/// use matraptor_core::MatRaptorConfig;
///
/// let cfg = MatRaptorConfig::default();
/// assert_eq!(cfg.num_lanes(), 8);
/// assert_eq!(cfg.queue_capacity_entries(), 512);
/// assert_eq!(cfg.peak_gops(), 32.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MatRaptorConfig {
    /// Sorting queues per PE (the paper's `Q`, must be > 2: Q−1 primaries
    /// plus one helper).
    pub queues_per_pe: usize,
    /// Size of each sorting queue in bytes (SRAM).
    pub queue_bytes: usize,
    /// Bytes per `(value, column id)` entry as stored in memory and in the
    /// queues (4 B value + 4 B column id in the evaluated design).
    pub entry_bytes: usize,
    /// Accelerator clock in GHz (the PEs; HBM has its own clock).
    pub clock_ghz: f64,
    /// Width of SpAL/SpBL streaming reads in bytes. It must be a non-zero
    /// multiple of `entry_bytes` that divides `mem.interleave_bytes` (as
    /// the 8 B row-info pair must too), so every vectorized request lies in
    /// one interleave block and stays on its row's channel.
    pub read_request_bytes: u32,
    /// Depth of the outstanding-request/response queues in SpAL and SpBL.
    pub outstanding_requests: usize,
    /// Depth of the small coupling FIFOs between SpAL→SpBL and SpBL→PE.
    pub coupling_fifo_depth: usize,
    /// Memory configuration. Its channel count is also the lane count.
    pub mem: HbmConfig,
    /// Whether the PE's two queue sets double-buffer Phase I and Phase II
    /// (Fig. 5b). Disabling serialises the phases — the ablation for the
    /// design choice Section IV-B motivates ("Phase II stalls the multiply
    /// operations ... with two sets of queues ... Phase I and Phase II can
    /// be performed in parallel").
    pub double_buffering: bool,
    /// When true, every run cross-checks the accelerator's output against
    /// the software Gustavson reference and panics on mismatch. Cheap
    /// relative to simulation; disable only for very large sweeps.
    pub verify_against_reference: bool,
    /// When true, every run checks the output with the ABFT row-checksum
    /// invariants (`A·(B·1)` against `C·1` per row, plus a seeded
    /// Freivalds probe — see `matraptor_sparse::abft`). Far cheaper than
    /// the full Gustavson reference (`O(nnz)` per check vs a second
    /// SpGEMM), so it stays on even for large sweeps and is the detection
    /// path that turns silent corruption into `SimError::OutputCorrupted`
    /// with the offending row set.
    pub abft_verification: bool,
    /// Forward-progress watchdog window in accelerator cycles: if no
    /// pipeline component moves a token for this many cycles the run
    /// terminates with `SimError::Deadlock` and a per-lane diagnostic.
    /// `0` disables the watchdog (the cycle budget then remains the only
    /// backstop). The default is far above any legitimate stall — the
    /// longest real memory round-trip is tens of cycles — so a fault-free
    /// run can never trip it.
    pub watchdog_window: u64,
}

impl Default for MatRaptorConfig {
    fn default() -> Self {
        MatRaptorConfig {
            queues_per_pe: 10,
            queue_bytes: 4096,
            entry_bytes: 8,
            clock_ghz: 2.0,
            read_request_bytes: 64,
            outstanding_requests: 64,
            coupling_fifo_depth: 16,
            mem: HbmConfig::default(),
            double_buffering: true,
            verify_against_reference: true,
            abft_verification: true,
            watchdog_window: 100_000,
        }
    }
}

impl MatRaptorConfig {
    /// A small configuration for unit tests: 2 lanes over 2 channels,
    /// shallow queues so overflow paths are reachable.
    pub fn small_test() -> Self {
        MatRaptorConfig {
            queues_per_pe: 4,
            queue_bytes: 512,
            mem: HbmConfig::with_channels(2),
            ..MatRaptorConfig::default()
        }
    }

    /// Rows of the systolic array (SpAL + SpBL + PE per row): one per HBM
    /// channel, as in the paper, so lanes = channels and the lane count is
    /// set through `mem.num_channels`.
    pub fn num_lanes(&self) -> usize {
        self.mem.num_channels
    }

    /// Entries each sorting queue can hold.
    pub fn queue_capacity_entries(&self) -> usize {
        self.queue_bytes / self.entry_bytes
    }

    /// Peak arithmetic throughput in GOP/s: each lane retires one MAC
    /// (2 ops) per cycle. The paper's 8 lanes × 2 GHz × 2 = 32 GOP/s.
    pub fn peak_gops(&self) -> f64 {
        self.num_lanes() as f64 * 2.0 * self.clock_ghz
    }

    /// Ratio of accelerator clock to memory clock, as integer ticks: the
    /// cycle-driven coupling ticks the memory every `k`-th accelerator
    /// cycle.
    ///
    /// # Errors
    ///
    /// [`ConfigError::NonIntegerClockRatio`] if the ratio is not a
    /// positive integer.
    pub fn mem_clock_ratio(&self) -> Result<u64, ConfigError> {
        let ratio = self.clock_ghz / self.mem.clock_ghz;
        let rounded = ratio.round();
        if rounded >= 1.0 && (ratio - rounded).abs() < 1e-9 {
            Ok(rounded as u64)
        } else {
            Err(ConfigError::NonIntegerClockRatio { ratio })
        }
    }

    /// Validates the configuration, reporting the first violated
    /// constraint as a structured [`ConfigError`] instead of panicking.
    ///
    /// # Errors
    ///
    /// The first structural constraint violated (zero lanes, fewer than 3
    /// queues, queue smaller than one entry, non-integer clock ratio,
    /// invalid HBM parameters, reads that do not tile the interleave).
    #[must_use = "the Err explains why this configuration cannot be built"]
    pub fn try_validate(&self) -> Result<(), ConfigError> {
        if self.num_lanes() == 0 {
            return Err(ConfigError::NoLanes);
        }
        if self.queues_per_pe <= 2 {
            return Err(ConfigError::TooFewQueues { queues: self.queues_per_pe });
        }
        if self.entry_bytes == 0 {
            return Err(ConfigError::ZeroEntryBytes);
        }
        if self.queue_capacity_entries() == 0 {
            return Err(ConfigError::QueueTooSmall {
                queue_bytes: self.queue_bytes,
                entry_bytes: self.entry_bytes,
            });
        }
        if self.outstanding_requests == 0 {
            return Err(ConfigError::ZeroOutstandingRequests);
        }
        if self.coupling_fifo_depth == 0 {
            return Err(ConfigError::ZeroCouplingFifo);
        }
        self.mem_clock_ratio()?;
        self.mem.try_validate().map_err(|detail| ConfigError::InvalidMemConfig { detail })?;
        let (request, interleave) = (self.read_request_bytes, self.mem.interleave_bytes);
        if request == 0
            || !(request as usize).is_multiple_of(self.entry_bytes)
            || !interleave.is_multiple_of(request)
            || !interleave.is_multiple_of(INFO_BYTES)
        {
            return Err(ConfigError::UntiledReads {
                request_bytes: request,
                entry_bytes: self.entry_bytes,
                interleave_bytes: interleave,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper() {
        let cfg = MatRaptorConfig::default();
        assert_eq!(cfg.try_validate(), Ok(()));
        assert_eq!(cfg.queues_per_pe, 10);
        assert_eq!(cfg.queue_bytes, 4096);
        assert_eq!(cfg.mem_clock_ratio(), Ok(2));
        assert_eq!(cfg.peak_gops(), 32.0);
    }

    #[test]
    #[should_panic(expected = "Q > 2")]
    fn too_few_queues_rejected() {
        let cfg = MatRaptorConfig { queues_per_pe: 2, ..MatRaptorConfig::default() };
        crate::Accelerator::new(cfg);
    }

    #[test]
    #[should_panic(expected = "clock ratio")]
    fn fractional_clock_ratio_rejected() {
        let cfg = MatRaptorConfig { clock_ghz: 1.5, ..MatRaptorConfig::default() };
        crate::Accelerator::new(cfg);
    }

    #[test]
    fn small_test_config_is_valid() {
        assert_eq!(MatRaptorConfig::small_test().try_validate(), Ok(()));
    }

    #[test]
    fn try_validate_reports_structured_errors() {
        assert_eq!(MatRaptorConfig::default().try_validate(), Ok(()));
        let mut cfg = MatRaptorConfig::default();
        cfg.mem.num_channels = 0;
        assert_eq!(cfg.try_validate(), Err(ConfigError::NoLanes));
        let cfg = MatRaptorConfig { queue_bytes: 4, ..MatRaptorConfig::default() };
        assert_eq!(
            cfg.try_validate(),
            Err(ConfigError::QueueTooSmall { queue_bytes: 4, entry_bytes: 8 })
        );
        let cfg = MatRaptorConfig { clock_ghz: 1.5, ..MatRaptorConfig::default() };
        assert!(matches!(cfg.try_validate(), Err(ConfigError::NonIntegerClockRatio { .. })));
        for request_bytes in [0, 48] {
            let cfg = MatRaptorConfig { read_request_bytes: request_bytes, ..Default::default() };
            assert_eq!(
                cfg.try_validate(),
                Err(ConfigError::UntiledReads {
                    request_bytes,
                    entry_bytes: 8,
                    interleave_bytes: 64
                })
            );
        }
    }

    #[test]
    fn bad_mem_subconfig_is_reported_not_panicked() {
        let mut cfg = MatRaptorConfig::small_test();
        cfg.mem.burst_bytes = 0;
        assert_eq!(cfg.try_validate(), Err(ConfigError::InvalidMemConfig { detail: "zero burst" }));
    }

    #[test]
    fn an_interleave_that_splits_a_burst_is_reported() {
        let mut cfg = MatRaptorConfig::small_test();
        cfg.mem.interleave_bytes = 96;
        assert_eq!(
            cfg.try_validate(),
            Err(ConfigError::InvalidMemConfig {
                detail: "interleave must be a multiple of the burst"
            })
        );
        cfg.mem.interleave_bytes = 128;
        assert_eq!(cfg.try_validate(), Ok(()));
    }

    #[test]
    fn watchdog_window_defaults_on() {
        assert!(MatRaptorConfig::default().watchdog_window > 0);
        assert!(MatRaptorConfig::small_test().watchdog_window > 0);
    }
}
