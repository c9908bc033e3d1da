//! Accelerator configuration.

use matraptor_mem::HbmConfig;

use crate::error::ConfigError;
use crate::layout::INFO_BYTES;

/// Parameters of the MatRaptor accelerator.
///
/// Defaults reproduce the evaluated configuration of Section V: a systolic
/// array with **eight rows (lanes)** to match the eight HBM channels, each
/// PE with **ten 4 KB sorting queues**, 64-entry outstanding-request
/// queues, and a 2 GHz accelerator clock over a 1 GHz HBM.
///
/// # Example
///
/// ```rust
/// use matraptor_core::MatRaptorConfig;
///
/// let cfg = MatRaptorConfig::default();
/// assert_eq!(cfg.num_lanes, 8);
/// assert_eq!(cfg.queue_capacity_entries(), 512);
/// assert_eq!(cfg.peak_gops(), 32.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MatRaptorConfig {
    /// Rows of the systolic array (SpAL + SpBL + PE per row). The paper
    /// sets this equal to the HBM channel count.
    pub num_lanes: usize,
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
    /// Memory configuration.
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
            num_lanes: 8,
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
            num_lanes: 2,
            queues_per_pe: 4,
            queue_bytes: 512,
            mem: HbmConfig::with_channels(2),
            ..MatRaptorConfig::default()
        }
    }

    /// Entries each sorting queue can hold.
    pub fn queue_capacity_entries(&self) -> usize {
        self.queue_bytes / self.entry_bytes
    }

    /// Peak arithmetic throughput in GOP/s: each lane retires one MAC
    /// (2 ops) per cycle. The paper's 8 lanes × 2 GHz × 2 = 32 GOP/s.
    pub fn peak_gops(&self) -> f64 {
        self.num_lanes as f64 * 2.0 * self.clock_ghz
    }

    /// Ratio of accelerator clock to memory clock, as integer ticks.
    ///
    /// # Panics
    ///
    /// Panics if the ratio is not a positive integer (the cycle-driven
    /// coupling assumes the memory ticks every `k`-th accelerator cycle).
    pub fn mem_clock_ratio(&self) -> u64 {
        let ratio = self.clock_ghz / self.mem.clock_ghz;
        let rounded = ratio.round();
        assert!(
            rounded >= 1.0 && (ratio - rounded).abs() < 1e-9,
            "accelerator/memory clock ratio must be a positive integer, got {ratio}"
        );
        rounded as u64
    }

    /// Validates the configuration, reporting the first violated
    /// constraint as a structured [`ConfigError`] instead of panicking.
    ///
    /// # Errors
    ///
    /// The first structural constraint violated (zero lanes, fewer than 3
    /// queues, queue smaller than one entry, lane count not equal to the
    /// channel count — the configuration the paper evaluates and this
    /// model supports, non-integer clock ratio, invalid HBM parameters,
    /// reads that do not tile the interleave).
    #[must_use = "the Err explains why this configuration cannot be built"]
    pub fn try_validate(&self) -> Result<(), ConfigError> {
        if self.num_lanes == 0 {
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
        if self.num_lanes != self.mem.num_channels {
            return Err(ConfigError::LaneChannelMismatch {
                lanes: self.num_lanes,
                channels: self.mem.num_channels,
            });
        }
        let ratio = self.clock_ghz / self.mem.clock_ghz;
        if !(ratio.round() >= 1.0 && (ratio - ratio.round()).abs() < 1e-9) {
            return Err(ConfigError::NonIntegerClockRatio { ratio });
        }
        self.try_validate_mem()?;
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

    /// Mirrors [`HbmConfig::validate`]'s assertions as `Result`s so a bad
    /// memory sub-configuration reports instead of panicking.
    fn try_validate_mem(&self) -> Result<(), ConfigError> {
        let m = &self.mem;
        let detail = if m.num_channels == 0 {
            "need at least one channel"
        } else if m.channel_width_bytes == 0 {
            "zero channel width"
        } else if m.clock_ghz <= 0.0 {
            "zero clock"
        } else if m.burst_bytes == 0 {
            "zero burst"
        } else if m.queue_depth == 0 {
            "zero queue depth"
        } else if m.interleave_bytes < m.burst_bytes {
            "interleave must be at least one burst"
        } else if !m.interleave_bytes.is_multiple_of(m.burst_bytes) {
            "interleave must be a multiple of the burst"
        } else if m.row_bytes < m.burst_bytes as u64 {
            "row smaller than burst"
        } else if m.banks_per_channel == 0 {
            "need at least one bank"
        } else if m.banks_per_channel > 64 {
            "bank bitset supports at most 64 banks"
        } else {
            return Ok(());
        };
        Err(ConfigError::InvalidMemConfig { detail })
    }

    /// Validates the configuration.
    ///
    /// Thin panicking wrapper over [`MatRaptorConfig::try_validate`] for
    /// call sites (tests, examples) that want the fail-fast behaviour.
    ///
    /// # Panics
    ///
    /// Panics with the [`ConfigError`] message if any constraint is
    /// violated.
    pub fn validate(&self) {
        if let Err(e) = self.try_validate() {
            // conformance:allow(panic-safety): deliberate fail-fast wrapper; fallible callers use try_validate
            panic!("{e}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper() {
        let cfg = MatRaptorConfig::default();
        cfg.validate();
        assert_eq!(cfg.queues_per_pe, 10);
        assert_eq!(cfg.queue_bytes, 4096);
        assert_eq!(cfg.mem_clock_ratio(), 2);
        assert_eq!(cfg.peak_gops(), 32.0);
    }

    #[test]
    #[should_panic(expected = "binds each lane")]
    fn lane_channel_mismatch_rejected() {
        let cfg = MatRaptorConfig { num_lanes: 4, ..MatRaptorConfig::default() };
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "Q > 2")]
    fn too_few_queues_rejected() {
        let cfg = MatRaptorConfig { queues_per_pe: 2, ..MatRaptorConfig::default() };
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "clock ratio")]
    fn fractional_clock_ratio_rejected() {
        let cfg = MatRaptorConfig { clock_ghz: 1.5, ..MatRaptorConfig::default() };
        cfg.validate();
    }

    #[test]
    fn small_test_config_is_valid() {
        MatRaptorConfig::small_test().validate();
    }

    #[test]
    fn try_validate_reports_structured_errors() {
        assert_eq!(MatRaptorConfig::default().try_validate(), Ok(()));
        let cfg = MatRaptorConfig { num_lanes: 0, ..MatRaptorConfig::default() };
        assert_eq!(cfg.try_validate(), Err(ConfigError::NoLanes));
        let cfg = MatRaptorConfig { num_lanes: 4, ..MatRaptorConfig::default() };
        assert_eq!(
            cfg.try_validate(),
            Err(ConfigError::LaneChannelMismatch { lanes: 4, channels: 8 })
        );
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
