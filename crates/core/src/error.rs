//! Structured errors for the fallible end-to-end run path.
//!
//! The seed simulator reported every failure the same way: a panic. That
//! is fine for model bugs but useless for the two things a robustness
//! harness needs — *campaign automation* (a fault sweep must observe
//! thousands of failures without dying) and *diagnosis* (a wedged run
//! should say which lane stopped and what it was holding, not just trip a
//! cycle budget). [`SimError`] is the structured alternative returned by
//! `Accelerator::try_run`; [`ConfigError`] is its counterpart for
//! `MatRaptorConfig::try_validate`.
//!
//! Every field in [`SimError`] and its diagnostics is integral so the
//! whole tree stays `Eq` — fault-campaign regression tests compare entire
//! error values across runs, and `DriverError` (which embeds `SimError`)
//! must keep its `Eq` derive.

use std::error::Error;
use std::fmt;

use matraptor_sim::codec::Mismatch;
use matraptor_sparse::SparseError;

/// Why a simulated run could not produce a result.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
#[must_use = "a sim error carries the failure diagnosis; dropping it hides a failed run"]
pub enum SimError {
    /// No pipeline component made forward progress for a full watchdog
    /// window: the machine is wedged. Carries the full per-lane and
    /// per-channel occupancy snapshot taken when the wedge was declared.
    Deadlock(DeadlockDiagnostic),
    /// The operands were refused before the run started
    /// ([`crate::Operands::new`]).
    InvalidOperands(OperandError),
    /// An input stream was caught malformed in flight at the SpBL
    /// boundary (a column id outside B's row space, as a corrupted C²SR
    /// stream would produce).
    MalformedInput(MalformedInput),
    /// A row overflowed the sorting queues while the CPU-fallback path was
    /// unavailable, so the row could not be completed.
    QueueOverflow {
        /// Lane whose PE overflowed.
        lane: usize,
        /// Output row that could not be completed.
        row: u32,
    },
    /// The simulation exceeded its cycle budget without draining and
    /// without the watchdog firing (e.g. watchdog disabled, or livelock —
    /// tokens moving but the machine not converging).
    CycleBudgetExceeded {
        /// The budget that tripped.
        budget: u64,
        /// Accelerator cycles executed.
        cycles: u64,
    },
    /// The run completed but its output failed an integrity check: the
    /// C²SR invariants, the ABFT row-checksum verification, or the
    /// cross-check against the software Gustavson reference. This is how
    /// silent data corruption (dropped writer appends, in-range stream
    /// corruption) surfaces.
    OutputCorrupted {
        /// Which integrity check failed.
        detail: &'static str,
        /// Output rows implicated by the check, when it can localise the
        /// damage (the ABFT row checksums can; the structural C²SR check
        /// and the whole-matrix reference comparison report an empty set).
        rows: Vec<u32>,
    },
    /// A checkpoint was presented for resumption against a different
    /// configuration or different operand matrices than the run that
    /// produced it, or its payload does not fit the machine it was read
    /// into (a count or capacity that differs from the configuration, an
    /// invalid tag, routes that disagree with the units, bytes left over).
    CheckpointMismatch {
        /// What disagreed.
        detail: &'static str,
    },
    /// An internal interconnect invariant was violated mid-run — e.g. the
    /// HBM delivered a response for a request id no lane issued. This is a
    /// model bug (or injected memory corruption), not an input problem;
    /// the run terminates with this structured error instead of panicking
    /// so multi-job services above the driver can keep serving.
    ProtocolViolation {
        /// Which invariant broke.
        detail: &'static str,
    },
}

/// Why an operand pair was refused: the one check every run starts
/// behind ([`crate::Operands::new`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OperandError {
    /// `a.cols() != b.rows()`.
    InnerDimensionMismatch {
        /// Columns of A.
        a_cols: usize,
        /// Rows of B.
        b_rows: usize,
    },
    /// One operand failed [`Csr::validate`](matraptor_sparse::Csr::validate):
    /// a broken structure or a non-finite value.
    Malformed {
        /// `"A"` or `"B"`.
        operand: &'static str,
        /// What the validation found.
        error: SparseError,
    },
}

/// A malformed input stream caught in flight.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum MalformedInput {
    /// An A-stream entry referenced a B row that does not exist. Detected
    /// by SpBL's bounds check before the bogus row info fetch is issued.
    ColumnOutOfRange {
        /// Lane whose SpBL caught the entry.
        lane: usize,
        /// The offending column id.
        col: u32,
        /// Exclusive bound (B's row count).
        bound: u32,
    },
}

/// Snapshot of the whole machine at the moment a wedge was declared —
/// the payload of [`SimError::Deadlock`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeadlockDiagnostic {
    /// Accelerator cycle at which the watchdog fired.
    pub declared_at: u64,
    /// The configured no-progress window.
    pub window: u64,
    /// Last accelerator cycle *any* component made progress.
    pub last_progress: u64,
    /// Per-lane pipeline occupancy, one entry per lane.
    pub lanes: Vec<LaneDiagnostic>,
    /// Per-channel memory queue depths, one entry per HBM channel.
    pub channels: Vec<ChannelDiagnostic>,
}

/// One lane's pipeline occupancy inside a [`DeadlockDiagnostic`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LaneDiagnostic {
    /// Lane index.
    pub lane: usize,
    /// Last accelerator cycle this lane's signature changed.
    pub last_progress: u64,
    /// SpAL requests in flight.
    pub spal_in_flight: usize,
    /// Tokens decoded by SpAL but not yet forwarded.
    pub spal_staging: usize,
    /// A rows this lane has not finished streaming.
    pub spal_rows_remaining: usize,
    /// SpBL jobs accepted but not fully drained.
    pub spbl_jobs: usize,
    /// SpBL requests in flight.
    pub spbl_in_flight: usize,
    /// Product tokens staged inside SpBL.
    pub spbl_staging: usize,
    /// A tokens queued in the SpAL → SpBL coupling FIFO.
    pub coupling_a_tokens: usize,
    /// Product tokens queued in the SpBL → PE coupling FIFO.
    pub coupling_products: usize,
    /// Whether the PE holds an unfinished vector, Phase II drain, or
    /// overflow-skip state.
    pub pe_active: bool,
    /// Write bursts accepted by the writer but not yet by the HBM.
    pub writer_queued: usize,
    /// Writer write requests awaiting acknowledgement.
    pub writer_pending: usize,
}

/// One channel's state inside a [`DeadlockDiagnostic`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChannelDiagnostic {
    /// Channel index.
    pub channel: usize,
    /// Fragments queued and unserviced on the channel.
    pub queue_depth: usize,
}

impl DeadlockDiagnostic {
    /// Lanes that still hold work — usually the ones pointing at the
    /// fault (e.g. every lane with in-flight requests on a dead channel).
    pub fn stuck_lanes(&self) -> Vec<usize> {
        self.lanes
            .iter()
            .filter(|l| {
                l.spal_in_flight > 0
                    || l.spbl_in_flight > 0
                    || l.writer_pending > 0
                    || l.writer_queued > 0
                    || l.pe_active
                    || l.coupling_a_tokens > 0
                    || l.coupling_products > 0
            })
            .map(|l| l.lane)
            .collect()
    }
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Deadlock(d) => write!(
                f,
                "no forward progress for {} cycles (declared at cycle {}, last progress at {}); \
                 stuck lanes: {:?}",
                d.window,
                d.declared_at,
                d.last_progress,
                d.stuck_lanes()
            ),
            SimError::InvalidOperands(e) => write!(f, "operands refused: {e}"),
            SimError::MalformedInput(m) => write!(f, "malformed input: {m}"),
            SimError::QueueOverflow { lane, row } => write!(
                f,
                "sorting-queue overflow on lane {lane} row {row} with CPU fallback unavailable"
            ),
            SimError::CycleBudgetExceeded { budget, cycles } => {
                write!(f, "simulation did not drain within its budget of {budget} cycles ({cycles} executed)")
            }
            SimError::OutputCorrupted { detail, rows } => {
                if rows.is_empty() {
                    write!(f, "output corrupted: {detail}")
                } else {
                    write!(f, "output corrupted: {detail} (rows {rows:?})")
                }
            }
            SimError::CheckpointMismatch { detail } => {
                write!(f, "checkpoint does not match this run: {detail}")
            }
            SimError::ProtocolViolation { detail } => {
                write!(f, "internal protocol violation: {detail}")
            }
        }
    }
}

impl fmt::Display for OperandError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OperandError::InnerDimensionMismatch { a_cols, b_rows } => {
                write!(f, "inner dimensions disagree: A has {a_cols} columns, B has {b_rows} rows")
            }
            OperandError::Malformed { operand, error } => write!(f, "matrix {operand}: {error}"),
        }
    }
}

impl fmt::Display for MalformedInput {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MalformedInput::ColumnOutOfRange { lane, col, bound } => {
                write!(f, "lane {lane} received column id {col} outside B's {bound} rows")
            }
        }
    }
}

impl Error for SimError {}

impl From<Mismatch> for SimError {
    fn from(Mismatch(detail): Mismatch) -> Self {
        SimError::CheckpointMismatch { detail }
    }
}

/// Why a [`crate::MatRaptorConfig`] is not usable.
///
/// Unlike [`SimError`] this may carry `f64` fields (the clock ratio), so
/// it is `PartialEq` only and deliberately *not* embedded in `DriverError`.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum ConfigError {
    /// `mem.num_channels == 0`: no lanes, as there is one per channel.
    NoLanes,
    /// Fewer than 3 sorting queues (need Q−1 primaries plus one helper).
    TooFewQueues {
        /// The configured queue count.
        queues: usize,
    },
    /// `entry_bytes == 0`.
    ZeroEntryBytes,
    /// A queue cannot hold even one entry.
    QueueTooSmall {
        /// Configured queue size in bytes.
        queue_bytes: usize,
        /// Configured entry size in bytes.
        entry_bytes: usize,
    },
    /// `outstanding_requests == 0`.
    ZeroOutstandingRequests,
    /// `coupling_fifo_depth == 0`.
    ZeroCouplingFifo,
    /// The accelerator/memory clock ratio is not a positive integer.
    NonIntegerClockRatio {
        /// The offending ratio.
        ratio: f64,
    },
    /// The HBM sub-configuration is invalid.
    InvalidMemConfig {
        /// Which constraint failed.
        detail: &'static str,
    },
    /// Streaming reads do not tile the channel interleave: the request
    /// width must be a non-zero multiple of the entry size that divides
    /// the interleave, and so must the 8 B row-info pair, or a
    /// channel-local row stream would reach into another channel.
    UntiledReads {
        /// Configured `read_request_bytes`.
        request_bytes: u32,
        /// Configured `entry_bytes`.
        entry_bytes: usize,
        /// Configured `mem.interleave_bytes`.
        interleave_bytes: u32,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::NoLanes => write!(f, "need at least one lane"),
            ConfigError::TooFewQueues { queues } => {
                write!(f, "need Q > 2 sorting queues (Q-1 primaries + helper), got {queues}")
            }
            ConfigError::ZeroEntryBytes => write!(f, "zero entry size"),
            ConfigError::QueueTooSmall { queue_bytes, entry_bytes } => {
                write!(f, "queue of {queue_bytes} B is smaller than one {entry_bytes} B entry")
            }
            ConfigError::ZeroOutstandingRequests => write!(f, "zero outstanding requests"),
            ConfigError::ZeroCouplingFifo => write!(f, "zero coupling FIFO depth"),
            ConfigError::NonIntegerClockRatio { ratio } => {
                write!(f, "accelerator/memory clock ratio must be a positive integer, got {ratio}")
            }
            ConfigError::InvalidMemConfig { detail } => {
                write!(f, "invalid memory configuration: {detail}")
            }
            ConfigError::UntiledReads { request_bytes, entry_bytes, interleave_bytes } => write!(
                f,
                "{request_bytes} B read requests must be a non-zero multiple of the \
                 {entry_bytes} B entry that divides the {interleave_bytes} B interleave, \
                 as the 8 B row-info pair must"
            ),
        }
    }
}

impl Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_diag() -> DeadlockDiagnostic {
        DeadlockDiagnostic {
            declared_at: 120,
            window: 100,
            last_progress: 19,
            lanes: vec![
                LaneDiagnostic {
                    lane: 0,
                    last_progress: 19,
                    spal_in_flight: 3,
                    spal_staging: 0,
                    spal_rows_remaining: 5,
                    spbl_jobs: 2,
                    spbl_in_flight: 1,
                    spbl_staging: 0,
                    coupling_a_tokens: 4,
                    coupling_products: 0,
                    pe_active: false,
                    writer_queued: 0,
                    writer_pending: 0,
                },
                LaneDiagnostic {
                    lane: 1,
                    last_progress: 12,
                    spal_in_flight: 0,
                    spal_staging: 0,
                    spal_rows_remaining: 0,
                    spbl_jobs: 0,
                    spbl_in_flight: 0,
                    spbl_staging: 0,
                    coupling_a_tokens: 0,
                    coupling_products: 0,
                    pe_active: false,
                    writer_queued: 0,
                    writer_pending: 0,
                },
            ],
            channels: vec![ChannelDiagnostic { channel: 0, queue_depth: 7 }],
        }
    }

    #[test]
    fn stuck_lanes_reports_only_occupied_lanes() {
        assert_eq!(sample_diag().stuck_lanes(), vec![0]);
    }

    #[test]
    fn sim_error_is_eq_and_displayable() {
        fn assert_eq_impl<T: Eq>() {}
        assert_eq_impl::<SimError>();
        let e = SimError::Deadlock(sample_diag());
        let msg = e.to_string();
        assert!(msg.contains("no forward progress for 100 cycles"));
        assert!(msg.contains("[0]"), "stuck lane list should appear: {msg}");
        assert_eq!(e, e.clone());
    }

    #[test]
    fn malformed_input_display_names_the_site() {
        let e = SimError::MalformedInput(MalformedInput::ColumnOutOfRange {
            lane: 3,
            col: 900,
            bound: 64,
        });
        let msg = e.to_string();
        assert!(msg.contains("lane 3") && msg.contains("900") && msg.contains("64"));
    }

    #[test]
    fn config_error_messages_match_the_legacy_assertions() {
        // `MatRaptorConfig::validate` panics with these Displays; existing
        // should_panic tests key on the quoted substrings.
        assert!(ConfigError::TooFewQueues { queues: 2 }.to_string().contains("Q > 2"));
        assert!(ConfigError::NonIntegerClockRatio { ratio: 1.5 }
            .to_string()
            .contains("clock ratio"));
    }

    #[test]
    fn protocol_violation_displays_the_detail() {
        let e = SimError::ProtocolViolation { detail: "HBM response for an unissued request id" };
        assert!(e.to_string().contains("protocol violation"));
        assert!(e.to_string().contains("unissued request id"));
    }

    #[test]
    fn errors_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SimError>();
        assert_send_sync::<ConfigError>();
    }
}
