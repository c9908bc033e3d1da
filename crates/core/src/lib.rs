//! The MatRaptor accelerator model.
//!
//! This crate implements the micro-architecture of Section IV of the paper
//! as a functional *and* cycle-level simulation:
//!
//! * [`SpAl`] — the Sparse Matrix A Loader: streams the rows of *A*
//!   assigned to its lane from its HBM channel (C²SR guarantees the
//!   assignment), forwarding `(a_ik, i, k)` tuples;
//! * [`SpBl`] — the Sparse Matrix B Loader: for each `a_ik`, fetches row
//!   *k* of *B* and forwards `(a_ik · b_kj, i, j)` products;
//! * [`Pe`] — the processing element: one multiplier plus **two sets of Q
//!   sorting queues** implementing the merge of Section IV-A, with Phase I
//!   (merge-on-insert) and Phase II (min-column-id selection + adder tree)
//!   double-buffered so they overlap (Fig. 5b);
//! * a per-lane output writer that appends finished C rows to the lane's
//!   channel in C²SR — no inter-PE synchronisation, the point of the
//!   format;
//! * [`Accelerator`] — the top level: a one-dimensional systolic
//!   arrangement of `N` lanes (SpAL → SpBL → PE) over a shared [`Hbm`],
//!   with round-robin row scheduling.
//!
//! Every run returns both the computed matrix (checked against the
//! Gustavson reference in tests) and a [`MatRaptorStats`] with the
//! busy/merge/memory cycle breakdown (Fig. 9), memory traffic, and
//! achieved throughput (Fig. 7).
//!
//! # Robustness
//!
//! Beyond the happy path, the crate models *faulty* runs:
//!
//! * [`Accelerator::try_run`] is the fallible end-to-end entry point — it
//!   returns [`SimError`] instead of panicking or hanging, with a
//!   structured [`DeadlockDiagnostic`] when the watchdog declares a wedge;
//! * [`Accelerator::start`] is the one run path: a fresh start
//!   (optionally arming a [`FaultPlan`] and recording a [`RunTrace`]) or
//!   a [`Checkpoint`] resume of [`Operands`], checked once when built,
//!   returns a live [`Run`], which a scheduler advances slice by slice,
//!   snapshots only when the job has to leave the machine, and finishes
//!   once it drains;
//!   [`Accelerator::run_to_end`] does `start`, drain and finish in one call;
//! * [`FaultPlan`] describes a deterministic, seeded fault injection
//!   (channel stalls, corrupted or truncated C²SR streams, forced
//!   sorting-queue overflow, dropped writer appends);
//! * [`classify`] maps a faulty run's result to a campaign [`Verdict`]
//!   (survived / detected / escaped);
//! * a paused run returns the full machine state in a versioned,
//!   checksummed [`Checkpoint`] that resumes with **bit-identical** cycle
//!   counts and output values (DESIGN.md §9);
//! * with `abft_verification` enabled, every finished run is self-checked
//!   with ABFT row checksums + Freivalds probes
//!   ([`matraptor_sparse::abft`]), so silent output corruption surfaces
//!   as [`SimError::OutputCorrupted`] with the offending rows.
//!
//! Recovery from a failed run (restart, fewer lanes, host-CPU fallback)
//! belongs to the job service above this crate, not to the [`Driver`].
//!
//! [`Hbm`]: matraptor_mem::Hbm
//! [`Accelerator::try_run`]: accel::Accelerator::try_run

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod accel;
mod checkpoint;
mod config;
mod convert;
mod driver;
mod error;
mod fault;
mod layout;
mod operands;
mod pe;
mod port;
mod queue;
mod spal;
mod spbl;
mod stats;
mod tokens;
mod trace;
mod writer;

pub use accel::{Accelerator, Run, RunOutcome, RunStart};
pub use checkpoint::{Checkpoint, CheckpointError, CHECKPOINT_VERSION};
pub use config::MatRaptorConfig;
pub use convert::{
    conversion_cycles, conversion_cycles_directed, ConversionDirection, ConversionReport,
};
pub use driver::{Driver, DriverError, MtxWrite, SliceRun};
pub use error::{
    ChannelDiagnostic, ConfigError, DeadlockDiagnostic, LaneDiagnostic, MalformedInput,
    OperandError, SimError,
};
pub use fault::{classify, FaultKind, FaultPlan, Verdict};
pub use operands::Operands;
pub use pe::Pe;
pub use spal::SpAl;
pub use spbl::SpBl;
pub use stats::{LaneAttribution, MatRaptorStats};
pub use trace::{ChannelTimeline, ChannelWindow, LaneTimeline, LaneWindow, RunTrace, TraceConfig};
