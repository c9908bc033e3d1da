//! Baseline SpGEMM performance/energy models: CPU (MKL-like), GPU
//! (cuSPARSE-like), and the OuterSPACE accelerator.
//!
//! The paper measures Intel MKL on a Xeon E5-2699 v4, cuSPARSE on a Titan
//! Xp, and uses OuterSPACE numbers obtained from its authors. None of
//! those can run here, so each baseline is an *analytic model*: an actual
//! workload characterisation (flops, footprints, output size — computed by
//! really running the reference kernels) pushed through a platform model
//! (bandwidths, per-op costs, cache capacities, power). The constants are
//! calibrated so the *relative* standings match the paper's reported
//! geomeans; every constant is documented at its definition.
//!
//! All models support the paper's **bandwidth normalisation** (Section
//! V-B): CPU/GPU results are optionally rescaled as if their memory
//! system had MatRaptor's 128 GB/s.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod cpu;
mod gpu;
mod outerspace;
mod workload;

pub use cpu::CpuModel;
pub use gpu::GpuModel;
pub use outerspace::OuterSpaceModel;
pub use workload::Workload;

/// Whether to rescale a baseline's memory system to MatRaptor's 128 GB/s
/// (the paper's `-BW` variants).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BandwidthNorm {
    /// Use the platform's native peak bandwidth.
    Native,
    /// Normalise the platform's peak bandwidth to 128 GB/s.
    Normalized,
}

/// The reference bandwidth used by [`BandwidthNorm::Normalized`] (HBM,
/// GB/s).
pub const NORMALIZED_BANDWIDTH_GBS: f64 = 128.0;

/// Result of evaluating a baseline model on one workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModeledRun {
    /// Modelled wall-clock seconds.
    pub time_s: f64,
    /// Modelled energy in joules (compute + DRAM).
    pub energy_j: f64,
    /// Modelled DRAM traffic in bytes.
    pub dram_bytes: u64,
}
