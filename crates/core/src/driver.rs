//! Host-CPU ↔ accelerator handshake (Section V).
//!
//! The paper attaches MatRaptor to a RISC-V host as a co-processor: the
//! host uses a custom `mtx` (move-to-accelerator) instruction to write
//! the pointers of the A/B/C storage arrays into accelerator
//! configuration registers, then writes 1 into register `x0` to start it
//! and polls for completion. This module models that memory-mapped
//! interface so driver-level software (and tests) can exercise the same
//! programming sequence the paper's gem5 + gcc toolchain used.

use std::ops::Deref;

use matraptor_sparse::{Csr, SparseError};

use crate::accel::{Accelerator, Run, RunOutcome, RunStart};
use crate::checkpoint::Checkpoint;
use crate::error::SimError;
use crate::fault::FaultPlan;
use crate::layout::Regions;

/// Accelerator configuration-register file, as the host sees it.
///
/// Register indices follow the paper's programming sequence: six pointer
/// registers (info/data for each of A, B, C), two dimension registers,
/// and the `x0` start/status register.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ConfigRegisters {
    /// Pointer to A's (row length, row pointer) array.
    pub a_info_ptr: u64,
    /// Pointer to A's (value, col id) channel streams.
    pub a_data_ptr: u64,
    /// Pointer to B's info array.
    pub b_info_ptr: u64,
    /// Pointer to B's data streams.
    pub b_data_ptr: u64,
    /// Pointer to the (empty) output info array.
    pub c_info_ptr: u64,
    /// Pointer to the (empty) output data region.
    pub c_data_ptr: u64,
    /// Rows of A.
    pub a_rows: u64,
    /// Rows of B (= columns of A).
    pub b_rows: u64,
    /// The start/status register: host writes 1 to launch; reads 0 while
    /// running... the paper's `x0`.
    pub x0: u64,
}

impl Default for ConfigRegisters {
    fn default() -> Self {
        let r = Regions::DEFAULT;
        ConfigRegisters {
            a_info_ptr: r.a_info,
            a_data_ptr: r.a_data,
            b_info_ptr: r.b_info,
            b_data_ptr: r.b_data,
            c_info_ptr: r.c_info,
            c_data_ptr: r.c_data,
            a_rows: 0,
            b_rows: 0,
            x0: 0,
        }
    }
}

/// One `mtx` message: which register, what value.
///
/// The accelerator lays its matrices out at the power-on region map
/// only, so a pointer register may be
/// written, but [`Driver::start`] refuses any value other than its
/// power-on one with [`DriverError::UnsupportedRegion`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MtxWrite {
    /// A info pointer; only its power-on value is supported.
    AInfo(u64),
    /// A data pointer; only its power-on value is supported.
    AData(u64),
    /// B info pointer; only its power-on value is supported.
    BInfo(u64),
    /// B data pointer; only its power-on value is supported.
    BData(u64),
    /// C info pointer; only its power-on value is supported.
    CInfo(u64),
    /// C data pointer; only its power-on value is supported.
    CData(u64),
    /// A's row count.
    ARows(u64),
    /// B's row count.
    BRows(u64),
    /// The start register.
    X0(u64),
}

/// How a [`Driver::launch_slice`] ended: the job drained, or it paused at
/// the slice's last cycle with a resumable [`Checkpoint`] — possibly
/// resumed on a *different* worker holding an identically-configured
/// accelerator, which is exactly the fleet re-dispatch path.
#[derive(Debug)]
pub enum SliceRun {
    /// The run drained at or before the pause cycle. Boxed to keep the
    /// enum near pointer size next to the slim `Paused` payload.
    Completed(Box<RunOutcome>),
    /// The run paused; resume it with [`RunStart::Resume`].
    Paused(Box<Checkpoint>),
}

/// The host-side driver: accumulates `mtx` writes and launches the
/// accelerator when `x0` is set, exactly mirroring the paper's sequence.
///
/// # Example
///
/// ```rust
/// use matraptor_core::{Accelerator, Driver, MatRaptorConfig, MtxWrite};
/// use matraptor_sparse::gen;
///
/// let a = gen::uniform(32, 32, 160, 1);
/// let accel = Accelerator::new(MatRaptorConfig::small_test());
/// let mut driver = Driver::new(&accel);
/// driver.mtx(MtxWrite::ARows(32));
/// driver.mtx(MtxWrite::BRows(32));
/// driver.mtx(MtxWrite::X0(1));
/// let mut run = driver.start(&a, &a, None, None).expect("configured");
/// assert!(run.advance(u64::MAX).expect("no fault"), "an unbounded advance drains the run");
/// let outcome = run.finish().expect("output passes its integrity checks");
/// assert_eq!(outcome.c.rows(), 32);
/// ```
#[derive(Debug)]
pub struct Driver<'a> {
    accel: &'a Accelerator,
    regs: ConfigRegisters,
}

/// Errors the driver reports, either before touching the accelerator or
/// when the accelerator itself terminates a run abnormally.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
#[must_use = "a driver error says how the run terminated; dropping it hides an abnormal termination"]
pub enum DriverError {
    /// `x0` was never written with 1 — the host did not start the run.
    NotStarted,
    /// A pointer register holds another region than the power-on one, the
    /// only region map the accelerator lays its matrices out at.
    UnsupportedRegion {
        /// Which register.
        register: &'static str,
        /// Value the host programmed.
        programmed: u64,
        /// The register's power-on value, the only one supported.
        supported: u64,
    },
    /// A dimension register disagrees with the supplied matrix.
    DimensionMismatch {
        /// Which register.
        register: &'static str,
        /// Value the host programmed.
        programmed: u64,
        /// Actual matrix dimension.
        actual: u64,
    },
    /// An input matrix failed structural validation (non-monotone
    /// pointers, out-of-range column ids, non-finite values) before the
    /// accelerator was started.
    InvalidInput(SparseError),
    /// The accelerator declared a fault mid-run and terminated with a
    /// structured diagnostic instead of an output.
    AcceleratorFault(SimError),
}

impl std::fmt::Display for DriverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DriverError::NotStarted => write!(f, "x0 register not set; accelerator not started"),
            DriverError::UnsupportedRegion { register, programmed, supported } => write!(
                f,
                "register {register} programmed with {programmed:#x} but only its power-on \
                 region {supported:#x} is supported"
            ),
            DriverError::DimensionMismatch { register, programmed, actual } => write!(
                f,
                "register {register} programmed with {programmed} but the matrix has {actual}"
            ),
            DriverError::InvalidInput(e) => write!(f, "input matrix rejected: {e}"),
            DriverError::AcceleratorFault(e) => write!(f, "accelerator fault: {e}"),
        }
    }
}

impl std::error::Error for DriverError {}

impl<'a> Driver<'a> {
    /// Creates a driver for an accelerator, with registers at their
    /// power-on defaults (the standard region map).
    pub fn new(accel: &'a Accelerator) -> Self {
        Driver { accel, regs: ConfigRegisters::default() }
    }

    /// Executes one `mtx` write.
    pub fn mtx(&mut self, write: MtxWrite) {
        match write {
            MtxWrite::AInfo(v) => self.regs.a_info_ptr = v,
            MtxWrite::AData(v) => self.regs.a_data_ptr = v,
            MtxWrite::BInfo(v) => self.regs.b_info_ptr = v,
            MtxWrite::BData(v) => self.regs.b_data_ptr = v,
            MtxWrite::CInfo(v) => self.regs.c_info_ptr = v,
            MtxWrite::CData(v) => self.regs.c_data_ptr = v,
            MtxWrite::ARows(v) => self.regs.a_rows = v,
            MtxWrite::BRows(v) => self.regs.b_rows = v,
            MtxWrite::X0(v) => self.regs.x0 = v,
        }
    }

    /// Starts the configured run, as the hardware would on seeing
    /// `x0 == 1`, and hands back the live [`Run`]: fresh (arming `plan`)
    /// when `from` is `None`, otherwise resuming the handed-over
    /// checkpoint. The preflight (start bit, dimension registers, input
    /// structure) runs once here, however many slices the run is then
    /// advanced in; a fleet re-dispatching a checkpoint to a different
    /// worker re-programs that worker's registers and starts again, and
    /// this is where a mis-programmed hand-off is caught.
    ///
    /// # Errors
    ///
    /// [`DriverError::NotStarted`] if `x0` was not set;
    /// [`DriverError::UnsupportedRegion`] if a pointer register holds
    /// another region than its power-on one;
    /// [`DriverError::DimensionMismatch`] if the programmed dimension
    /// registers disagree with the actual matrices — the kind of driver
    /// bug this layer exists to catch;
    /// [`DriverError::InvalidInput`] if either matrix fails structural
    /// validation; [`DriverError::AcceleratorFault`] if the accelerator
    /// refuses the operands or a foreign checkpoint
    /// ([`SimError::CheckpointMismatch`]).
    pub fn start<M: Deref<Target = Csr<f64>>>(
        &self,
        a: M,
        b: M,
        plan: Option<&FaultPlan>,
        from: Option<&Checkpoint>,
    ) -> Result<Run<M>, DriverError> {
        if self.regs.x0 != 1 {
            return Err(DriverError::NotStarted);
        }
        let (regs, supported) = (&self.regs, ConfigRegisters::default());
        let pointers = [
            ("a_info_ptr", regs.a_info_ptr, supported.a_info_ptr),
            ("a_data_ptr", regs.a_data_ptr, supported.a_data_ptr),
            ("b_info_ptr", regs.b_info_ptr, supported.b_info_ptr),
            ("b_data_ptr", regs.b_data_ptr, supported.b_data_ptr),
            ("c_info_ptr", regs.c_info_ptr, supported.c_info_ptr),
            ("c_data_ptr", regs.c_data_ptr, supported.c_data_ptr),
        ];
        if let Some(&(register, programmed, supported)) =
            pointers.iter().find(|&&(_, programmed, supported)| programmed != supported)
        {
            return Err(DriverError::UnsupportedRegion { register, programmed, supported });
        }
        if self.regs.a_rows != a.rows() as u64 {
            return Err(DriverError::DimensionMismatch {
                register: "a_rows",
                programmed: self.regs.a_rows,
                actual: a.rows() as u64,
            });
        }
        if self.regs.b_rows != b.rows() as u64 {
            return Err(DriverError::DimensionMismatch {
                register: "b_rows",
                programmed: self.regs.b_rows,
                actual: b.rows() as u64,
            });
        }
        a.validate().map_err(DriverError::InvalidInput)?;
        b.validate().map_err(DriverError::InvalidInput)?;
        let start = from.map_or(RunStart::Fresh { plan, trace: None }, RunStart::Resume);
        self.accel.start(a, b, start).map_err(DriverError::AcceleratorFault)
    }

    /// Launches the configured run for one bounded slice:
    /// [`Driver::start`], then run until the machine drains or reaches
    /// accelerator cycle `until_cycle`, and hand back the outcome or a
    /// checkpoint of the paused machine. The start bit stays set across
    /// paused slices — the job is still in flight from the host's point of
    /// view — and hardware clears it when a slice completes the run. A
    /// cycle deadline is a slice whose pause the caller treats as
    /// cancellation.
    ///
    /// # Errors
    ///
    /// Everything [`Driver::start`] reports, and
    /// [`DriverError::AcceleratorFault`] if the accelerator terminates the
    /// run abnormally (deadlock, queue overflow, corrupted output, ...).
    pub fn launch_slice(
        &mut self,
        a: &Csr<f64>,
        b: &Csr<f64>,
        plan: Option<&FaultPlan>,
        from: Option<&Checkpoint>,
        until_cycle: u64,
    ) -> Result<SliceRun, DriverError> {
        let mut run = self.start(a, b, plan, from)?;
        let drained = run.advance(until_cycle).map_err(DriverError::AcceleratorFault)?;
        if !drained {
            return Ok(SliceRun::Paused(Box::new(run.snapshot())));
        }
        let outcome = run.finish().map_err(DriverError::AcceleratorFault)?;
        self.regs.x0 = 0;
        Ok(SliceRun::Completed(Box::new(outcome)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MatRaptorConfig;
    use matraptor_sparse::{gen, spgemm};

    #[test]
    fn full_programming_sequence() {
        let a = gen::uniform(24, 24, 120, 2);
        let accel = Accelerator::new(MatRaptorConfig::small_test());
        let mut d = Driver::new(&accel);
        d.mtx(MtxWrite::ARows(24));
        d.mtx(MtxWrite::BRows(24));
        d.mtx(MtxWrite::X0(1));
        let outcome = match d.launch_slice(&a, &a, None, None, u64::MAX).expect("launch") {
            SliceRun::Completed(outcome) => outcome,
            SliceRun::Paused(ck) => panic!("unbounded launch paused at {}", ck.cycle()),
        };
        assert!(outcome.c.approx_eq(&spgemm::gustavson(&a, &a), 1e-9));
        // Hardware clears x0 on completion; relaunching needs a new start.
        assert_eq!(d.regs.x0, 0);
        assert!(matches!(
            d.launch_slice(&a, &a, None, None, u64::MAX),
            Err(DriverError::NotStarted)
        ));
    }

    #[test]
    fn dimension_mismatch_is_caught() {
        let a = gen::uniform(16, 16, 60, 3);
        let accel = Accelerator::new(MatRaptorConfig::small_test());
        let mut d = Driver::new(&accel);
        d.mtx(MtxWrite::ARows(99));
        d.mtx(MtxWrite::BRows(16));
        d.mtx(MtxWrite::X0(1));
        assert!(matches!(
            d.launch_slice(&a, &a, None, None, u64::MAX),
            Err(DriverError::DimensionMismatch { register: "a_rows", .. })
        ));
    }

    #[test]
    fn a_moved_region_is_refused_naming_its_register() {
        let a = gen::uniform(16, 16, 60, 3);
        let accel = Accelerator::new(MatRaptorConfig::small_test());
        let started = |write: MtxWrite| {
            let mut d = Driver::new(&accel);
            d.mtx(MtxWrite::ARows(16));
            d.mtx(MtxWrite::BRows(16));
            d.mtx(MtxWrite::X0(1));
            d.mtx(write);
            d.launch_slice(&a, &a, None, None, u64::MAX)
        };
        let moved = 0x7000_0000;
        for (write, name) in [
            (MtxWrite::AInfo(moved), "a_info_ptr"),
            (MtxWrite::AData(moved), "a_data_ptr"),
            (MtxWrite::BInfo(moved), "b_info_ptr"),
            (MtxWrite::BData(moved), "b_data_ptr"),
            (MtxWrite::CInfo(moved), "c_info_ptr"),
            (MtxWrite::CData(moved), "c_data_ptr"),
        ] {
            match started(write) {
                Err(DriverError::UnsupportedRegion { register, programmed, .. }) => {
                    assert_eq!((register, programmed), (name, moved));
                }
                other => panic!("{name}: expected UnsupportedRegion, got {other:?}"),
            }
        }
        // Writing a pointer's power-on value is accepted.
        let power_on = ConfigRegisters::default();
        assert!(started(MtxWrite::CData(power_on.c_data_ptr)).is_ok());
    }

    #[test]
    fn malformed_input_is_rejected_before_launch() {
        let a = gen::uniform(16, 16, 60, 3);
        let (rows, cols, ptr, idx, mut vals) =
            (a.rows(), a.cols(), a.row_ptr().to_vec(), a.col_idx().to_vec(), a.values().to_vec());
        vals[0] = f64::NAN;
        // Structure is intact, so `from_parts` accepts it; only the
        // value-level `validate` in the driver preflight catches the NaN.
        let bad = Csr::from_parts(rows, cols, ptr, idx, vals).expect("structurally valid");
        let accel = Accelerator::new(MatRaptorConfig::small_test());
        let mut d = Driver::new(&accel);
        d.mtx(MtxWrite::ARows(16));
        d.mtx(MtxWrite::BRows(16));
        d.mtx(MtxWrite::X0(1));
        assert!(matches!(
            d.launch_slice(&bad, &a, None, None, u64::MAX),
            Err(DriverError::InvalidInput(_))
        ));
        // The start bit stays set: the accelerator never ran.
        assert_eq!(d.regs.x0, 1);
    }

    #[test]
    fn deadline_launch_cancels_slow_jobs_and_passes_fast_ones() {
        let a = gen::uniform(32, 32, 200, 4);
        let accel = Accelerator::new(MatRaptorConfig::small_test());
        let mut d = Driver::new(&accel);
        d.mtx(MtxWrite::ARows(32));
        d.mtx(MtxWrite::BRows(32));
        d.mtx(MtxWrite::X0(1));
        // A 100-cycle budget cannot cover the product: paused exactly at
        // the deadline, which the caller treats as cancellation.
        match d.launch_slice(&a, &a, None, None, 100) {
            Ok(SliceRun::Paused(ck)) => assert_eq!(ck.cycle(), 100),
            other => panic!("expected deadline cancellation, got {other:?}"),
        }
        // The start bit stays set — the job never completed.
        assert_eq!(d.regs.x0, 1);
        // A generous budget lets the same job finish normally.
        match d.launch_slice(&a, &a, None, None, u64::MAX).expect("within deadline") {
            SliceRun::Completed(outcome) => {
                assert!(outcome.c.approx_eq(&spgemm::gustavson(&a, &a), 1e-9));
            }
            SliceRun::Paused(ck) => panic!("unbounded launch paused at {}", ck.cycle()),
        }
        assert_eq!(d.regs.x0, 0);
    }

    #[test]
    fn deadline_launch_still_reports_faults_before_the_deadline() {
        use crate::fault::{FaultKind, FaultPlan};
        let mut cfg = MatRaptorConfig::small_test();
        cfg.watchdog_window = 2_000;
        let a = gen::uniform(32, 32, 200, 5);
        let accel = Accelerator::new(cfg);
        let mut d = Driver::new(&accel);
        d.mtx(MtxWrite::ARows(32));
        d.mtx(MtxWrite::BRows(32));
        d.mtx(MtxWrite::X0(1));
        let plan = FaultPlan::sample(FaultKind::ChannelStall, 7, accel.config().num_lanes);
        // Watchdog (2k window) fires long before the generous deadline, so
        // the fault wins and is reported as a fault, not a cancellation.
        match d.launch_slice(&a, &a, Some(&plan), None, u64::MAX) {
            Err(DriverError::AcceleratorFault(SimError::Deadlock(_))) => {}
            other => panic!("expected deadlock fault, got {other:?}"),
        }
    }

    #[test]
    fn driver_error_display_and_error_trait() {
        let not_started = DriverError::NotStarted;
        assert!(not_started.to_string().contains("x0"));
        let region =
            DriverError::UnsupportedRegion { register: "c_data_ptr", programmed: 7, supported: 9 };
        assert!(region.to_string().contains("c_data_ptr"));
        let dim = DriverError::DimensionMismatch { register: "a_rows", programmed: 9, actual: 4 };
        let msg = dim.to_string();
        assert!(msg.contains("a_rows") && msg.contains('9') && msg.contains('4'));
        let fault =
            DriverError::AcceleratorFault(SimError::CycleBudgetExceeded { budget: 10, cycles: 11 });
        assert!(fault.to_string().contains("accelerator fault"));
        let invalid = DriverError::InvalidInput(SparseError::NonFiniteValue { row: 0, col: 1 });
        assert!(invalid.to_string().contains("rejected"));
        // All variants usable as a trait object (the `Box<dyn Error>`
        // plumbing downstream tooling relies on).
        for e in [not_started, region, dim, fault, invalid] {
            let boxed: Box<dyn std::error::Error> = Box::new(e);
            assert!(!boxed.to_string().is_empty());
        }
    }

    #[test]
    fn registers_power_on_to_the_region_map() {
        let accel = Accelerator::new(MatRaptorConfig::small_test());
        let d = Driver::new(&accel);
        let r = d.regs;
        assert_eq!(r.a_data_ptr, 0x1000_0000);
        assert_eq!(r.c_data_ptr, 0x5000_0000);
        assert_eq!(r.x0, 0);
    }
}
