//! Host-CPU ↔ accelerator handshake (Section V).
//!
//! The paper attaches MatRaptor to a RISC-V host as a co-processor: the
//! host uses a custom `mtx` (move-to-accelerator) instruction to program
//! the accelerator's configuration registers, then writes 1 into register
//! `x0` to start it and polls for completion. The model lays its matrices
//! out at one fixed region map (`layout::Regions::DEFAULT`), so
//! the host programs only the two row counts and the start bit; the
//! paper's A/B/C pointer registers are not registers here. This module
//! models that interface so driver-level software (and tests) can
//! exercise the same programming sequence the paper's gem5 + gcc
//! toolchain used.

use matraptor_sparse::Csr;

use crate::accel::{Accelerator, RunOutcome, RunStart};
use crate::checkpoint::Checkpoint;
use crate::error::SimError;
use crate::fault::FaultPlan;
use crate::operands::Operands;

/// One `mtx` message: which register, what value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MtxWrite {
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
/// use matraptor_core::{Accelerator, Driver, MatRaptorConfig, MtxWrite, SliceRun};
/// use matraptor_sparse::gen;
///
/// let a = gen::uniform(32, 32, 160, 1);
/// let accel = Accelerator::new(MatRaptorConfig::small_test());
/// let mut driver = Driver::new(&accel);
/// driver.mtx(MtxWrite::ARows(32));
/// driver.mtx(MtxWrite::BRows(32));
/// driver.mtx(MtxWrite::X0(1));
/// match driver.launch_slice(&a, &a, None, None, u64::MAX).expect("configured") {
///     SliceRun::Completed(outcome) => assert_eq!(outcome.c.rows(), 32),
///     SliceRun::Paused(_) => unreachable!("an unbounded slice drains the run"),
/// }
/// ```
#[derive(Debug)]
pub struct Driver<'a> {
    accel: &'a Accelerator,
    /// Rows of A.
    a_rows: u64,
    /// Rows of B (= columns of A).
    b_rows: u64,
    /// The start/status register, the paper's `x0`: the host writes 1 to
    /// launch, and hardware clears it when a run completes.
    x0: u64,
}

/// Errors the driver reports, either before touching the accelerator or
/// when the accelerator itself terminates a run abnormally.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
#[must_use = "a driver error says how the run terminated; dropping it hides an abnormal termination"]
pub enum DriverError {
    /// `x0` was never written with 1 — the host did not start the run.
    NotStarted,
    /// A dimension register disagrees with the supplied matrix.
    DimensionMismatch {
        /// Which register.
        register: &'static str,
        /// Value the host programmed.
        programmed: u64,
        /// Actual matrix dimension.
        actual: u64,
    },
    /// The accelerator refused the run (operands [`Operands::new`]
    /// refuses, a foreign checkpoint) or terminated it abnormally with a
    /// structured diagnostic instead of an output.
    AcceleratorFault(SimError),
}

impl std::fmt::Display for DriverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DriverError::NotStarted => write!(f, "x0 register not set; accelerator not started"),
            DriverError::DimensionMismatch { register, programmed, actual } => write!(
                f,
                "register {register} programmed with {programmed} but the matrix has {actual}"
            ),
            DriverError::AcceleratorFault(e) => write!(f, "accelerator fault: {e}"),
        }
    }
}

impl std::error::Error for DriverError {}

impl<'a> Driver<'a> {
    /// Creates a driver for an accelerator, with every register at zero.
    pub fn new(accel: &'a Accelerator) -> Self {
        Driver { accel, a_rows: 0, b_rows: 0, x0: 0 }
    }

    /// Executes one `mtx` write.
    pub fn mtx(&mut self, write: MtxWrite) {
        match write {
            MtxWrite::ARows(v) => self.a_rows = v,
            MtxWrite::BRows(v) => self.b_rows = v,
            MtxWrite::X0(v) => self.x0 = v,
        }
    }

    /// Launches the configured run for one bounded slice, as the hardware
    /// would on seeing `x0 == 1`: fresh (arming `plan`) when `from` is
    /// `None`, otherwise resuming the handed-over checkpoint, then run
    /// until the machine drains or reaches accelerator cycle
    /// `until_cycle`, and hand back the outcome or a checkpoint of the
    /// paused machine. The preflight (start bit, row counts, then
    /// [`Operands::new`]) runs on every slice, so a fleet re-dispatching a
    /// checkpoint to a different worker re-programs that worker's
    /// registers, and this is where a mis-programmed hand-off is caught.
    /// The start bit stays set across paused slices — the job is still in
    /// flight from the host's point of view — and hardware clears it when
    /// a slice completes the run. A cycle deadline is a slice whose pause
    /// the caller treats as cancellation.
    ///
    /// # Errors
    ///
    /// [`DriverError::NotStarted`] if `x0` was not set;
    /// [`DriverError::DimensionMismatch`] if the programmed row counts
    /// disagree with the actual matrices — the kind of driver bug this
    /// layer exists to catch; [`DriverError::AcceleratorFault`] if the
    /// accelerator refuses the operands ([`SimError::InvalidOperands`]) or
    /// a foreign checkpoint ([`SimError::CheckpointMismatch`]), or
    /// terminates the run abnormally (deadlock, queue overflow, corrupted
    /// output, ...).
    pub fn launch_slice(
        &mut self,
        a: &Csr<f64>,
        b: &Csr<f64>,
        plan: Option<&FaultPlan>,
        from: Option<&Checkpoint>,
        until_cycle: u64,
    ) -> Result<SliceRun, DriverError> {
        if self.x0 != 1 {
            return Err(DriverError::NotStarted);
        }
        for (register, programmed, actual) in
            [("a_rows", self.a_rows, a.rows()), ("b_rows", self.b_rows, b.rows())]
        {
            if programmed != actual as u64 {
                return Err(DriverError::DimensionMismatch {
                    register,
                    programmed,
                    actual: actual as u64,
                });
            }
        }
        let operands = Operands::new(a, b)
            .map_err(|e| DriverError::AcceleratorFault(SimError::InvalidOperands(e)))?;
        let start = from.map_or(RunStart::Fresh { plan, trace: None }, RunStart::Resume);
        let mut run = self.accel.start(operands, start).map_err(DriverError::AcceleratorFault)?;
        let drained = run.advance(until_cycle).map_err(DriverError::AcceleratorFault)?;
        if !drained {
            return Ok(SliceRun::Paused(Box::new(run.snapshot())));
        }
        let outcome = run.finish().map_err(DriverError::AcceleratorFault)?;
        self.x0 = 0;
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
        assert_eq!(d.x0, 0);
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
    fn malformed_input_is_rejected_before_launch() {
        let a = gen::uniform(16, 16, 60, 3);
        let (rows, cols, ptr, idx, mut vals) =
            (a.rows(), a.cols(), a.row_ptr().to_vec(), a.col_idx().to_vec(), a.values().to_vec());
        vals[0] = f64::NAN;
        // Structure is intact, so `from_parts` accepts it; only the
        // value-level `validate` in `Operands::new` catches the NaN.
        let bad = Csr::from_parts(rows, cols, ptr, idx, vals).expect("structurally valid");
        let accel = Accelerator::new(MatRaptorConfig::small_test());
        let mut d = Driver::new(&accel);
        d.mtx(MtxWrite::ARows(16));
        d.mtx(MtxWrite::BRows(16));
        d.mtx(MtxWrite::X0(1));
        assert!(matches!(
            d.launch_slice(&bad, &a, None, None, u64::MAX),
            Err(DriverError::AcceleratorFault(SimError::InvalidOperands(
                crate::OperandError::Malformed { operand: "A", .. }
            )))
        ));
        // The start bit stays set: the accelerator never ran.
        assert_eq!(d.x0, 1);
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
        assert_eq!(d.x0, 1);
        // A generous budget lets the same job finish normally.
        match d.launch_slice(&a, &a, None, None, u64::MAX).expect("within deadline") {
            SliceRun::Completed(outcome) => {
                assert!(outcome.c.approx_eq(&spgemm::gustavson(&a, &a), 1e-9));
            }
            SliceRun::Paused(ck) => panic!("unbounded launch paused at {}", ck.cycle()),
        }
        assert_eq!(d.x0, 0);
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
        let plan = FaultPlan::sample(FaultKind::ChannelStall, 7, accel.config().num_lanes());
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
        let dim = DriverError::DimensionMismatch { register: "a_rows", programmed: 9, actual: 4 };
        let msg = dim.to_string();
        assert!(msg.contains("a_rows") && msg.contains('9') && msg.contains('4'));
        let fault =
            DriverError::AcceleratorFault(SimError::CycleBudgetExceeded { budget: 10, cycles: 11 });
        assert!(fault.to_string().contains("accelerator fault"));
        // All variants usable as a trait object (the `Box<dyn Error>`
        // plumbing downstream tooling relies on).
        for e in [not_started, dim, fault] {
            let boxed: Box<dyn std::error::Error> = Box::new(e);
            assert!(!boxed.to_string().is_empty());
        }
    }
}
