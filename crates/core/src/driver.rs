//! Host-CPU ↔ accelerator handshake (Section V).
//!
//! The paper attaches MatRaptor to a RISC-V host as a co-processor: the
//! host uses a custom `mtx` (move-to-accelerator) instruction to write
//! the pointers of the A/B/C storage arrays into accelerator
//! configuration registers, then writes 1 into register `x0` to start it
//! and polls for completion. This module models that memory-mapped
//! interface so driver-level software (and tests) can exercise the same
//! programming sequence the paper's gem5 + gcc toolchain used.

use matraptor_mem::HbmConfig;
use matraptor_sim::stats::CycleBreakdown;
use matraptor_sparse::{spgemm, C2sr, Csr, SparseError};

use crate::accel::{Accelerator, FailedRun, RunOutcome, RunRequest, RunStart, SliceRun};
use crate::checkpoint::Checkpoint;
use crate::error::SimError;
use crate::fault::FaultPlan;
use crate::layout::Regions;
use crate::stats::MatRaptorStats;

/// Accelerator configuration-register file, as the host sees it.
///
/// Register indices follow the paper's programming sequence: six pointer
/// registers (info/data for each of A, B, C), two dimension registers,
/// and the `x0` start/status register.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConfigRegisters {
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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MtxWrite {
    /// Write a pointer register.
    AInfo(u64),
    /// A data pointer.
    AData(u64),
    /// B info pointer.
    BInfo(u64),
    /// B data pointer.
    BData(u64),
    /// C info pointer.
    CInfo(u64),
    /// C data pointer.
    CData(u64),
    /// A's row count.
    ARows(u64),
    /// B's row count.
    BRows(u64),
    /// The start register.
    X0(u64),
}

/// The host-side driver: accumulates `mtx` writes and launches the
/// accelerator when `x0` is set, exactly mirroring the paper's sequence.
///
/// # Example
///
/// ```rust
/// use matraptor_core::{Accelerator, Driver, MatRaptorConfig, MtxWrite, RecoveryPolicy};
/// use matraptor_sparse::gen;
///
/// let a = gen::uniform(32, 32, 160, 1);
/// let accel = Accelerator::new(MatRaptorConfig::small_test());
/// let mut driver = Driver::new(&accel);
/// driver.mtx(MtxWrite::ARows(32));
/// driver.mtx(MtxWrite::BRows(32));
/// driver.mtx(MtxWrite::X0(1));
/// let (outcome, report) =
///     driver.launch_with_policy(&a, &a, None, &RecoveryPolicy::default()).expect("configured");
/// assert_eq!(outcome.c.rows(), 32);
/// assert_eq!(report.attempts, 1);
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

/// How the driver retries a failed run (the recovery-policy ladder).
///
/// The ladder, top to bottom: the full machine first; if a *transient*
/// fault (deadlock or budget exhaustion) killed it and a checkpoint
/// exists, resume that checkpoint with fault state disarmed; otherwise
/// rebuild progressively smaller machines (half the lanes, then one
/// lane); and as the rung of last resort, compute the product in host
/// software. [`DriverError::AcceleratorFault`] is only returned once the
/// ladder is exhausted or the fault is one no configuration can outrun
/// (malformed input).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryPolicy {
    /// Total attempts allowed, including the initial full-configuration
    /// run. `1` disables recovery entirely.
    pub max_attempts: u32,
    /// Base of the exponential backoff charged before retry `n` (n ≥ 2):
    /// `base << (n - 2)` simulated accelerator cycles. The wait is
    /// *recorded* in the report (it would be host wall-clock in silicon),
    /// not burned in the simulator.
    pub backoff_base_cycles: u64,
    /// Take a checkpoint every this many accelerator cycles during the
    /// first attempt, enabling the resume rung. `None` disables
    /// checkpointing, so transient faults restart from scratch.
    pub checkpoint_interval: Option<u64>,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy {
            max_attempts: 4,
            backoff_base_cycles: 1_000,
            checkpoint_interval: Some(2_048),
        }
    }
}

/// One rung of the recovery ladder, as recorded in the report trail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryAction {
    /// The initial attempt: the full configured machine.
    Full,
    /// Resume the last pre-failure checkpoint with faults disarmed.
    ResumeCheckpoint,
    /// A rebuilt machine with this many lanes (and matching channels).
    ReducedLanes {
        /// Lane (= channel) count of the degraded machine.
        lanes: usize,
    },
    /// Software Gustavson on the host CPU — the rung of last resort.
    CpuFallback,
}

/// One entry of the recovery trail: what was tried and how it ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryAttempt {
    /// 1-based attempt number.
    pub attempt: u32,
    /// The ladder rung this attempt ran.
    pub action: RecoveryAction,
    /// Backoff charged before this attempt, in simulated cycles.
    pub backoff_cycles: u64,
    /// The fault that ended the attempt, or `None` if it succeeded.
    pub fault: Option<SimError>,
}

/// What [`Driver::launch_with_policy`] did to finish a run: the full
/// attempt trail, plus summary flags for the common questions (did it
/// degrade? resume? fall back to software?).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Attempts made, including the one that succeeded (1 = clean run).
    pub attempts: u32,
    /// Whether the successful attempt ran a reduced configuration or the
    /// CPU fallback (checkpoint resumes are *not* degraded — they finish
    /// on the full machine).
    pub degraded: bool,
    /// The fault returned by each failed attempt, in order.
    pub faults: Vec<SimError>,
    /// Every attempt in order, each with its rung and outcome.
    pub trail: Vec<RecoveryAttempt>,
    /// Total backoff charged across all retries, in simulated cycles.
    pub backoff_cycles: u64,
    /// Whether the successful attempt resumed from a checkpoint.
    pub resumed_from_checkpoint: bool,
    /// Whether the product was ultimately computed in host software.
    pub used_cpu_fallback: bool,
}

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

    /// Current register contents (host-readable).
    pub fn registers(&self) -> ConfigRegisters {
        self.regs
    }

    /// Launches the configured run, as the hardware would on seeing
    /// `x0 == 1`, for one bounded slice ([`RunRequest::pause_at`]):
    /// starts fresh (arming `plan`) when `from` is `None` and resumes the
    /// handed-over checkpoint otherwise, running until the machine drains
    /// or reaches accelerator cycle `until_cycle`. The start bit stays set
    /// across paused slices — the job is still in flight from the host's
    /// point of view — and hardware clears it when a slice completes the
    /// run. A cycle deadline is a slice whose pause the caller treats as
    /// cancellation.
    ///
    /// Each re-entry repeats the full preflight (start bit, dimension
    /// registers, input structure): a fleet re-dispatching a checkpoint to
    /// a different worker re-programs that worker's registers, and this is
    /// where a mis-programmed hand-off is caught.
    ///
    /// # Errors
    ///
    /// [`DriverError::NotStarted`] if `x0` was not set;
    /// [`DriverError::DimensionMismatch`] if the programmed dimension
    /// registers disagree with the actual matrices — the kind of driver
    /// bug this layer exists to catch;
    /// [`DriverError::InvalidInput`] if either matrix fails structural
    /// validation; [`DriverError::AcceleratorFault`] if the accelerator
    /// terminates the run abnormally (deadlock, queue overflow, corrupted
    /// output, a foreign checkpoint's [`SimError::CheckpointMismatch`],
    /// ...).
    pub fn launch_slice(
        &mut self,
        a: &Csr<f64>,
        b: &Csr<f64>,
        plan: Option<&FaultPlan>,
        from: Option<&Checkpoint>,
        until_cycle: u64,
    ) -> Result<SliceRun, DriverError> {
        self.preflight(a, b)?;
        let start = from.map_or(RunStart::Fresh { plan, trace: None }, RunStart::Resume);
        let req = RunRequest { start, pause_at: Some(until_cycle), ..RunRequest::new(a, b) };
        let (run, _) = self
            .accel
            .execute(&req)
            .map_err(|failed| DriverError::AcceleratorFault(failed.error))?;
        if matches!(run, SliceRun::Completed(_)) {
            self.regs.x0 = 0;
        }
        Ok(run)
    }

    /// Launches the configured run to completion under a
    /// [`RecoveryPolicy`]: transient faults resume from the last
    /// checkpoint, persistent faults walk the degradation ladder down to a
    /// host-software fallback.
    ///
    /// `plan` injects a fault into the *first* attempt only (the
    /// transient-fault model); retries run clean hardware.
    ///
    /// # Errors
    ///
    /// Everything [`Driver::launch_slice`] reports; an [`AcceleratorFault`]
    /// means the ladder was exhausted (or the fault was malformed input,
    /// which no rung can outrun), and its payload is the *last* attempt's
    /// fault.
    ///
    /// [`AcceleratorFault`]: DriverError::AcceleratorFault
    pub fn launch_with_policy(
        &mut self,
        a: &Csr<f64>,
        b: &Csr<f64>,
        plan: Option<&FaultPlan>,
        policy: &RecoveryPolicy,
    ) -> Result<(RunOutcome, RecoveryReport), DriverError> {
        self.preflight(a, b)?;
        let mut report = RecoveryReport {
            attempts: 1,
            degraded: false,
            faults: Vec::new(),
            trail: Vec::new(),
            backoff_cycles: 0,
            resumed_from_checkpoint: false,
            used_cpu_fallback: false,
        };

        // Attempt 1: the full machine, with the injected fault (if any)
        // and periodic checkpoints so a transient failure can resume.
        let first = RunRequest {
            start: RunStart::Fresh { plan, trace: None },
            checkpoint_every: policy.checkpoint_interval.unwrap_or(0),
            ..RunRequest::new(a, b)
        };
        let result = self.accel.execute(&first).and_then(|(run, _)| {
            run.completed().map_err(|error| FailedRun { error, checkpoint: None })
        });
        let (first_fault, checkpoint) = match result {
            Ok(outcome) => {
                self.regs.x0 = 0;
                report.trail.push(RecoveryAttempt {
                    attempt: 1,
                    action: RecoveryAction::Full,
                    backoff_cycles: 0,
                    fault: None,
                });
                return Ok((outcome, report));
            }
            Err(FailedRun { error, checkpoint }) => (error, checkpoint),
        };
        report.trail.push(RecoveryAttempt {
            attempt: 1,
            action: RecoveryAction::Full,
            backoff_cycles: 0,
            fault: Some(first_fault.clone()),
        });
        report.faults.push(first_fault.clone());
        // Malformed input fails identically on every configuration; the
        // ladder never retries it.
        if matches!(first_fault, SimError::MalformedInput(_)) {
            return Err(DriverError::AcceleratorFault(first_fault));
        }

        // Build the remaining rungs. A checkpoint resume only makes sense
        // for faults that kill forward progress without corrupting state
        // already checkpointed — deadlocks and budget exhaustion.
        enum Rung {
            Resume(Box<Checkpoint>),
            Lanes(usize),
            Cpu,
        }
        let mut rungs: Vec<Rung> = Vec::new();
        let transient =
            matches!(first_fault, SimError::Deadlock(_) | SimError::CycleBudgetExceeded { .. });
        if transient {
            if let Some(mut ck) = checkpoint {
                ck.disarm_faults();
                rungs.push(Rung::Resume(ck));
            }
        }
        let lanes = self.accel.config().num_lanes;
        if lanes / 2 > 1 {
            rungs.push(Rung::Lanes(lanes / 2));
        }
        if lanes > 1 {
            rungs.push(Rung::Lanes(1));
        }
        rungs.push(Rung::Cpu);

        let mut last_fault = first_fault;
        for rung in rungs {
            if report.attempts >= policy.max_attempts {
                break;
            }
            report.attempts += 1;
            let backoff = policy.backoff_base_cycles << (report.attempts - 2).min(16);
            report.backoff_cycles = report.backoff_cycles.saturating_add(backoff);
            let (action, result) = match rung {
                Rung::Resume(ck) => {
                    let resume =
                        RunRequest { start: RunStart::Resume(&ck), ..RunRequest::new(a, b) };
                    let result = self.accel.execute(&resume).map_err(|failed| failed.error);
                    (RecoveryAction::ResumeCheckpoint, result.and_then(|(run, _)| run.completed()))
                }
                Rung::Lanes(n) => {
                    let mut cfg = self.accel.config().clone();
                    cfg.num_lanes = n;
                    cfg.mem = HbmConfig { num_channels: n, ..cfg.mem };
                    match Accelerator::try_new(cfg) {
                        // The degraded retry runs *without* the fault
                        // plan — the transient-fault model.
                        Ok(acc) => (RecoveryAction::ReducedLanes { lanes: n }, acc.try_run(a, b)),
                        Err(_) => {
                            // The reduced shape is invalid for this
                            // config family; skip the rung entirely.
                            report.attempts -= 1;
                            report.backoff_cycles = report.backoff_cycles.saturating_sub(backoff);
                            continue;
                        }
                    }
                }
                Rung::Cpu => (RecoveryAction::CpuFallback, Ok(self.cpu_fallback_outcome(a, b))),
            };
            match result {
                Ok(outcome) => {
                    self.regs.x0 = 0;
                    report.degraded = matches!(
                        action,
                        RecoveryAction::ReducedLanes { .. } | RecoveryAction::CpuFallback
                    );
                    report.resumed_from_checkpoint =
                        matches!(action, RecoveryAction::ResumeCheckpoint);
                    report.used_cpu_fallback = matches!(action, RecoveryAction::CpuFallback);
                    report.trail.push(RecoveryAttempt {
                        attempt: report.attempts,
                        action,
                        backoff_cycles: backoff,
                        fault: None,
                    });
                    return Ok((outcome, report));
                }
                Err(e) => {
                    report.trail.push(RecoveryAttempt {
                        attempt: report.attempts,
                        action,
                        backoff_cycles: backoff,
                        fault: Some(e.clone()),
                    });
                    report.faults.push(e.clone());
                    last_fault = e;
                }
            }
        }
        Err(DriverError::AcceleratorFault(last_fault))
    }

    /// The ladder's last rung: the product computed in host software,
    /// with an honest all-zero cycle/traffic account (the accelerator
    /// never ran).
    fn cpu_fallback_outcome(&self, a: &Csr<f64>, b: &Csr<f64>) -> RunOutcome {
        let c = spgemm::gustavson(a, b);
        let c2sr = C2sr::from_csr(&c, 1);
        let multiplies = spgemm::multiply_count(a, b);
        let cfg = self.accel.config();
        RunOutcome {
            c2sr,
            stats: MatRaptorStats {
                total_cycles: 0,
                clock_ghz: cfg.clock_ghz,
                breakdown: CycleBreakdown::default(),
                per_pe_breakdown: Vec::new(),
                multiplies,
                additions: multiplies.saturating_sub(c.nnz() as u64),
                bytes_read: 0,
                bytes_written: 0,
                traffic_read: 0,
                traffic_written: 0,
                per_pe_nnz: vec![a.nnz() as u64],
                overflow_rows: 0,
                overflow_padding_entries: 0,
                phase1_cycles: 0,
                phase2_cycles: 0,
                per_lane_attribution: Vec::new(),
            },
            c,
        }
    }

    /// Shared launch checks: start bit, dimension registers, input
    /// structure.
    fn preflight(&self, a: &Csr<f64>, b: &Csr<f64>) -> Result<(), DriverError> {
        if self.regs.x0 != 1 {
            return Err(DriverError::NotStarted);
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
        Ok(())
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
        assert_eq!(d.registers().x0, 0);
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
        assert_eq!(d.registers().x0, 1);
    }

    #[test]
    fn recovery_resumes_a_transient_stall_from_checkpoint() {
        use crate::fault::{FaultKind, FaultPlan};
        let a = gen::uniform(32, 32, 200, 5);
        let mut cfg = MatRaptorConfig::small_test();
        cfg.watchdog_window = 2_000;
        let accel = Accelerator::new(cfg);
        let mut d = Driver::new(&accel);
        d.mtx(MtxWrite::ARows(32));
        d.mtx(MtxWrite::BRows(32));
        d.mtx(MtxWrite::X0(1));
        let plan = FaultPlan::sample(FaultKind::ChannelStall, 7, accel.config().num_lanes);
        // A short checkpoint interval guarantees a checkpoint exists
        // before the watchdog (window 2000) declares the wedge.
        let policy = RecoveryPolicy { checkpoint_interval: Some(256), ..RecoveryPolicy::default() };
        let (outcome, report) =
            d.launch_with_policy(&a, &a, Some(&plan), &policy).expect("recovered");
        assert_eq!(report.attempts, 2);
        assert!(report.resumed_from_checkpoint);
        assert!(!report.degraded, "a checkpoint resume finishes on the full machine");
        assert!(matches!(report.faults[0], SimError::Deadlock(_)));
        assert_eq!(report.trail.len(), 2);
        assert_eq!(report.trail[1].action, RecoveryAction::ResumeCheckpoint);
        assert_eq!(report.backoff_cycles, policy.backoff_base_cycles);
        assert!(outcome.c.approx_eq(&spgemm::gustavson(&a, &a), 1e-9));
        assert_eq!(d.registers().x0, 0);
    }

    #[test]
    fn recovery_retries_a_deadlocked_run_in_single_lane_mode() {
        use crate::fault::{FaultKind, FaultPlan};
        let a = gen::uniform(32, 32, 200, 5);
        let mut cfg = MatRaptorConfig::small_test();
        cfg.watchdog_window = 2_000;
        let accel = Accelerator::new(cfg);
        let mut d = Driver::new(&accel);
        d.mtx(MtxWrite::ARows(32));
        d.mtx(MtxWrite::BRows(32));
        d.mtx(MtxWrite::X0(1));
        let plan = FaultPlan::sample(FaultKind::ChannelStall, 7, accel.config().num_lanes);
        // Checkpointing disabled: the resume rung is unavailable, so the
        // ladder drops to the reduced single-lane machine.
        let policy = RecoveryPolicy { checkpoint_interval: None, ..RecoveryPolicy::default() };
        let (outcome, report) =
            d.launch_with_policy(&a, &a, Some(&plan), &policy).expect("recovered");
        assert_eq!(report.attempts, 2);
        assert!(report.degraded);
        assert!(!report.resumed_from_checkpoint);
        assert!(!report.used_cpu_fallback);
        assert!(matches!(report.faults[0], SimError::Deadlock(_)));
        assert_eq!(report.trail[0].action, RecoveryAction::Full);
        assert!(matches!(report.trail[0].fault, Some(SimError::Deadlock(_))));
        assert_eq!(report.trail[1].action, RecoveryAction::ReducedLanes { lanes: 1 });
        assert_eq!(outcome.stats.per_pe_nnz.len(), 1, "retry ran single-lane");
        assert!(outcome.c.approx_eq(&spgemm::gustavson(&a, &a), 1e-9));
        assert_eq!(d.registers().x0, 0);
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
        assert_eq!(d.registers().x0, 1);
        // A generous budget lets the same job finish normally.
        match d.launch_slice(&a, &a, None, None, u64::MAX).expect("within deadline") {
            SliceRun::Completed(outcome) => {
                assert!(outcome.c.approx_eq(&spgemm::gustavson(&a, &a), 1e-9));
            }
            SliceRun::Paused(ck) => panic!("unbounded launch paused at {}", ck.cycle()),
        }
        assert_eq!(d.registers().x0, 0);
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
    fn recovery_on_a_clean_run_is_a_single_attempt() {
        let a = gen::uniform(24, 24, 120, 2);
        let accel = Accelerator::new(MatRaptorConfig::small_test());
        let mut d = Driver::new(&accel);
        d.mtx(MtxWrite::ARows(24));
        d.mtx(MtxWrite::BRows(24));
        d.mtx(MtxWrite::X0(1));
        let (outcome, report) =
            d.launch_with_policy(&a, &a, None, &RecoveryPolicy::default()).expect("clean");
        assert_eq!(
            report,
            RecoveryReport {
                attempts: 1,
                degraded: false,
                faults: vec![],
                trail: vec![RecoveryAttempt {
                    attempt: 1,
                    action: RecoveryAction::Full,
                    backoff_cycles: 0,
                    fault: None,
                }],
                backoff_cycles: 0,
                resumed_from_checkpoint: false,
                used_cpu_fallback: false,
            }
        );
        assert!(outcome.c.approx_eq(&spgemm::gustavson(&a, &a), 1e-9));
    }

    #[test]
    fn malformed_input_is_never_retried() {
        // A 32x40 times 32x32 product is malformed (inner dimensions
        // disagree). If the ladder retried it, the CPU-fallback rung
        // would "succeed" — so getting the fault back proves no rung ran.
        let a = gen::uniform(32, 40, 200, 8);
        let b = gen::uniform(32, 32, 200, 9);
        let accel = Accelerator::new(MatRaptorConfig::small_test());
        let mut d = Driver::new(&accel);
        d.mtx(MtxWrite::ARows(32));
        d.mtx(MtxWrite::BRows(32));
        d.mtx(MtxWrite::X0(1));
        match d.launch_with_policy(&a, &b, None, &RecoveryPolicy::default()) {
            Err(DriverError::AcceleratorFault(SimError::MalformedInput(_))) => {}
            other => panic!("expected un-retried MalformedInput, got {other:?}"),
        }
    }

    #[test]
    fn single_lane_machine_falls_back_to_cpu() {
        use crate::fault::{FaultKind, FaultPlan};
        // On a one-lane machine there is no reduced rung, and a forced
        // queue overflow is not transient — the ladder goes straight to
        // host software.
        let a = gen::uniform(32, 32, 220, 6);
        let mut cfg = MatRaptorConfig::small_test();
        cfg.num_lanes = 1;
        cfg.mem = HbmConfig { num_channels: 1, ..cfg.mem };
        let accel = Accelerator::new(cfg);
        let mut d = Driver::new(&accel);
        d.mtx(MtxWrite::ARows(32));
        d.mtx(MtxWrite::BRows(32));
        d.mtx(MtxWrite::X0(1));
        let plan = FaultPlan::sample(FaultKind::QueueOverflowForce, 11, 1);
        let (outcome, report) = d
            .launch_with_policy(&a, &a, Some(&plan), &RecoveryPolicy::default())
            .expect("fell back");
        assert!(report.used_cpu_fallback);
        assert!(report.degraded);
        assert_eq!(report.attempts, 2);
        assert_eq!(report.trail[1].action, RecoveryAction::CpuFallback);
        assert!(matches!(report.faults[0], SimError::QueueOverflow { .. }));
        assert_eq!(outcome.stats.total_cycles, 0, "the accelerator never ran");
        assert!(outcome.c.approx_eq(&spgemm::gustavson(&a, &a), 1e-9));
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
        let invalid = DriverError::InvalidInput(SparseError::NonFiniteValue { row: 0, col: 1 });
        assert!(invalid.to_string().contains("rejected"));
        // All variants usable as a trait object (the `Box<dyn Error>`
        // plumbing downstream tooling relies on).
        for e in [not_started, dim, fault, invalid] {
            let boxed: Box<dyn std::error::Error> = Box::new(e);
            assert!(!boxed.to_string().is_empty());
        }
    }

    #[test]
    fn registers_power_on_to_the_region_map() {
        let accel = Accelerator::new(MatRaptorConfig::small_test());
        let d = Driver::new(&accel);
        let r = d.registers();
        assert_eq!(r.a_data_ptr, 0x1000_0000);
        assert_eq!(r.c_data_ptr, 0x5000_0000);
        assert_eq!(r.x0, 0);
    }
}
