//! True-parallel fleet execution: OS-thread accelerator workers fed from
//! one job queue, supervised for liveness, merged back into deterministic
//! id-order (DESIGN.md §15).
//!
//! The discrete-event [`Fleet`](crate::Fleet) (DESIGN.md §13) models
//! worker failure *in simulated time*; this module runs the same slice
//! jobs on real `std::thread` workers and keeps the discrete-event fleet
//! as its oracle. The paper's row-wise product makes row slices of C
//! independent, so per-job execution is deterministic given operands and
//! accelerator config — which is what lets a wall-clock-nondeterministic
//! executor still produce a byte-identical **resolution core**: the
//! id-sorted `(job id, disposition, output fingerprint)` triples hashed by
//! [`resolution_core_fingerprint`]. OS scheduling moves *which worker*
//! runs a job and *when*, never *what the job computes*.
//!
//! The moving parts:
//!
//! * `executor` — a `Mutex<VecDeque>` job queue with a `Condvar` that idle
//!   workers block on, a completion queue the main thread takes whole on
//!   its poll tick, the worker thread body (every job slice under
//!   [`std::panic::catch_unwind`]; a panic is a worker *Crash*, never a
//!   process abort) and the main-thread merge loop with at-most-once
//!   completion accounting;
//! * `supervisor` — per-worker atomic heartbeat counters polled for death,
//!   hang (no beat progress across a bounded poll budget), and terminal
//!   slowdown; victims' in-flight jobs re-dispatch from their last
//!   recovery point and the worker walks the same restart → reduced-lanes →
//!   retire ladder as the discrete-event fleet.
//!
//! One caveat the strict campaign gate encodes: accelerator output *value
//! bits* depend on lane width (accumulation order), so a reduced-lanes
//! worker completing a job would perturb the resolution core. Campaign
//! configurations grant enough full-width restarts that every injected
//! fault recovers on the restart rung, and the gate asserts
//! `degraded_completions == 0` so a drifted config fails loudly instead of
//! mysteriously.

mod executor;
mod supervisor;

use std::sync::Arc;
use std::time::Duration;

use matraptor_core::{FaultPlan, MatRaptorConfig, OperandError};
use matraptor_sparse::Csr;

use crate::job::Disposition;
use crate::worker::WorkerFaultPlan;
use crate::RecoveryEvent;

pub use executor::run;

/// The main thread's tick: it takes the completion queue whole and, on a
/// quiet tick, polls worker liveness and then sleeps this long. Waking it
/// on every completion instead was never faster on a 2-core host, where
/// each wake can preempt a worker (EXPERIMENTS.md "Simplicity — Plain job
/// queue").
const POLL: Duration = Duration::from_micros(200);

/// Quiet ticks without heartbeat progress before a busy worker is declared
/// hung. The contract: `HANG_POLL_BUDGET × POLL` (80 ms) must exceed the
/// worst-case wall time of one slice, or healthy-but-slow slices are
/// misdetected (misdetection is safe — the job re-dispatches and the
/// duplicate completion is suppressed — but it burns a ladder rung).
const HANG_POLL_BUDGET: u32 = 400;

/// A worker whose published slowdown factor reaches this threshold is
/// recycled through the ladder (terminal slowness ≈ death).
const TERMINAL_SLOW_FACTOR: u64 = 8;

/// Consecutive quiet ticks (no completion, no recovery action) before the
/// run aborts with [`ParallelError::Stalled`] instead of hanging forever:
/// about a minute.
const STALL_ABORT_POLLS: u64 = 300_000;

/// Wall microseconds a slowed worker sleeps per slice per unit of its
/// published slowdown factor (the injection's observable effect).
const SLOW_UNIT_US: u64 = 100;

/// Ticks granted per thread at shutdown before it is declared wedged and
/// leaked rather than deadlocking the drain barrier.
const JOIN_BUDGET_POLLS: u32 = 2_000;

/// Configuration for one threaded-executor run.
#[derive(Debug, Clone)]
pub struct ParallelConfig {
    /// Template accelerator configuration (full lane width). Workers on
    /// the degraded rung halve `mem.num_channels`, and with it the lane
    /// count, from this.
    pub accel: MatRaptorConfig,
    /// OS-thread accelerator workers (clamped to ≥ 1).
    pub threads: usize,
    /// Accelerator cycles per execution slice — the heartbeat interval
    /// (clamped to ≥ 1). A job's run stays live across its slices; its
    /// recovery points fall after the 1st, 2nd, 4th, 8th, … slice of each
    /// dispatch.
    pub slice_cycles: u64,
    /// Accelerator-fault retries granted per job before it resolves
    /// [`Disposition::Failed`] (clamped to ≥ 1).
    pub max_attempts: u32,
    /// Full-width restarts granted per worker before it degrades.
    pub max_restarts: u32,
    /// Degraded (half-lanes) restarts granted before the worker retires.
    pub max_degraded_restarts: u32,
    /// Cap on the retained recovery log (oldest events evicted past it,
    /// counted in [`ParReport::recovery_events_dropped`]). Clamped ≥ 2.
    pub recovery_log_cap: usize,
    /// Worker-fault injection schedule, taken by [`run`] and fired by the
    /// discrete-event fleet's rule: at each slice boundary a slot fires at
    /// most one due event, the first in declaration order, counting the
    /// slot's slices across its generations. Events target worker slots
    /// by index; `Crash` becomes a real `panic!` in the worker body,
    /// `Hang` stops the heartbeat, `SlowDown` publishes a slowdown factor,
    /// and `CrashAfterCompletion` panics between pushing the completion
    /// and clearing the in-flight mailbox (the lost-ack race).
    pub worker_faults: Option<WorkerFaultPlan>,
}

impl ParallelConfig {
    /// Defaults over [`MatRaptorConfig::small_test`]: 2 threads,
    /// 4 096-cycle slices, no injected faults. Campaigns, tests and the
    /// repo benchmark start here and override what they vary; the liveness
    /// budgets are fixed constants, not fields.
    pub fn small_test() -> Self {
        ParallelConfig {
            accel: MatRaptorConfig::small_test(),
            threads: 2,
            slice_cycles: 4_096,
            max_attempts: 2,
            max_restarts: 4,
            max_degraded_restarts: 1,
            recovery_log_cap: 4_096,
            worker_faults: None,
        }
    }

    pub(crate) fn normalized(mut self) -> Self {
        self.threads = self.threads.max(1);
        self.slice_cycles = self.slice_cycles.max(1);
        self.max_attempts = self.max_attempts.max(1);
        self.recovery_log_cap = self.recovery_log_cap.max(2);
        self
    }
}

/// One job for the threaded executor. Operands are `Arc`-shared (they
/// cross thread boundaries, unlike the service's default `Rc` payloads).
#[derive(Debug, Clone)]
pub struct ParJob {
    /// Caller-assigned id, unique per run; the merge resolves ids
    /// at-most-once and the report is sorted by id.
    pub id: u64,
    /// Left operand.
    pub a: Arc<Csr<f64>>,
    /// Right operand.
    pub b: Arc<Csr<f64>>,
    /// Input-borne fault plan riding the operands across every retry
    /// (the service's persistent-fault model), if any.
    pub plan: Option<FaultPlan>,
    /// Cycle budget; a job paused at or past it resolves
    /// [`Disposition::DeadlineExceeded`] (clamped to ≥ 1).
    pub deadline_cycles: u64,
}

/// A resolved job as the threaded executor records it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParRecord {
    /// The job id.
    pub id: u64,
    /// How the job resolved.
    pub disposition: Disposition,
    /// Worker slot that resolved it (`usize::MAX` for the main-thread
    /// inline fallback after total retirement).
    pub worker: usize,
    /// Accelerator attempts consumed (job-level fault retries).
    pub attempts: u32,
    /// Worker failures this job survived (re-queue count).
    pub redispatches: u32,
    /// Whether any dispatch resumed from a mid-job checkpoint.
    pub resumed_from_checkpoint: bool,
    /// Whether the resolving worker ran at reduced lane width.
    pub degraded_width: bool,
    /// Accelerator cycles the resolving run executed.
    pub executed_cycles: u64,
    /// FNV-1a-64 fingerprint of the output matrix for completions, `None`
    /// otherwise.
    pub output_fingerprint: Option<u64>,
}

/// Monotone counters for one threaded-executor run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ParCounters {
    /// Worker-thread panics caught by `catch_unwind` (injected or not).
    pub panics_caught: u64,
    /// Injected `Crash` panics fired.
    pub injected_panics: u64,
    /// Injected `Hang`s fired.
    pub injected_hangs: u64,
    /// Injected `SlowDown`s fired.
    pub injected_slowdowns: u64,
    /// Injected `CrashAfterCompletion` lost-ack panics fired.
    pub injected_lost_acks: u64,
    /// Busy workers declared hung by the heartbeat poll budget.
    pub hangs_detected: u64,
    /// Workers recycled for publishing a terminal slowdown factor.
    pub slowness_detections: u64,
    /// Worker restarts initiated (full or degraded width).
    pub worker_restarts: u64,
    /// Degradation rungs taken (lane halvings).
    pub worker_degradations: u64,
    /// Workers permanently retired.
    pub worker_retirements: u64,
    /// In-flight jobs re-queued after a worker failure.
    pub redispatches: u64,
    /// Adoptions of a re-queued job by a worker (or the inline fallback)
    /// as wide as the one that took its checkpoint: the job resumed from
    /// it. Counted when the job is adopted, not when it is re-queued.
    pub resumed_from_checkpoint: u64,
    /// Adoptions of a re-queued job with no checkpoint, or one taken at
    /// another lane width: the job restarted from cycle zero.
    pub restarted_from_scratch: u64,
    /// Completions for an already-resolved id, suppressed by the
    /// at-most-once merge (the lost-ack race observed and survived).
    pub duplicates_suppressed: u64,
    /// Ids that appear more than once in the final records — **must stay
    /// zero**; anything else is an accounting bug the campaign gate fails.
    pub duplicate_completions: u64,
    /// Completions produced by a reduced-width worker (perturbs output
    /// value bits; strict campaigns assert zero — see module docs).
    pub degraded_completions: u64,
    /// Jobs executed inline on the main thread after every worker retired.
    pub inline_fallbacks: u64,
    /// Always 0: the job queue holds the whole job list, so dispatch never
    /// backs off. Kept because the repo benchmark (`perfbench`) reports it.
    pub ring_full_backoffs: u64,
    /// Threads that outlived their bounded join budget at shutdown and
    /// were leaked rather than deadlocking the drain barrier.
    pub wedged_threads: u64,
}

/// One caught worker panic, for the shutdown census.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PanicRecord {
    /// Worker slot that panicked.
    pub worker: usize,
    /// Whether the panic was fault-injected (vs. an organic bug).
    pub injected: bool,
    /// Rendered panic payload.
    pub message: String,
}

/// The merged result of one threaded-executor run.
#[derive(Debug)]
pub struct ParReport {
    /// Resolved jobs, sorted by id (the deterministic merge order).
    pub records: Vec<ParRecord>,
    /// Run counters.
    pub counters: ParCounters,
    /// Bounded recovery log (most recent events; oldest evicted past the
    /// cap). Timing-dependent — observability, never part of the
    /// resolution core.
    pub recovery_log: Vec<RecoveryEvent>,
    /// Recovery events evicted from the bounded log.
    pub recovery_events_dropped: u64,
    /// Every caught worker panic.
    pub panic_census: Vec<PanicRecord>,
}

impl ParReport {
    /// Fingerprint of this run's resolution core (see
    /// [`resolution_core_fingerprint`]).
    pub fn resolution_fingerprint(&self) -> u64 {
        resolution_core_fingerprint(
            self.records.iter().map(|r| (r.id, r.disposition.label(), r.output_fingerprint)),
        )
    }
}

/// FNV-1a-64 over a run's *resolution core*: `(job id, disposition label,
/// output fingerprint)` triples in id order. This is the cross-executor
/// equivalence currency — the threaded executor at any thread count and
/// the discrete-event fleet oracle must produce the same value for the
/// same job stream, because per-job execution is deterministic and the
/// core carries no timing. Callers must feed entries already sorted by id.
pub fn resolution_core_fingerprint<'a>(
    entries: impl Iterator<Item = (u64, &'a str, Option<u64>)>,
) -> u64 {
    let mut bytes = Vec::new();
    for (id, label, fp) in entries {
        bytes.extend_from_slice(&id.to_le_bytes());
        bytes.extend_from_slice(label.as_bytes());
        bytes.push(0xff);
        match fp {
            Some(f) => {
                bytes.push(1);
                bytes.extend_from_slice(&f.to_le_bytes());
            }
            None => bytes.push(0),
        }
    }
    matraptor_sim::trace::fnv1a64(&bytes)
}

/// Why a threaded-executor run could not produce a report.
#[derive(Debug, PartialEq, Eq)]
pub enum ParallelError {
    /// The template accelerator configuration failed validation.
    InvalidAccelConfig(String),
    /// Two submitted jobs share an id (the at-most-once merge would
    /// silently drop one).
    DuplicateJobId(u64),
    /// The job with this id has operands
    /// [`Operands::new`](matraptor_core::Operands::new) refuses; no job runs.
    InvalidOperands(u64, OperandError),
    /// The run stopped making progress: no completion or recovery action
    /// for about a minute of quiet poll ticks. The payload is how far it
    /// got.
    Stalled {
        /// Jobs resolved before the stall.
        resolved: usize,
        /// Jobs submitted.
        total: usize,
    },
}

impl std::fmt::Display for ParallelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParallelError::InvalidAccelConfig(e) => {
                write!(f, "invalid accelerator template: {e}")
            }
            ParallelError::DuplicateJobId(id) => write!(f, "duplicate job id {id}"),
            ParallelError::InvalidOperands(id, e) => write!(f, "job {id} operands refused: {e}"),
            ParallelError::Stalled { resolved, total } => {
                write!(f, "executor stalled after resolving {resolved}/{total} jobs")
            }
        }
    }
}

impl std::error::Error for ParallelError {}
