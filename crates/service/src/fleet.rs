//! A deterministic fault-tolerant fleet of simulated workers.
//!
//! The [`Fleet`] is the crate's one simulated-time engine: N accelerator
//! workers plus M CPU-fallback workers behind one admission front end
//! (bounded tenant queues, flop-estimate deadlines, DRR fairness, circuit
//! breaker, fleet-wide quarantine). The single-machine
//! [`Service`](crate::Service) is this engine with one accelerator worker
//! and one CPU worker. It is a discrete-event simulation in fleet cycles:
//! every worker schedules its next event (slice completion, heartbeat
//! deadline, restart completion), the fleet processes the earliest event
//! (ties broken by worker id), and all state evolves deterministically
//! from the submission sequence and the seeded [`WorkerFaultPlan`] — so a
//! 10k-job campaign that crashes, hangs, degrades, and retires workers
//! mid-flight still replays byte-identically.
//!
//! The failure lifecycle:
//!
//! * jobs run in bounded **slices** of `slice_cycles` accelerator cycles
//!   on a live [`Run`] the worker starts once per dispatch (through the
//!   slice step every service engine shares), each boundary a heartbeat;
//! * a job is **checkpointed lazily**: every worker fault fires at a slice
//!   boundary, before the next slice runs, and a slowness recycle happens
//!   after the slice's pause is applied, so whenever a job leaves its
//!   worker the live run stands exactly at its last boundary, and that is
//!   the one moment it is snapshotted;
//! * a **crash** is detected immediately (process death is loud); a
//!   **hang** is detected at the worker's heartbeat deadline, once its
//!   heartbeat has stayed silent past the liveness window; a
//!   **slow** worker whose slice wall time breaches the window is treated
//!   as dead-in-practice;
//! * the failed worker's in-flight job is **re-dispatched** from its last
//!   checkpoint to any healthy worker — bit-identical resumption is the
//!   DESIGN.md §9 replay invariant — guarded by **at-most-once
//!   accounting**: a resolved job id is never resolved again, so a
//!   lost-ack crash cannot double-count;
//! * each worker walks an escalating recovery ladder: full **restart**
//!   (`max_restarts` times), then **reduced-lanes degradation** (lane
//!   count halves), then **retirement**, which activates a CPU-fallback
//!   slot to absorb the lost capacity;
//! * a checkpoint resumes only on a worker as wide as the one that took
//!   it; on any other the job restarts from scratch (`Assignment::adopt`,
//!   the one resume rule the threaded executor shares), which costs no
//!   attempt;
//! * quarantine strikes are **fleet-wide**: a poison pair struck on worker
//!   0 is refused at admission no matter which worker would have run it.
//!
//! [`Run`]: matraptor_core::Run

use std::collections::VecDeque;
use std::ops::Deref;
use std::rc::Rc;

use matraptor_core::{OperandError, Operands, SimError};
use matraptor_sim::trace::{fnv1a64, MetricsRegistry};
use matraptor_sim::{Cycle, SimClock};
use matraptor_sparse::{spgemm, Csr};

use crate::bounded::BoundedLog;
use crate::breaker::{BreakerState, BreakerTransition, CircuitBreaker};
use crate::job::{Disposition, JobId, JobRecord, JobSpec, Rejected};
use crate::quarantine::Quarantine;
use crate::sched::{DrrScheduler, Pending};
use crate::service::{
    DrainSummary, DrainedCheckpoint, ServiceConfig, ServiceCounters, ServiceError,
};
use crate::worker::{
    escaped, ladder_step, slice_step, Assignment, LadderStep, ScheduledEvent, SliceOutcome,
    SliceStep, Worker, WorkerClass, WorkerFault, WorkerFaultPlan, WorkerId, WorkerStatus,
};

/// Full fleet configuration: the shared service front end plus the worker
/// topology and failure-handling tunables.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// The admission/deadline/breaker/quarantine front end and the
    /// template accelerator configuration every worker is built from.
    pub service: ServiceConfig,
    /// Accelerator workers (clamped to ≥ 1).
    pub accel_workers: usize,
    /// CPU-fallback workers (clamped to ≥ 1 — the host always offers at
    /// least one shed slot).
    pub cpu_workers: usize,
    /// Accelerator cycles per execution slice — the heartbeat interval.
    /// Smaller slices mean tighter liveness detection and less work lost
    /// per crash, at more dispatch-loop overhead per job (a job's run
    /// stays live across its slices, so no checkpoint is taken unless the
    /// job leaves its worker). Clamped to ≥ 1.
    pub slice_cycles: u64,
    /// Fleet cycles of heartbeat silence before a worker is declared dead.
    /// Clamped to ≥ `slice_cycles` so a healthy nominal-speed slice can
    /// never breach it.
    pub heartbeat_window: u64,
    /// Fleet cycles a worker restart takes (clamped to ≥ 1).
    pub restart_cycles: u64,
    /// Full restarts granted before a worker degrades to reduced lanes.
    pub max_restarts: u32,
    /// Degraded restarts granted before a worker retires.
    pub max_degraded_restarts: u32,
    /// The worker-failure schedule for this run, if any; [`Fleet::new`]
    /// takes it out of the configuration and fires it.
    pub worker_faults: Option<WorkerFaultPlan>,
    /// Cap on the retained recovery log. Adversarial campaigns generate
    /// recovery events without bound; past the cap the oldest half is
    /// evicted in bulk and counted in
    /// [`Fleet::recovery_events_dropped`]. Clamped to ≥ 2.
    pub recovery_log_cap: usize,
}

impl FleetConfig {
    /// A 4+1-worker fleet over the small test service configuration, used
    /// by unit tests and doc examples.
    pub fn small_test() -> Self {
        FleetConfig {
            service: ServiceConfig::small_test(),
            accel_workers: 4,
            cpu_workers: 1,
            slice_cycles: 4_096,
            heartbeat_window: 100_000,
            restart_cycles: 25_000,
            max_restarts: 2,
            max_degraded_restarts: 1,
            worker_faults: None,
            recovery_log_cap: 4_096,
        }
    }
}

/// One entry of the fleet's recovery log: what the failure-handling
/// machinery did, when, and to whom.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryKind {
    /// A worker crash was detected (immediately — process death is loud).
    CrashDetected,
    /// A hung worker was detected by the heartbeat liveness window.
    HangDetected,
    /// A slice's wall time breached the liveness window: the worker is
    /// slow enough to be indistinguishable from dead and is recycled.
    SlownessDetected,
    /// A worker finished restarting and rejoined the dispatch pool.
    Restarted {
        /// Lane count after the restart (restarts preserve, degradations
        /// halve).
        lanes: usize,
    },
    /// A worker exhausted its full restarts and degraded to fewer lanes.
    Degraded {
        /// The new (halved) lane count.
        lanes: usize,
    },
    /// A worker exhausted the whole ladder and was removed from dispatch;
    /// its share sheds to the CPU tier.
    Retired,
    /// A re-dispatched job resumed from its last checkpoint on a healthy
    /// worker as wide as the one that took it.
    ResumedFromCheckpoint {
        /// The resumed job.
        job: JobId,
        /// The accelerator cycle the checkpoint restored to.
        at_cycle: u64,
    },
    /// A re-dispatched job had no usable checkpoint (none taken yet, or
    /// one taken on a machine of another lane width) and restarted from
    /// cycle zero.
    RestartedFromScratch {
        /// The restarted job.
        job: JobId,
    },
    /// Recovery wanted to re-dispatch a job that had already resolved —
    /// the lost-ack race — and the at-most-once accounting suppressed it.
    DuplicateCompletionSuppressed {
        /// The already-resolved job.
        job: JobId,
    },
}

impl RecoveryKind {
    /// Stable lowercase label used in JSON reports.
    pub fn label(&self) -> &'static str {
        match self {
            RecoveryKind::CrashDetected => "crash_detected",
            RecoveryKind::HangDetected => "hang_detected",
            RecoveryKind::SlownessDetected => "slowness_detected",
            RecoveryKind::Restarted { .. } => "restarted",
            RecoveryKind::Degraded { .. } => "degraded",
            RecoveryKind::Retired => "retired",
            RecoveryKind::ResumedFromCheckpoint { .. } => "resumed_from_checkpoint",
            RecoveryKind::RestartedFromScratch { .. } => "restarted_from_scratch",
            RecoveryKind::DuplicateCompletionSuppressed { .. } => "duplicate_suppressed",
        }
    }
}

/// One recovery-log event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryEvent {
    /// Fleet cycle of the event.
    pub at: Cycle,
    /// The worker involved.
    pub worker: WorkerId,
    /// What happened.
    pub kind: RecoveryKind,
}

/// Monotone fleet-level counters, alongside the shared
/// [`ServiceCounters`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FleetCounters {
    /// Worker crashes detected (including lost-ack crashes).
    pub worker_crashes: u64,
    /// Hung workers detected by the heartbeat window.
    pub worker_hangs: u64,
    /// Slowdown injections applied.
    pub worker_slowdowns: u64,
    /// Slice wall times that breached the liveness window.
    pub slowness_detections: u64,
    /// Worker restarts initiated (full or degraded).
    pub worker_restarts: u64,
    /// Degradation rungs taken (lane halvings).
    pub worker_degradations: u64,
    /// Workers permanently retired.
    pub worker_retirements: u64,
    /// In-flight jobs re-queued after a worker failure.
    pub redispatches: u64,
    /// Adoptions of a re-dispatched job by a worker as wide as the one
    /// that took its checkpoint: the job resumed from it.
    pub resumed_from_checkpoint: u64,
    /// Adoptions of a re-dispatched job with no checkpoint, or one taken
    /// at another lane width: the job restarted from cycle zero.
    pub restarted_from_scratch: u64,
    /// Already-resolved jobs whose re-dispatch was suppressed (the
    /// at-most-once guard doing its job).
    pub duplicates_suppressed: u64,
    /// Jobs that resolved twice — **must stay zero**; any other value is
    /// an accounting bug the campaign gate fails on.
    pub duplicate_completions: u64,
}

/// A resolved job as the fleet records it: the service-level record plus
/// fleet provenance (which worker resolved it, how many worker failures it
/// survived, and the output fingerprint for replay gates).
#[derive(Debug, Clone)]
pub struct FleetRecord {
    /// The service-level bookkeeping record.
    pub record: JobRecord,
    /// The worker that resolved the job. A job cancelled while still
    /// queued never ran: the host front end resolved it, so it names the
    /// first CPU-fallback worker (the host tier).
    pub worker: WorkerId,
    /// Worker failures this job survived (re-queue count).
    pub redispatches: u32,
    /// Whether any dispatch resumed from a mid-job checkpoint.
    pub resumed_from_checkpoint: bool,
    /// FNV-1a-64 fingerprint of the output matrix, for completions
    /// (accelerator or CPU); `None` for jobs with no output.
    pub output_fingerprint: Option<u64>,
}

/// What the fleet keeps of every job it has resolved, for as long as it
/// lives: the three values a wire Poll answers with. An
/// `Option<Resolution>` is 16 bytes, so a long-lived server that takes
/// its records ([`Fleet::take_records`]) grows by 16 bytes per job it has
/// served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Resolution {
    /// Fleet cycle at which the job resolved.
    pub finished_at: Cycle,
    /// Accelerator attempts the job consumed.
    pub attempts: u32,
    /// How the job resolved.
    pub disposition: Disposition,
}

/// FNV-1a-64 fingerprint of a CSR matrix's full contents (dimensions,
/// structure, and value bits), for byte-identity gates on job outputs.
pub fn fingerprint_output(c: &Csr<f64>) -> u64 {
    let mut bytes = Vec::with_capacity(24 + c.nnz().saturating_mul(16));
    bytes.extend_from_slice(&(c.rows() as u64).to_le_bytes());
    bytes.extend_from_slice(&(c.cols() as u64).to_le_bytes());
    bytes.extend_from_slice(&(c.nnz() as u64).to_le_bytes());
    for &p in c.row_ptr() {
        bytes.extend_from_slice(&(p as u64).to_le_bytes());
    }
    for &j in c.col_idx() {
        bytes.extend_from_slice(&u64::from(j).to_le_bytes());
    }
    for v in c.values() {
        bytes.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    fnv1a64(&bytes)
}

/// The deterministic multi-worker fleet, over operand handles `M` (see
/// [`JobSpec`]). See the module docs for the model.
#[derive(Debug)]
pub struct Fleet<M: Deref<Target = Csr<f64>> = Rc<Csr<f64>>> {
    cfg: FleetConfig,
    clock: SimClock,
    sched: DrrScheduler<M>,
    breaker: CircuitBreaker,
    quarantine: Quarantine,
    counters: ServiceCounters,
    fleet: FleetCounters,
    workers: Vec<Worker<M>>,
    redispatch: VecDeque<Assignment<M>>,
    shed_cpu: VecDeque<Assignment<M>>,
    /// Indexed by job id (ids are issued consecutively from 0, so the
    /// table's length is the next id): `None` while the job is
    /// unresolved, then its [`Resolution`]. Sixteen bytes per job answer
    /// both the at-most-once guard and [`Fleet::resolution`]; this table
    /// is all a long-lived server keeps of the jobs it has served.
    resolutions: Vec<Option<Resolution>>,
    /// Jobs resolved over the fleet's lifetime, taken records included.
    resolved: u64,
    /// The records nobody has taken yet, in resolution order.
    records: Vec<FleetRecord>,
    recovery_log: BoundedLog<RecoveryEvent>,
    job_metrics: MetricsRegistry,
    faults: Option<WorkerFaultPlan>,
    probe_worker: Option<usize>,
    draining: Option<Drain>,
}

/// A graceful drain in progress: the one slice every job still gets, and
/// the checkpoints of the jobs that paused in it.
#[derive(Debug)]
struct Drain {
    slice_budget: u64,
    checkpoints: Vec<DrainedCheckpoint>,
}

/// Bucket bounds (in cycles) for the job latency histograms recorded at
/// resolution time.
const CYCLE_BOUNDS: [u64; 10] =
    [16, 64, 256, 1_024, 4_096, 16_384, 65_536, 262_144, 1_048_576, 4_194_304];

impl<M: Deref<Target = Csr<f64>> + Clone> Fleet<M> {
    /// Builds the fleet, validating the template accelerator configuration
    /// once per worker.
    pub fn new(cfg: FleetConfig) -> Result<Self, ServiceError> {
        if cfg.service.tenants.is_empty() {
            return Err(ServiceError::NoTenants);
        }
        let mut cfg = cfg;
        cfg.accel_workers = cfg.accel_workers.max(1);
        cfg.cpu_workers = cfg.cpu_workers.max(1);
        cfg.slice_cycles = cfg.slice_cycles.max(1);
        cfg.heartbeat_window = cfg.heartbeat_window.max(cfg.slice_cycles);
        cfg.restart_cycles = cfg.restart_cycles.max(1);
        let weights: Vec<(u64, usize)> =
            cfg.service.tenants.iter().map(|t| (t.weight, t.queue_capacity)).collect();
        let sched = DrrScheduler::new(cfg.service.quantum_cycles, &weights);
        let breaker = CircuitBreaker::new(cfg.service.breaker);
        let quarantine = Quarantine::new(cfg.service.quarantine_threshold);
        let mut workers = Vec::with_capacity(cfg.accel_workers + cfg.cpu_workers);
        for id in 0..cfg.accel_workers + cfg.cpu_workers {
            let class = if id < cfg.accel_workers {
                WorkerClass::Accelerator
            } else {
                WorkerClass::CpuFallback
            };
            let worker = Worker::new(id, class, cfg.service.accel.clone(), cfg.heartbeat_window)
                .map_err(ServiceError::InvalidAccelConfig)?;
            workers.push(worker);
        }
        let faults = cfg.worker_faults.take();
        let recovery_log = BoundedLog::new(cfg.recovery_log_cap);
        Ok(Fleet {
            cfg,
            clock: SimClock::new(),
            sched,
            breaker,
            quarantine,
            counters: ServiceCounters::default(),
            fleet: FleetCounters::default(),
            workers,
            redispatch: VecDeque::new(),
            shed_cpu: VecDeque::new(),
            resolutions: Vec::new(),
            resolved: 0,
            records: Vec::new(),
            recovery_log,
            job_metrics: MetricsRegistry::new(),
            faults,
            probe_worker: None,
            draining: None,
        })
    }

    /// Current simulated fleet time.
    pub fn now(&self) -> Cycle {
        self.clock.now()
    }

    /// Advance simulated time to `at` (idle time between arrivals); no-op
    /// when `at` is in the past.
    pub fn advance_to(&mut self, at: Cycle) -> bool {
        self.clock.advance_to(at)
    }

    /// Jobs admitted but not yet resolved (queued, re-dispatching, or in
    /// flight).
    pub fn pending(&self) -> usize {
        let in_flight = self.workers.iter().filter(|w| w.assignment.is_some()).count();
        self.backlog() + in_flight
    }

    /// Shared service counters.
    pub fn counters(&self) -> &ServiceCounters {
        &self.counters
    }

    /// Fleet-level counters.
    pub fn fleet_counters(&self) -> &FleetCounters {
        &self.fleet
    }

    /// The resolved jobs whose records nobody has taken yet, in
    /// resolution order. A fleet whose owner never calls
    /// [`Fleet::take_records`] (the campaigns, the tests, the benchmark's
    /// oracle) lists every job it has resolved.
    pub fn records(&self) -> &[FleetRecord] {
        &self.records
    }

    /// Hands over the retained records, in resolution order, and forgets
    /// them, taken or not: [`Fleet::records`] is empty afterwards. What
    /// the fleet keeps of a taken job is its [`Fleet::resolution`].
    pub fn take_records(&mut self) -> std::vec::Drain<'_, FleetRecord> {
        self.records.drain(..)
    }

    /// The record of job `id`, while it is retained: a linear search of
    /// [`Fleet::records`], for tests and one-off lookups.
    pub fn record(&self, id: JobId) -> Option<&FleetRecord> {
        self.records.iter().find(|r| r.record.id == id)
    }

    /// How job `id` resolved, once it has; kept for every job whether or
    /// not its record was taken.
    pub fn resolution(&self, id: JobId) -> Option<Resolution> {
        *self.resolutions.get(usize::try_from(id.0).ok()?)?
    }

    /// Jobs resolved so far, taken records included.
    pub fn resolved(&self) -> u64 {
        self.resolved
    }

    /// Whether job `id` has resolved (the at-most-once guard).
    fn is_resolved(&self, id: JobId) -> bool {
        self.resolution(id).is_some()
    }

    /// The retained recovery log, in event order. Bounded by
    /// [`FleetConfig::recovery_log_cap`]: once full, the oldest half is
    /// evicted and counted in [`Fleet::recovery_events_dropped`], so the
    /// tail of a hostile campaign is always here even when the full
    /// history is not.
    pub fn recovery_log(&self) -> &[RecoveryEvent] {
        self.recovery_log.entries()
    }

    /// Recovery events evicted from the bounded log over the run's
    /// lifetime; `recovery_log().len() + recovery_events_dropped()`
    /// accounts for every event ever logged.
    pub fn recovery_events_dropped(&self) -> u64 {
        self.recovery_log.dropped()
    }

    /// The effective recovery-log cap (the configured
    /// [`FleetConfig::recovery_log_cap`], after clamping).
    pub fn recovery_log_cap(&self) -> usize {
        self.recovery_log.cap()
    }

    /// The workers, in id order.
    pub fn workers(&self) -> &[Worker<M>] {
        &self.workers
    }

    /// Current breaker state.
    pub fn breaker_state(&self) -> BreakerState {
        self.breaker.state()
    }

    /// Breaker state changes so far.
    pub fn breaker_transitions(&self) -> &[BreakerTransition] {
        self.breaker.transitions()
    }

    /// Distinct operand pairs quarantined so far (fleet-wide).
    pub fn quarantined_inputs(&self) -> usize {
        self.quarantine.quarantined_count()
    }

    /// Submit a job. Admission is synchronous and total: the result is
    /// either a [`JobId`] (the job is queued) or an explicit [`Rejected`].
    /// The one operand check ([`Operands::new`], which also counts the
    /// flops and fingerprints the pair), quarantine refusal, deadline
    /// derivation, and DRR enqueue happen here, with every counter bump in
    /// one place.
    pub fn submit(&mut self, spec: JobSpec<M>) -> Result<JobId, Rejected> {
        let c = &mut self.counters;
        c.submitted += 1;
        let t = spec.tenant.0;
        let Some(tenant) = self.cfg.service.tenants.get(t) else {
            c.rejected_invalid += 1;
            return Err(Rejected::UnknownTenant { tenant: spec.tenant });
        };
        let operands = Operands::new(spec.a, spec.b).map_err(|e| {
            c.rejected_invalid += 1;
            match e {
                OperandError::InnerDimensionMismatch { a_cols, b_rows } => {
                    Rejected::InvalidShape { a_cols, b_rows }
                }
                OperandError::Malformed { operand, error } => {
                    Rejected::InvalidOperand { operand, error }
                }
            }
        })?;
        let fingerprint = operands.fingerprint();
        if self.quarantine.is_quarantined(fingerprint) {
            c.rejected_quarantined += 1;
            return Err(Rejected::Quarantined { fingerprint });
        }
        let id = JobId(self.resolutions.len() as u64);
        let pending = Pending {
            id,
            tenant: spec.tenant,
            deadline_cycles: tenant.deadline.deadline_for(operands.flops()),
            operands,
            plan: spec.plan,
            submitted_at: self.clock.now(),
        };
        if self.sched.try_enqueue(pending).is_err() {
            c.rejected_queue_full += 1;
            return Err(Rejected::QueueFull {
                tenant: spec.tenant,
                capacity: tenant.queue_capacity,
            });
        }
        c.accepted += 1;
        self.resolutions.push(None);
        Ok(id)
    }

    /// Cancel a job that is still queued. Returns the cancellation record
    /// when `id` was waiting (the job resolves as
    /// [`Disposition::Cancelled`] with zero service cycles and zero
    /// accelerator attempts, attributed to the host tier), or `None` when
    /// it is unknown or already dispatched — mid-flight work is bounded by
    /// its deadline, not by cancellation.
    pub fn cancel(&mut self, id: JobId) -> Option<FleetRecord> {
        let job = self.sched.remove(id)?;
        self.counters.cancelled += 1;
        let asg = Assignment::new(job, self.clock.now());
        self.resolve(&asg, self.cfg.accel_workers, Disposition::Cancelled, None);
        self.records.last().cloned()
    }

    /// Gracefully drain the fleet: every unresolved job gets at most one
    /// more slice of `slice_budget` accelerator cycles (a job already
    /// mid-slice finishes that slice instead), under the normal dispatch,
    /// breaker, and shedding rules. A fault in it is not retried (drain
    /// wants the machines parked, not healed). A job that pauses resolves
    /// [`Disposition::CheckpointedAtDrain`]; its checkpoint is serialized
    /// through the core checkpoint path, and the summary keeps only the
    /// bytes' size and FNV-1a fingerprint — the bytes themselves are
    /// dropped, so nothing resumes from them. Afterwards `pending() == 0`;
    /// nothing stops new submissions — a server that wants to refuse them
    /// does so at its own admission edge.
    pub fn drain(&mut self, slice_budget: u64) -> DrainSummary {
        let first = self.records.len();
        self.draining = Some(Drain { slice_budget, checkpoints: Vec::new() });
        self.run_to_idle();
        let checkpoints = self.draining.take().map_or_else(Vec::new, |d| d.checkpoints);
        let drained = &self.records[first..];
        let count =
            |d: Disposition| drained.iter().filter(|r| r.record.disposition == d).count() as u64;
        DrainSummary {
            completed_accel: count(Disposition::Completed),
            completed_cpu: count(Disposition::CompletedOnCpu),
            deadline_exceeded: count(Disposition::DeadlineExceeded),
            failed: count(Disposition::Failed),
            checkpoints,
        }
    }

    /// Run until every admitted job resolves and every worker is idle,
    /// hung-and-undetectable-no-more, or retired.
    pub fn run_to_idle(&mut self) {
        while self.step() {}
    }

    /// Dispatch any possible work, then process the earliest scheduled
    /// worker event. `false` when the fleet is fully idle (no events, no
    /// dispatchable backlog).
    pub fn step(&mut self) -> bool {
        self.pump();
        if let Some((at, w)) = self.next_event() {
            self.clock.advance_to(at);
            self.process(w);
            return true;
        }
        // No worker events. A remaining backlog can only be waiting on the
        // open breaker's cooldown: advance idle time to the reopen and try
        // once more.
        if self.backlog() > 0 {
            if let Some(reopen) = self.breaker.reopens_at() {
                self.clock.advance_to(reopen);
                self.pump();
                if let Some((at, w)) = self.next_event() {
                    self.clock.advance_to(at);
                    self.process(w);
                    return true;
                }
            }
        }
        false
    }

    /// Undispatched jobs (scheduler plus recovery queues).
    fn backlog(&self) -> usize {
        self.sched.len() + self.redispatch.len() + self.shed_cpu.len()
    }

    /// Whether CPU worker `w` may pull *fresh* jobs from the scheduler:
    /// all slots activate while the breaker is open, and one slot
    /// activates per retired accelerator worker (the "shed its share"
    /// rule). A half-open breaker does not shed: queued jobs wait for the
    /// probe's verdict.
    fn cpu_slot_active(&self, w: usize) -> bool {
        let idx = w.saturating_sub(self.cfg.accel_workers);
        if self.breaker.state() == BreakerState::Open {
            return true;
        }
        let retired = self
            .workers
            .iter()
            .filter(|wk| wk.class() == WorkerClass::Accelerator && !wk.is_live())
            .count();
        idx < retired.min(self.cfg.cpu_workers)
    }

    /// The earliest scheduled worker event, ties broken by worker id.
    fn next_event(&self) -> Option<(Cycle, usize)> {
        let mut best: Option<(Cycle, usize)> = None;
        for (w, worker) in self.workers.iter().enumerate() {
            let at = match worker.status() {
                WorkerStatus::Busy => worker.pending.as_ref().map(|e| e.at),
                WorkerStatus::Hung => Some(worker.heartbeat_deadline()),
                WorkerStatus::Restarting { until } => Some(until),
                WorkerStatus::Idle | WorkerStatus::Retired => None,
            };
            if let Some(at) = at {
                if best.is_none_or(|(b, _)| at < b) {
                    best = Some((at, w));
                }
            }
        }
        best
    }

    /// Dispatch work to every idle worker that may take it, in worker-id
    /// order (the deterministic SPMC dispatch ring: worker order is fixed,
    /// so a given submission sequence always maps jobs to workers the same
    /// way).
    fn pump(&mut self) {
        let now = self.clock.now();
        for w in 0..self.workers.len() {
            if !self.workers[w].is_idle() {
                continue;
            }
            match self.workers[w].class() {
                WorkerClass::Accelerator => {
                    // Consult the breaker only for a real dispatch: an
                    // expired cooldown turns half-open on the probe itself.
                    if self.redispatch.is_empty() && self.sched.len() == 0 {
                        continue;
                    }
                    if !self.breaker.admits(now) {
                        continue;
                    }
                    if self.breaker.state() == BreakerState::HalfOpen && self.probe_worker.is_some()
                    {
                        // Exactly one probe flows while half-open.
                        continue;
                    }
                    // Recovery queue first (resuming beats starting), then
                    // the DRR scheduler.
                    let fresh = |p| Assignment::new(p, now);
                    let next = self.take_redispatch(w).or_else(|| self.sched.pop().map(fresh));
                    let Some(asg) = next else { continue };
                    self.dispatch_accel(w, asg);
                    if self.breaker.state() == BreakerState::HalfOpen {
                        self.probe_worker = Some(w);
                    }
                }
                WorkerClass::CpuFallback => {
                    if let Some(asg) = self.shed_cpu.pop_front() {
                        self.dispatch_cpu(w, asg);
                        continue;
                    }
                    // With the whole accelerator tier retired, no worker
                    // will ever resume the re-dispatch queue: the CPU tier
                    // absorbs it (resuming beats starting, as on the
                    // accelerator side). Checked against *retirement*, not
                    // liveness — a merely-restarting tier will come back
                    // and should keep its resumable work.
                    let accel_all_retired = self
                        .workers
                        .iter()
                        .filter(|wk| wk.class() == WorkerClass::Accelerator)
                        .all(|wk| wk.status() == WorkerStatus::Retired);
                    if accel_all_retired {
                        if let Some(asg) = self.take_redispatch(w) {
                            self.dispatch_cpu(w, asg);
                            continue;
                        }
                    }
                    if self.cpu_slot_active(w) {
                        if let Some(p) = self.sched.pop() {
                            self.dispatch_cpu(w, Assignment::new(p, now));
                        }
                    }
                }
            }
        }
    }

    /// Pop the re-dispatch queue, suppressing entries that already
    /// resolved (the belt to the requeue-time braces of the at-most-once
    /// guard).
    fn take_redispatch(&mut self, w: usize) -> Option<Assignment<M>> {
        while let Some(asg) = self.redispatch.pop_front() {
            if self.is_resolved(asg.job.id) {
                self.fleet.duplicates_suppressed =
                    self.fleet.duplicates_suppressed.saturating_add(1);
                self.log(w, RecoveryKind::DuplicateCompletionSuppressed { job: asg.job.id });
                continue;
            }
            return Some(asg);
        }
        None
    }

    /// Hand an assignment to an accelerator worker and start its first
    /// slice. The worker adopts the job at its own width
    /// ([`Assignment::adopt`]), which decides whether a re-dispatched job
    /// resumes or restarts from scratch.
    fn dispatch_accel(&mut self, w: usize, mut asg: Assignment<M>) {
        self.workers[w].stats.dispatches = self.workers[w].stats.dispatches.saturating_add(1);
        if let Some(kind) = asg.adopt(self.workers[w].lanes()) {
            let f = &mut self.fleet;
            match kind {
                RecoveryKind::ResumedFromCheckpoint { .. } => {
                    f.resumed_from_checkpoint = f.resumed_from_checkpoint.saturating_add(1);
                }
                _ => f.restarted_from_scratch = f.restarted_from_scratch.saturating_add(1),
            }
            self.log(w, kind);
        }
        self.workers[w].assignment = Some(asg);
        self.workers[w].status = WorkerStatus::Busy;
        self.begin_slice(w);
    }

    /// Hand an assignment to a CPU worker: the host computes the product
    /// outright (no slices, no faults — the reliable tier) and the event
    /// fires after the flop-proportional cycle charge.
    fn dispatch_cpu(&mut self, w: usize, asg: Assignment<M>) {
        let now = self.clock.now();
        let worker = &mut self.workers[w];
        worker.stats.dispatches = worker.stats.dispatches.saturating_add(1);
        let product = spgemm::gustavson(asg.job.operands.a(), asg.job.operands.b());
        let fingerprint = fingerprint_output(&product);
        let cycles = asg
            .job
            .operands
            .flops()
            .saturating_mul(self.cfg.service.cpu_cycles_per_flop.max(1))
            .max(1);
        worker.pending = Some(ScheduledEvent {
            at: Cycle(now.0.saturating_add(cycles)),
            began: now,
            outcome: SliceOutcome::CpuCompleted(fingerprint),
        });
        worker.assignment = Some(asg);
        worker.status = WorkerStatus::Busy;
    }

    /// Start (or continue) the current assignment's next slice on worker
    /// `w`: fire any due worker fault, then run the bounded slice on the
    /// job's live run (started from the assignment's checkpoint on the
    /// dispatch's first slice) and schedule its outcome event.
    fn begin_slice(&mut self, w: usize) {
        let now = self.clock.now();
        if let Some(kind) =
            self.faults.as_mut().and_then(|plan| plan.fire(w, self.workers[w].slices_executed))
        {
            match kind {
                WorkerFault::Crash => {
                    self.fleet.worker_crashes = self.fleet.worker_crashes.saturating_add(1);
                    self.log(w, RecoveryKind::CrashDetected);
                    self.fail_worker(w);
                    return;
                }
                WorkerFault::Hang => {
                    // Silent: no event is scheduled; the heartbeat
                    // deadline poll will find the corpse.
                    self.workers[w].pending = None;
                    self.workers[w].status = WorkerStatus::Hung;
                    return;
                }
                WorkerFault::SlowDown { factor } => {
                    self.fleet.worker_slowdowns = self.fleet.worker_slowdowns.saturating_add(1);
                    self.workers[w].slow_factor = factor.max(2);
                }
                WorkerFault::CrashAfterCompletion => {
                    self.workers[w].crash_after_complete = true;
                }
            }
        }
        let slice = self.draining.as_ref().map_or(self.cfg.slice_cycles, |d| d.slice_budget);
        let worker = &mut self.workers[w];
        let Some(asg) = worker.assignment.as_mut() else {
            worker.status = WorkerStatus::Idle;
            return;
        };
        let Some(accel) = worker.accel.as_ref() else {
            worker.status = WorkerStatus::Idle;
            return;
        };
        let (job, from, live) = (&asg.job, asg.checkpoint.take(), &mut worker.run);
        let (plan, deadline) = (job.plan.as_ref(), job.deadline_cycles);
        let step = slice_step(live, accel, &job.operands, plan, from.as_deref(), slice, deadline);
        // The slice occupies the worker from `executed` to the cycle it
        // reached.
        let reached = match &step {
            SliceStep::Completed(o) => o.stats.total_cycles.max(1),
            SliceStep::Paused(at) | SliceStep::DeadlineExceeded(at) => *at,
            SliceStep::Faulted(e) => Self::fault_cycle_charge(e, job.deadline_cycles),
        };
        let wall =
            reached.saturating_sub(asg.executed).max(1).saturating_mul(worker.slow_factor.max(1));
        worker.pending = Some(ScheduledEvent {
            at: Cycle(now.0.saturating_add(wall)),
            began: now,
            outcome: SliceOutcome::Accel(step),
        });
        worker.status = WorkerStatus::Busy;
    }

    /// Cycles a failed attempt occupied the machine for. Deadlocks report
    /// the cycle the watchdog fired; budget blowouts report the cycles
    /// executed; everything else is charged the job's deadline — a
    /// pessimistic but deterministic bound (detection happened somewhere
    /// inside the run).
    fn fault_cycle_charge(e: &SimError, deadline_cycles: u64) -> u64 {
        match e {
            SimError::Deadlock(d) => d.declared_at.max(1),
            SimError::CycleBudgetExceeded { cycles, .. } => (*cycles).max(1),
            _ => deadline_cycles.max(1),
        }
    }

    /// Process worker `w`'s due event at the (already advanced) clock.
    fn process(&mut self, w: usize) {
        match self.workers[w].status() {
            WorkerStatus::Hung => self.detect_hang(w),
            WorkerStatus::Restarting { .. } => self.finish_restart(w),
            WorkerStatus::Busy => self.apply_slice_event(w),
            WorkerStatus::Idle | WorkerStatus::Retired => {}
        }
    }

    /// The heartbeat deadline ([`Worker::heartbeat_deadline`]) fired for a
    /// hung worker: its silence has exceeded the window, so recycle it.
    fn detect_hang(&mut self, w: usize) {
        self.fleet.worker_hangs = self.fleet.worker_hangs.saturating_add(1);
        self.log(w, RecoveryKind::HangDetected);
        self.fail_worker(w);
    }

    /// A restart completed: rebuild the machine at the worker's (possibly
    /// degraded) lane count and rejoin the pool, or retire if the degraded
    /// shape no longer validates.
    fn finish_restart(&mut self, w: usize) {
        let now = self.clock.now();
        if self.workers[w].rebuild_accel() {
            self.workers[w].status = WorkerStatus::Idle;
            self.workers[w].beat(now);
            let lanes = self.workers[w].lanes();
            self.log(w, RecoveryKind::Restarted { lanes });
        } else {
            self.retire(w);
        }
    }

    /// Apply the scheduled slice outcome for worker `w`.
    fn apply_slice_event(&mut self, w: usize) {
        let now = self.clock.now();
        let Some(event) = self.workers[w].pending.take() else {
            self.workers[w].status = WorkerStatus::Idle;
            return;
        };
        let wall = event.at.0.saturating_sub(event.began.0);
        {
            let stats = &mut self.workers[w].stats;
            stats.busy_cycles = stats.busy_cycles.saturating_add(wall);
        }
        self.workers[w].slices_executed = self.workers[w].slices_executed.saturating_add(1);
        self.workers[w].beat(now);
        match event.outcome {
            SliceOutcome::Accel(SliceStep::Completed(outcome)) => {
                self.breaker.record_success(now);
                self.probe_worker = None;
                self.counters.completed_accel += 1;
                let fingerprint = fingerprint_output(&outcome.c);
                let plan = self.workers[w].assignment.as_ref().and_then(|a| a.job.plan.as_ref());
                if escaped(plan, *outcome) {
                    self.counters.escapes += 1;
                }
                let asg = self.finish(w, Disposition::Completed, Some(fingerprint));
                if self.workers[w].crash_after_complete {
                    // The lost-ack race: the result is recorded, but the
                    // worker dies before recovery bookkeeping sees the
                    // acknowledgement — so the assignment goes back in as
                    // if still in flight, and the at-most-once guard must
                    // suppress the re-dispatch.
                    self.fleet.worker_crashes = self.fleet.worker_crashes.saturating_add(1);
                    self.log(w, RecoveryKind::CrashDetected);
                    self.workers[w].assignment = asg;
                    self.fail_worker(w);
                }
            }
            SliceOutcome::Accel(SliceStep::Paused(at)) if self.draining.is_some() => {
                // The job's one drain slice ended short: park it.
                let worker = &mut self.workers[w];
                let bytes = worker.run.take().map(|run| run.snapshot().to_bytes());
                if let (Some(drain), Some(asg), Some(bytes)) =
                    (self.draining.as_mut(), worker.assignment.as_ref(), bytes)
                {
                    drain.checkpoints.push(DrainedCheckpoint {
                        job: asg.job.id,
                        tenant: asg.job.tenant,
                        paused_at_cycle: at,
                        serialized_bytes: bytes.len(),
                        fingerprint: fnv1a64(&bytes),
                    });
                }
                self.counters.checkpointed_at_drain += 1;
                self.finish(w, Disposition::CheckpointedAtDrain, None);
            }
            SliceOutcome::Accel(SliceStep::Paused(at)) => {
                if let Some(asg) = self.workers[w].assignment.as_mut() {
                    asg.paused(at);
                }
                if wall > self.cfg.heartbeat_window {
                    // The slice took longer than the liveness window: to
                    // every observer this worker was dead. Recycle it; the
                    // job is checkpointed at this boundary and resumes
                    // elsewhere.
                    self.fleet.slowness_detections =
                        self.fleet.slowness_detections.saturating_add(1);
                    self.log(w, RecoveryKind::SlownessDetected);
                    self.fail_worker(w);
                } else {
                    self.begin_slice(w);
                }
            }
            SliceOutcome::Accel(SliceStep::DeadlineExceeded(_)) => {
                self.counters.deadline_exceeded = self.counters.deadline_exceeded.saturating_add(1);
                self.finish(w, Disposition::DeadlineExceeded, None);
            }
            SliceOutcome::Accel(SliceStep::Faulted(_)) => {
                self.breaker.record_failure(now);
                self.probe_worker = None;
                let max_attempts = self.cfg.service.max_attempts.max(1);
                let Some(asg) = self.workers[w].assignment.as_mut() else {
                    self.workers[w].status = WorkerStatus::Idle;
                    return;
                };
                asg.restart();
                if asg.attempts >= max_attempts || self.draining.is_some() {
                    self.fail_job(w);
                    return;
                }
                self.counters.retries += 1;
                if self.breaker.admits(now) {
                    asg.attempts = asg.attempts.saturating_add(1);
                    self.begin_slice(w);
                } else if let Some(asg) = self.workers[w].assignment.take() {
                    // The breaker opened under us: shed the retry to the
                    // CPU tier.
                    self.shed_cpu.push_back(asg);
                    self.workers[w].status = WorkerStatus::Idle;
                }
            }
            SliceOutcome::CpuCompleted(fingerprint) => {
                self.counters.completed_cpu += 1;
                self.finish(w, Disposition::CompletedOnCpu, Some(fingerprint));
            }
        }
    }

    /// Resolve worker `w`'s job as failed and strike its inputs in the
    /// quarantine.
    fn fail_job(&mut self, w: usize) {
        self.counters.failed += 1;
        if let Some(asg) = self.workers[w].assignment.as_ref() {
            self.quarantine.strike(asg.job.operands.fingerprint());
        }
        self.finish(w, Disposition::Failed, None);
    }

    /// Resolve worker `w`'s job and return the worker to the idle pool,
    /// handing back the resolved assignment. A half-open probe that
    /// leaves without a breaker verdict (deadline, drain pause) frees the
    /// probe slot: the next dispatch probes.
    fn finish(
        &mut self,
        w: usize,
        disposition: Disposition,
        output_fingerprint: Option<u64>,
    ) -> Option<Assignment<M>> {
        if self.probe_worker == Some(w) {
            self.probe_worker = None;
        }
        self.workers[w].status = WorkerStatus::Idle;
        self.workers[w].run = None;
        let asg = self.workers[w].assignment.take()?;
        self.resolve(&asg, w, disposition, output_fingerprint);
        let stats = &mut self.workers[w].stats;
        stats.completed = stats.completed.saturating_add(1);
        Some(asg)
    }

    /// The worker-failure path shared by crash, hang, and slowness
    /// detection: requeue the in-flight job (unless already resolved —
    /// the at-most-once guard) with a checkpoint of its live run, then
    /// walk the worker down the recovery ladder: restart → reduced-lanes
    /// restart → retire. Every failure is detected at a slice boundary,
    /// so the run stands at `executed`, the cycle the re-dispatch resumes
    /// from; a job whose run has not started yet keeps the checkpoint it
    /// was dispatched with.
    fn fail_worker(&mut self, w: usize) {
        let now = self.clock.now();
        if self.probe_worker == Some(w) {
            self.probe_worker = None;
        }
        let (run, lanes) = (self.workers[w].run.take(), self.workers[w].lanes());
        if let Some(mut asg) = self.workers[w].assignment.take() {
            if self.is_resolved(asg.job.id) {
                self.fleet.duplicates_suppressed =
                    self.fleet.duplicates_suppressed.saturating_add(1);
                self.log(w, RecoveryKind::DuplicateCompletionSuppressed { job: asg.job.id });
            } else {
                if let Some(run) = run {
                    asg.checkpoint_at(&run, lanes);
                }
                asg.requeued();
                self.fleet.redispatches = self.fleet.redispatches.saturating_add(1);
                self.redispatch.push_back(asg);
            }
        }
        let worker = &mut self.workers[w];
        worker.pending = None;
        worker.slow_factor = 1;
        worker.crash_after_complete = false;
        worker.restarts = worker.restarts.saturating_add(1);
        let step =
            ladder_step(worker.restarts, self.cfg.max_restarts, self.cfg.max_degraded_restarts);
        if step == LadderStep::Retire {
            self.retire(w);
            return;
        }
        if step == LadderStep::Degrade {
            worker.lanes = (worker.lanes / 2).max(1);
            let lanes = worker.lanes;
            self.fleet.worker_degradations = self.fleet.worker_degradations.saturating_add(1);
            self.log(w, RecoveryKind::Degraded { lanes });
        }
        self.fleet.worker_restarts = self.fleet.worker_restarts.saturating_add(1);
        self.workers[w].status = WorkerStatus::Restarting {
            until: Cycle(now.0.saturating_add(self.cfg.restart_cycles)),
        };
    }

    /// Remove a worker from dispatch permanently; the CPU tier absorbs
    /// its share via [`Fleet::cpu_slot_active`].
    fn retire(&mut self, w: usize) {
        self.workers[w].status = WorkerStatus::Retired;
        self.fleet.worker_retirements = self.fleet.worker_retirements.saturating_add(1);
        self.log(w, RecoveryKind::Retired);
    }

    /// Resolve one job with at-most-once accounting: a second resolution
    /// of the same id is counted (it is a bug) and dropped.
    fn resolve(
        &mut self,
        asg: &Assignment<M>,
        w: usize,
        disposition: Disposition,
        output_fingerprint: Option<u64>,
    ) {
        let finished_at = self.clock.now();
        let slot = usize::try_from(asg.job.id.0).ok().and_then(|i| self.resolutions.get_mut(i));
        match slot {
            Some(entry @ None) => {
                *entry = Some(Resolution { finished_at, attempts: asg.attempts, disposition });
                self.resolved = self.resolved.saturating_add(1);
            }
            _ => {
                self.fleet.duplicate_completions =
                    self.fleet.duplicate_completions.saturating_add(1);
                return;
            }
        }
        let fr = FleetRecord {
            record: JobRecord {
                id: asg.job.id,
                tenant: asg.job.tenant,
                submitted_at: asg.job.submitted_at,
                started_at: asg.first_dispatch,
                finished_at,
                estimated_flops: asg.job.operands.flops(),
                deadline_cycles: asg.job.deadline_cycles,
                attempts: asg.attempts,
                disposition,
            },
            worker: WorkerId(w),
            redispatches: asg.redispatches,
            resumed_from_checkpoint: asg.resumed,
            output_fingerprint,
        };
        // Fold per-job observability in here, once, instead of rebuilding
        // it from the full record history on every `metrics()` call: the
        // histogram state is bucket-bounded no matter how many jobs a
        // campaign pushes through.
        let r = &fr.record;
        self.job_metrics
            .add_counter(&format!("tenant.{}.{}", r.tenant.0, r.disposition.label()), 1);
        self.job_metrics.record("job.queue_wait", &CYCLE_BOUNDS, r.queue_wait());
        self.job_metrics.record("job.service_cycles", &CYCLE_BOUNDS, r.service_cycles());
        self.job_metrics.record("job.deadline_slack", &CYCLE_BOUNDS, r.deadline_slack());
        self.records.push(fr);
    }

    fn log(&mut self, w: usize, kind: RecoveryKind) {
        self.recovery_log.push(RecoveryEvent { at: self.clock.now(), worker: WorkerId(w), kind });
    }

    /// Snapshot the fleet's bookkeeping into the workspace's metrics
    /// vocabulary: the `service.*` admission and resolution counters,
    /// `fleet.*` recovery counters, per-worker `worker.<i>.*` utilization
    /// counters, and the job latency histograms. Deterministic, so its fingerprint can ride
    /// a `--strict` replay gate.
    ///
    /// The histograms and tenant disposition counters are accumulated
    /// incrementally at resolution time, so this call is O(workers +
    /// counters) regardless of how many jobs the run has resolved.
    pub fn metrics(&self) -> MetricsRegistry {
        let mut m = self.job_metrics.clone();
        let c = &self.counters;
        for (name, value) in [
            ("service.submitted", c.submitted),
            ("service.accepted", c.accepted),
            ("service.rejected_queue_full", c.rejected_queue_full),
            ("service.rejected_quarantined", c.rejected_quarantined),
            ("service.rejected_invalid", c.rejected_invalid),
            ("service.completed_accel", c.completed_accel),
            ("service.completed_cpu", c.completed_cpu),
            ("service.deadline_exceeded", c.deadline_exceeded),
            ("service.failed", c.failed),
            ("service.retries", c.retries),
            ("service.escapes", c.escapes),
            ("service.pending", self.pending() as u64),
            ("service.quarantined_inputs", self.quarantine.quarantined_count() as u64),
            ("service.breaker_transitions", self.breaker.transitions().len() as u64),
            ("service.breaker_transitions_dropped", self.breaker.transitions_dropped()),
        ] {
            m.set_counter(name, value);
        }
        let f = &self.fleet;
        for (name, value) in [
            ("fleet.worker_crashes", f.worker_crashes),
            ("fleet.worker_hangs", f.worker_hangs),
            ("fleet.worker_slowdowns", f.worker_slowdowns),
            ("fleet.slowness_detections", f.slowness_detections),
            ("fleet.worker_restarts", f.worker_restarts),
            ("fleet.worker_degradations", f.worker_degradations),
            ("fleet.worker_retirements", f.worker_retirements),
            ("fleet.redispatches", f.redispatches),
            ("fleet.resumed_from_checkpoint", f.resumed_from_checkpoint),
            ("fleet.restarted_from_scratch", f.restarted_from_scratch),
            ("fleet.duplicates_suppressed", f.duplicates_suppressed),
            ("fleet.duplicate_completions", f.duplicate_completions),
            ("fleet.recovery_events", self.recovery_log.len() as u64),
            ("fleet.recovery_events_dropped", self.recovery_log.dropped()),
        ] {
            m.set_counter(name, value);
        }
        for worker in &self.workers {
            let i = worker.id().0;
            let stats = worker.stats();
            m.set_counter(&format!("worker.{i}.dispatches"), stats.dispatches);
            m.set_counter(&format!("worker.{i}.completed"), stats.completed);
            m.set_counter(&format!("worker.{i}.busy_cycles"), stats.busy_cycles);
            m.set_counter(&format!("worker.{i}.restarts"), u64::from(worker.restarts()));
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::TenantId;
    use crate::worker::WorkerFaultEvent;
    use matraptor_core::{
        Accelerator, Checkpoint, Driver, FaultKind, FaultPlan, MtxWrite, SliceRun,
    };
    use matraptor_sparse::gen;
    use std::collections::BTreeSet;
    use std::rc::Rc;

    fn spec(tenant: usize, seed: u64) -> JobSpec {
        let a = Rc::new(gen::uniform(32, 32, 200, seed));
        let b = Rc::new(gen::uniform(32, 32, 200, seed + 100));
        JobSpec { tenant: TenantId(tenant), a, b, plan: None }
    }

    fn small_cfg() -> FleetConfig {
        let mut cfg = FleetConfig::small_test();
        // Small slices force multi-slice jobs, exercising the
        // checkpoint/heartbeat path on every job.
        cfg.slice_cycles = 256;
        cfg.restart_cycles = 1_000;
        cfg
    }

    fn submit_batch(fleet: &mut Fleet, n: usize) {
        for i in 0..n {
            fleet.submit(spec(i % 2, 1 + i as u64)).unwrap();
        }
    }

    /// A content fingerprint over everything a campaign report would
    /// serialize, for byte-identity assertions.
    fn report_signature(fleet: &Fleet) -> u64 {
        let mut bytes = Vec::new();
        for r in fleet.records() {
            bytes.extend_from_slice(&r.record.id.0.to_le_bytes());
            bytes.extend_from_slice(&r.record.finished_at.0.to_le_bytes());
            bytes.extend_from_slice(&(r.worker.0 as u64).to_le_bytes());
            bytes.extend_from_slice(r.record.disposition.label().as_bytes());
            bytes.extend_from_slice(&r.output_fingerprint.unwrap_or(0).to_le_bytes());
            bytes.extend_from_slice(&u64::from(r.redispatches).to_le_bytes());
        }
        for e in fleet.recovery_log() {
            bytes.extend_from_slice(&e.at.0.to_le_bytes());
            bytes.extend_from_slice(&(e.worker.0 as u64).to_le_bytes());
            bytes.extend_from_slice(e.kind.label().as_bytes());
        }
        fnv1a64(&bytes)
    }

    fn run_with_faults(events: Vec<WorkerFaultEvent>, jobs: usize, cfg: FleetConfig) -> Fleet {
        let mut cfg = cfg;
        cfg.worker_faults = Some(WorkerFaultPlan::new(events));
        let mut fleet = Fleet::new(cfg).unwrap();
        submit_batch(&mut fleet, jobs);
        fleet.run_to_idle();
        fleet
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    fn a_served_job_costs_the_fleet_sixteen_bytes() {
        assert_eq!(std::mem::size_of::<Option<Resolution>>(), 16);
    }

    #[test]
    fn clean_batch_completes_across_workers_byte_identically() {
        let mut runs = Vec::new();
        for _ in 0..2 {
            let mut fleet = Fleet::new(small_cfg()).unwrap();
            submit_batch(&mut fleet, 12);
            fleet.run_to_idle();
            assert_eq!(fleet.records().len(), 12);
            assert_eq!(fleet.pending(), 0);
            assert!(fleet.records().iter().all(|r| r.record.disposition == Disposition::Completed));
            let distinct: BTreeSet<WorkerId> = fleet.records().iter().map(|r| r.worker).collect();
            assert!(distinct.len() >= 2, "work must spread across workers: {distinct:?}");
            assert_eq!(fleet.fleet_counters().duplicate_completions, 0);
            runs.push((report_signature(&fleet), fleet.metrics().fingerprint()));
        }
        assert_eq!(runs[0], runs[1], "identical submissions must replay byte-identically");
    }

    /// Regression for the bounded observability logs: a hostile plan that
    /// walks every worker down the whole recovery ladder emits far more
    /// recovery events than a small cap retains. The log must stay within
    /// the cap, count what it shed, and the run must still resolve every
    /// job — bounding history must never change outcomes.
    #[test]
    fn recovery_log_stays_bounded_under_a_hostile_plan() {
        let mut cfg = small_cfg();
        cfg.recovery_log_cap = 6;
        cfg.worker_faults = Some(WorkerFaultPlan::sample(0xB0B, 4, 30));
        let mut fleet = Fleet::new(cfg).unwrap();
        submit_batch(&mut fleet, 16);
        fleet.run_to_idle();
        assert_eq!(fleet.records().len(), 16, "hostile runs must still resolve every job");
        assert_eq!(fleet.pending(), 0, "an all-retired tier must still drain its backlog");
        assert!(fleet.recovery_log().len() <= 6, "retained log breaches its cap");
        assert!(fleet.recovery_events_dropped() > 0, "the fault storm must overflow a cap of 6");
        let m = fleet.metrics();
        assert_eq!(m.counter("fleet.recovery_events"), Some(fleet.recovery_log().len() as u64));
        assert_eq!(
            m.counter("fleet.recovery_events_dropped"),
            Some(fleet.recovery_events_dropped())
        );
    }

    #[test]
    fn crash_mid_job_redispatches_and_everything_still_resolves() {
        let events = vec![
            WorkerFaultEvent { worker: 0, after_slices: 1, kind: WorkerFault::Crash },
            WorkerFaultEvent { worker: 1, after_slices: 3, kind: WorkerFault::Crash },
        ];
        let fleet = run_with_faults(events, 8, small_cfg());
        assert_eq!(fleet.records().len(), 8, "every admitted job must resolve");
        assert_eq!(fleet.pending(), 0);
        let f = fleet.fleet_counters();
        assert_eq!(f.worker_crashes, 2);
        assert!(f.redispatches >= 1, "a crashed worker's job must requeue");
        assert!(
            f.resumed_from_checkpoint + f.restarted_from_scratch >= 1,
            "the requeued job must re-dispatch somewhere"
        );
        assert_eq!(f.duplicate_completions, 0);
        let kinds: Vec<&str> = fleet.recovery_log().iter().map(|e| e.kind.label()).collect();
        assert!(kinds.contains(&"crash_detected"), "log: {kinds:?}");
        assert!(kinds.contains(&"restarted"), "log: {kinds:?}");
    }

    /// The fleet snapshots a job's live run only when the job leaves its
    /// worker; that checkpoint is the one a chain of per-slice
    /// `launch_slice` calls would have handed over at the same cycle.
    #[test]
    fn a_crashed_job_carries_the_checkpoint_of_the_launch_slice_chain() {
        let mut cfg = small_cfg();
        cfg.accel_workers = 1;
        let slice = cfg.slice_cycles;
        let crash = WorkerFaultEvent { worker: 0, after_slices: 3, kind: WorkerFault::Crash };
        cfg.worker_faults = Some(WorkerFaultPlan::new(vec![crash]));
        let accel = Accelerator::new(cfg.service.accel.clone());
        let mut fleet = Fleet::new(cfg).unwrap();
        let job = spec(0, 5);
        let (a, b) = (Rc::clone(&job.a), Rc::clone(&job.b));
        fleet.submit(job).unwrap();
        // The lone accelerator worker restarts, so the job waits in the
        // re-dispatch queue.
        while fleet.redispatch.is_empty() {
            assert!(fleet.step(), "the crash must fire before the job drains");
        }
        let asg = &fleet.redispatch[0];
        let live = asg.checkpoint.as_ref().expect("the crashed job carries a checkpoint");
        assert_eq!((live.cycle(), asg.executed), (3 * slice, 3 * slice));
        let mut driver = Driver::new(&accel);
        driver.mtx(MtxWrite::ARows(a.rows() as u64));
        driver.mtx(MtxWrite::BRows(b.rows() as u64));
        driver.mtx(MtxWrite::X0(1));
        let mut chained: Option<Box<Checkpoint>> = None;
        for k in 1..=3 {
            match driver.launch_slice(&a, &b, None, chained.as_deref(), k * slice) {
                Ok(SliceRun::Paused(ck)) => chained = Some(ck),
                other => panic!("slice {k} of the chain: {other:?}"),
            }
        }
        assert!(chained.is_some_and(|ck| ck.to_bytes() == live.to_bytes()));
        fleet.run_to_idle();
        let record = fleet.record(JobId(0)).expect("resolved");
        let clean = accel.try_run(&a, &b).expect("clean run");
        assert!(record.resumed_from_checkpoint);
        assert_eq!(record.record.disposition, Disposition::Completed);
        assert_eq!(record.output_fingerprint, Some(fingerprint_output(&clean.c)));
    }

    #[test]
    fn hang_is_detected_by_the_heartbeat_window() {
        let events = vec![WorkerFaultEvent { worker: 0, after_slices: 0, kind: WorkerFault::Hang }];
        let fleet = run_with_faults(events, 6, small_cfg());
        assert_eq!(fleet.records().len(), 6);
        let f = fleet.fleet_counters();
        assert_eq!(f.worker_hangs, 1);
        assert_eq!(f.duplicate_completions, 0);
        let hang = fleet
            .recovery_log()
            .iter()
            .find(|e| e.kind == RecoveryKind::HangDetected)
            .expect("hang must be logged");
        assert!(
            hang.at.0 > small_cfg().heartbeat_window,
            "detection waits out the liveness window (at {})",
            hang.at.0
        );
    }

    #[test]
    fn slow_worker_breaching_the_window_is_recycled() {
        let mut cfg = small_cfg();
        // Window barely above the slice: any slowdown factor breaches it.
        cfg.heartbeat_window = cfg.slice_cycles;
        let events = vec![WorkerFaultEvent {
            worker: 0,
            after_slices: 0,
            kind: WorkerFault::SlowDown { factor: 50 },
        }];
        let fleet = run_with_faults(events, 6, cfg);
        assert_eq!(fleet.records().len(), 6);
        let f = fleet.fleet_counters();
        assert_eq!(f.worker_slowdowns, 1);
        assert!(f.slowness_detections >= 1, "the breach must be detected");
        assert_eq!(f.duplicate_completions, 0);
    }

    #[test]
    fn lost_ack_crash_is_suppressed_by_at_most_once_accounting() {
        let events = vec![WorkerFaultEvent {
            worker: 0,
            after_slices: 0,
            kind: WorkerFault::CrashAfterCompletion,
        }];
        let fleet = run_with_faults(events, 6, small_cfg());
        let f = fleet.fleet_counters();
        assert_eq!(fleet.records().len(), 6, "the completed result must be kept exactly once");
        assert!(f.duplicates_suppressed >= 1, "the ghost re-dispatch must be suppressed");
        assert_eq!(f.duplicate_completions, 0);
        assert!(f.worker_crashes >= 1);
        let ids: BTreeSet<u64> = fleet.records().iter().map(|r| r.record.id.0).collect();
        assert_eq!(ids.len(), 6, "no job id may resolve twice");
    }

    #[test]
    fn a_taken_record_still_guards_its_id() {
        let mut fleet = Fleet::new(small_cfg()).unwrap();
        submit_batch(&mut fleet, 4);
        fleet.run_to_idle();
        let taken: Vec<JobId> = fleet.take_records().map(|r| r.record.id).collect();
        assert_eq!(taken.len(), 4);
        assert!(fleet.records().is_empty() && fleet.record(taken[0]).is_none());
        assert!(taken.iter().all(|&id| fleet.is_resolved(id)), "the guard outlives the record");
        assert_eq!(fleet.resolved(), 4);
    }

    #[test]
    fn exhausted_ladder_retires_the_worker_and_sheds_to_cpu() {
        let mut cfg = small_cfg();
        cfg.accel_workers = 2;
        cfg.max_restarts = 0;
        cfg.max_degraded_restarts = 0;
        let events =
            vec![WorkerFaultEvent { worker: 0, after_slices: 0, kind: WorkerFault::Crash }];
        let fleet = run_with_faults(events, 8, cfg);
        assert_eq!(fleet.records().len(), 8);
        let f = fleet.fleet_counters();
        assert_eq!(f.worker_retirements, 1);
        assert_eq!(fleet.workers()[0].status(), WorkerStatus::Retired);
        assert!(
            fleet.counters().completed_cpu >= 1,
            "a retired worker's share must shed to the CPU tier"
        );
        assert_eq!(f.duplicate_completions, 0);
    }

    #[test]
    fn degradation_halves_lanes_and_degraded_resume_restarts_from_scratch() {
        let mut cfg = small_cfg();
        cfg.accel_workers = 1;
        cfg.max_restarts = 0;
        cfg.max_degraded_restarts = 2;
        let events =
            vec![WorkerFaultEvent { worker: 0, after_slices: 2, kind: WorkerFault::Crash }];
        let full_lanes = cfg.service.accel.num_lanes();
        let fleet = run_with_faults(events, 4, cfg);
        assert_eq!(fleet.records().len(), 4);
        let f = fleet.fleet_counters();
        assert_eq!(f.worker_degradations, 1);
        assert_eq!(fleet.workers()[0].lanes(), (full_lanes / 2).max(1));
        // The in-flight job's full-width checkpoint no longer fits the
        // degraded worker: it must restart from scratch, not resume.
        assert!(f.restarted_from_scratch >= 1, "counters: {f:?}");
        assert_eq!(f.resumed_from_checkpoint, 0);
        assert_eq!(f.duplicate_completions, 0);
        assert!(fleet
            .recovery_log()
            .iter()
            .any(|e| matches!(e.kind, RecoveryKind::Degraded { .. })));
    }

    /// A checkpoint taken on a degraded worker does not fit a full-width
    /// one: the job restarts from scratch there. The refused resume is
    /// not an accelerator fault, so it costs no attempt and no retry.
    #[test]
    fn a_degraded_workers_checkpoint_restarts_on_a_full_width_worker_without_a_retry() {
        let mut cfg = small_cfg();
        cfg.accel_workers = 2;
        cfg.max_restarts = 0;
        cfg.max_degraded_restarts = 4;
        let events = vec![
            WorkerFaultEvent { worker: 0, after_slices: 1, kind: WorkerFault::Crash },
            WorkerFaultEvent { worker: 0, after_slices: 17, kind: WorkerFault::Crash },
        ];
        let fleet = run_with_faults(events, 2, cfg);
        assert_eq!(fleet.records().len(), 2);
        let record = fleet.record(JobId(0)).expect("job 0 resolved");
        assert_eq!(record.record.disposition, Disposition::Completed);
        assert_eq!(record.record.attempts, 1, "a refused resume is not an attempt");
        assert_eq!(fleet.counters().retries, 0, "a refused resume is not a retry");
        assert_eq!(fleet.counters().failed, 0);
        let f = fleet.fleet_counters();
        assert_eq!(f.redispatches, 2);
        assert_eq!(f.resumed_from_checkpoint + f.restarted_from_scratch, f.redispatches);
    }

    #[test]
    fn faulty_fleet_campaigns_replay_byte_identically() {
        let mut runs = Vec::new();
        for _ in 0..2 {
            let mut cfg = small_cfg();
            cfg.worker_faults = Some(WorkerFaultPlan::sample(0xFEED, 5, 6));
            let mut fleet = Fleet::new(cfg).unwrap();
            submit_batch(&mut fleet, 16);
            fleet.run_to_idle();
            assert_eq!(fleet.records().len(), 16);
            assert_eq!(fleet.fleet_counters().duplicate_completions, 0);
            runs.push((report_signature(&fleet), fleet.metrics().fingerprint()));
        }
        assert_eq!(runs[0], runs[1], "seeded worker faults must replay byte-identically");
    }

    #[test]
    fn fingerprints_separate_different_products() {
        let a = gen::uniform(16, 16, 60, 7);
        let b = gen::uniform(16, 16, 60, 8);
        let c1 = spgemm::gustavson(&a, &b);
        let c2 = spgemm::gustavson(&b, &a);
        assert_eq!(fingerprint_output(&c1), fingerprint_output(&c1));
        assert_ne!(fingerprint_output(&c1), fingerprint_output(&c2));
    }

    #[test]
    fn half_open_breaker_holds_fresh_jobs_for_the_probe() {
        let mut cfg = FleetConfig::small_test();
        cfg.accel_workers = 1;
        cfg.cpu_workers = 1;
        cfg.slice_cycles = u64::MAX;
        cfg.service.max_attempts = 1;
        cfg.service.breaker.failure_threshold = 1;
        cfg.service.breaker.cooldown_cycles = 1_000;
        let lanes = cfg.service.accel.num_lanes();
        let mut fleet = Fleet::new(cfg).unwrap();
        let plan = FaultPlan::sample(FaultKind::ChannelStall, 1, lanes);
        fleet.submit(JobSpec { plan: Some(plan), ..spec(0, 40) }).unwrap();
        fleet.run_to_idle();
        assert_eq!(fleet.breaker_state(), BreakerState::Open);
        // The cooldown lapses in idle time; the next dispatch is the probe.
        let after_cooldown = Cycle(fleet.now().0 + 2_000);
        fleet.advance_to(after_cooldown);
        let probe = fleet.submit(spec(0, 41)).unwrap();
        let held = fleet.submit(spec(0, 42)).unwrap();
        fleet.run_to_idle();
        let probe = fleet.record(probe).unwrap();
        let held = fleet.record(held).unwrap();
        assert_eq!(probe.record.disposition, Disposition::Completed);
        assert_eq!(held.record.disposition, Disposition::Completed, "not shed to the CPU");
        assert_eq!(held.worker, WorkerId(0));
        assert_eq!(held.record.started_at, probe.record.finished_at, "waits for the probe");
        assert_eq!(fleet.counters().completed_cpu, 0);
        assert_eq!(fleet.breaker_state(), BreakerState::Closed);
    }

    #[test]
    fn metrics_expose_fleet_and_per_worker_counters() {
        let events =
            vec![WorkerFaultEvent { worker: 0, after_slices: 1, kind: WorkerFault::Crash }];
        let fleet = run_with_faults(events, 6, small_cfg());
        let m = fleet.metrics();
        assert_eq!(m.counter("service.pending"), Some(0));
        assert_eq!(m.counter("fleet.worker_crashes"), Some(1));
        assert!(m.counter("fleet.recovery_events").unwrap() >= 2);
        assert!(m.counter("worker.0.dispatches").unwrap() >= 1);
        let busy: u64 =
            (0..5).map(|i| m.counter(&format!("worker.{i}.busy_cycles")).unwrap()).sum();
        assert!(busy > 0, "utilization must be attributed to workers");
    }
}
