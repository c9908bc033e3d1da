//! Simulated fleet workers and the worker-level fault model.
//!
//! A [`Worker`] is one execution unit of the fleet: either a full
//! accelerator instance (its own lanes and HBM, modeled by
//! [`Accelerator`]) or a degraded CPU-fallback slot (the SparseZipper-style
//! host tier — orders of magnitude slower, assumed reliable). Workers run
//! jobs in bounded *slices* ([`slice_step`]) on a live [`Run`] started
//! once per dispatch from the operands admission checked, heartbeating at
//! every slice boundary; a worker that stops producing slice events is
//! detected by the fleet's liveness poll at its heartbeat deadline, once
//! its heartbeat has been silent for longer than the configured window. The run is snapshotted into a
//! [`Checkpoint`] only when its job has to leave the worker.
//!
//! Worker failures are injected by a [`WorkerFaultPlan`] — seeded or
//! scripted [`WorkerFaultEvent`]s keyed by `(worker, slice count)`, so a
//! fleet campaign replays bit-identically. This is a *different layer*
//! than the job-level [`FaultPlan`](matraptor_core::FaultPlan): a job
//! fault poisons one run; a worker fault takes down the machine under
//! whatever job it happens to be running.
//!
//! A failed worker walks the recovery ladder ([`ladder_step`]) that the
//! threaded executor's supervisor shares.

use std::ops::Deref;
use std::rc::Rc;

use matraptor_core::{
    classify, Accelerator, Checkpoint, FaultPlan, MatRaptorConfig, Operands, Run, RunOutcome,
    RunStart, SimError, Verdict,
};
use matraptor_sim::Cycle;
use matraptor_sparse::rng::ChaCha8Rng;
use matraptor_sparse::Csr;

use crate::sched::Pending;
use crate::RecoveryKind;

/// Stable fleet-assigned worker identifier (index into the worker table;
/// accelerator workers first, then CPU-fallback workers).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct WorkerId(pub usize);

/// What kind of execution unit a worker is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkerClass {
    /// A full simulated accelerator instance.
    Accelerator,
    /// A host-CPU fallback slot: reliable, but pays
    /// `cpu_cycles_per_flop` per estimated multiply.
    CpuFallback,
}

impl WorkerClass {
    /// Stable lowercase label used in JSON reports.
    pub fn label(self) -> &'static str {
        match self {
            WorkerClass::Accelerator => "accel",
            WorkerClass::CpuFallback => "cpu",
        }
    }
}

/// A worker's lifecycle state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkerStatus {
    /// Healthy and ready for dispatch.
    Idle,
    /// Executing a slice (a completion event is scheduled).
    Busy,
    /// Stopped making progress; produces no events until the fleet's
    /// heartbeat deadline detects it.
    Hung,
    /// Recovering; becomes idle at the embedded cycle.
    Restarting {
        /// When the restart completes.
        until: Cycle,
    },
    /// Permanently removed from dispatch; its share sheds to the CPU tier.
    Retired,
}

impl WorkerStatus {
    /// Stable lowercase label used in JSON reports.
    pub fn label(self) -> &'static str {
        match self {
            WorkerStatus::Idle => "idle",
            WorkerStatus::Busy => "busy",
            WorkerStatus::Hung => "hung",
            WorkerStatus::Restarting { .. } => "restarting",
            WorkerStatus::Retired => "retired",
        }
    }
}

/// A worker failure a [`WorkerFaultPlan`] injects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkerFault {
    /// The worker dies instantly: its in-flight slice is lost (the job
    /// resumes from its last slice boundary) and the fleet detects the
    /// death immediately — process exit is loud.
    Crash,
    /// The worker wedges silently: no more slice events, no heartbeats.
    /// Detection waits for the fleet's liveness window to expire.
    Hang,
    /// The worker keeps running but every slice costs `factor`× the
    /// simulated time. Extreme factors breach the heartbeat window and are
    /// treated as failures; mild ones just drag utilization.
    SlowDown {
        /// Wall-time multiplier on subsequent slices (clamped to ≥ 2).
        factor: u64,
    },
    /// The worker crashes *at the instant its current job completes* —
    /// after the result is recorded but before recovery bookkeeping sees
    /// the acknowledgement. The classic lost-ack race: naive recovery
    /// would re-dispatch (and double-count) the finished job, which the
    /// fleet's at-most-once accounting must suppress.
    CrashAfterCompletion,
}

impl WorkerFault {
    /// Stable lowercase label used in JSON reports.
    pub fn label(self) -> &'static str {
        match self {
            WorkerFault::Crash => "crash",
            WorkerFault::Hang => "hang",
            WorkerFault::SlowDown { .. } => "slowdown",
            WorkerFault::CrashAfterCompletion => "crash_after_completion",
        }
    }
}

/// One scheduled worker failure: fires the first time worker `worker`
/// reaches `after_slices` executed slices (checked at each slice
/// boundary, so triggers are deterministic in the slice count, not in
/// wall cycles).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerFaultEvent {
    /// Target worker id.
    pub worker: usize,
    /// Slice-counter trigger threshold.
    pub after_slices: u64,
    /// What happens.
    pub kind: WorkerFault,
}

/// A deterministic schedule of worker failures for one run of either
/// engine: the discrete-event [`Fleet`](crate::Fleet) and the threaded
/// executor fire it by one rule.
///
/// Events are consumed at most once, in declaration order; at most one
/// event fires per slice boundary per worker (the rest wait for the next
/// boundary), and a worker's slices are counted across its restarts, so
/// two plans with the same events always replay the same failure history.
#[derive(Debug, Clone, Default)]
pub struct WorkerFaultPlan {
    events: Vec<WorkerFaultEvent>,
    consumed: Vec<bool>,
}

impl WorkerFaultPlan {
    /// A plan firing exactly the given events.
    pub fn new(events: Vec<WorkerFaultEvent>) -> Self {
        let consumed = vec![false; events.len()];
        WorkerFaultPlan { events, consumed }
    }

    /// A seeded random plan: `count` events spread over `workers` workers,
    /// with trigger thresholds in `1..=40` slices and kinds weighted
    /// toward crashes (the common failure). Same seed → same plan.
    pub fn sample(seed: u64, workers: usize, count: usize) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut events = Vec::with_capacity(count);
        for _ in 0..count {
            let worker = rng.gen_range(0..workers.max(1));
            let after_slices = rng.gen_range(1u64..41);
            let kind = match rng.gen_range(0u32..10) {
                0..=3 => WorkerFault::Crash,
                4..=6 => WorkerFault::Hang,
                7..=8 => WorkerFault::SlowDown { factor: rng.gen_range(2u64..9) },
                _ => WorkerFault::CrashAfterCompletion,
            };
            events.push(WorkerFaultEvent { worker, after_slices, kind });
        }
        WorkerFaultPlan::new(events)
    }

    /// Scheduled events (fired or not).
    pub fn events(&self) -> &[WorkerFaultEvent] {
        &self.events
    }

    /// Consume and return the first unfired event due for `worker` at
    /// `slices` executed slices, if any.
    pub(crate) fn fire(&mut self, worker: usize, slices: u64) -> Option<WorkerFault> {
        for (i, ev) in self.events.iter().enumerate() {
            if !self.consumed[i] && ev.worker == worker && ev.after_slices <= slices {
                self.consumed[i] = true;
                return Some(ev.kind);
            }
        }
        None
    }
}

/// An in-flight job on (or recovered from) a worker: the admitted job plus
/// everything needed to resume it elsewhere after a worker failure. The
/// fleet and the threaded executor both carry their jobs in it.
#[derive(Debug, Clone)]
pub(crate) struct Assignment<M> {
    /// The admitted job (operands, plan, deadline).
    pub job: Pending<M>,
    /// Accelerator attempts consumed (job-level fault retries); 0 until a
    /// machine first adopts the job.
    pub attempts: u32,
    /// Fleet cycle of the *first* dispatch — queue-wait anchors here even
    /// across re-dispatches.
    pub first_dispatch: Cycle,
    /// Accelerator cycles already executed (the last slice boundary).
    pub executed: u64,
    /// Where the next dispatch resumes: the job's machine at `executed`,
    /// snapshotted when the job left its last worker. Consumed when a
    /// worker starts the job's run.
    pub checkpoint: Option<Box<Checkpoint>>,
    /// Lane count of the machine that took `checkpoint`, the only width
    /// that can resume it: C²SR deals rows to lanes by channel.
    pub checkpoint_lanes: usize,
    /// Worker failures this job has survived.
    pub redispatches: u32,
    /// Whether any dispatch resumed from a checkpoint.
    pub resumed: bool,
}

impl<M: Deref<Target = Csr<f64>>> Assignment<M> {
    /// A job not yet dispatched, first dispatched at `now`.
    pub(crate) fn new(job: Pending<M>, now: Cycle) -> Self {
        Assignment {
            job,
            attempts: 0,
            first_dispatch: now,
            executed: 0,
            checkpoint: None,
            checkpoint_lanes: 0,
            redispatches: 0,
            resumed: false,
        }
    }

    /// Takes the job onto a machine `lanes` wide: the one resume rule of
    /// both engines. A checkpoint taken at this width resumes; anything
    /// else restarts from scratch. Returns which of the two a re-dispatched
    /// job did, as its recovery event, and `None` for a first dispatch.
    pub(crate) fn adopt(&mut self, lanes: usize) -> Option<RecoveryKind> {
        self.attempts = self.attempts.max(1);
        let job = self.job.id;
        if self.checkpoint.is_some() && self.checkpoint_lanes == lanes {
            self.resumed = true;
            return Some(RecoveryKind::ResumedFromCheckpoint { job, at_cycle: self.executed });
        }
        self.restart();
        (self.redispatches > 0).then_some(RecoveryKind::RestartedFromScratch { job })
    }

    /// Records a slice that paused at accelerator cycle `at`.
    pub(crate) fn paused(&mut self, at: u64) {
        self.executed = at;
    }

    /// Drops the checkpoint and the executed cycles: the job's next slice
    /// starts from scratch. A faulted attempt's retry must, because the
    /// armed fault state rides the checkpoint and a resume would refault.
    pub(crate) fn restart(&mut self) {
        self.checkpoint = None;
        self.executed = 0;
    }

    /// Makes `run`, standing at `executed` on a machine `lanes` wide, the
    /// job's recovery point.
    pub(crate) fn checkpoint_at(&mut self, run: &Run<M>, lanes: usize) {
        debug_assert_eq!(run.cycle(), self.executed, "a job leaves at a slice boundary");
        self.checkpoint = Some(Box::new(run.snapshot()));
        self.checkpoint_lanes = lanes;
    }

    /// Counts a worker failure the job survived, as it goes back in line.
    pub(crate) fn requeued(&mut self) {
        self.redispatches = self.redispatches.saturating_add(1);
    }
}

/// How one slice of a job ended — the classification both service
/// engines (the simulated-time fleet and the threaded executor) act on.
#[derive(Debug)]
pub(crate) enum SliceStep {
    /// The job drained inside the slice.
    Completed(Box<RunOutcome>),
    /// The slice ended short of the deadline at this accelerator cycle;
    /// the live run resumes from here.
    Paused(u64),
    /// The job reached its cycle deadline at this accelerator cycle and
    /// is cancelled.
    DeadlineExceeded(u64),
    /// The accelerator faulted inside the slice, or refused the job's
    /// checkpoint before it.
    Faulted(SimError),
}

/// Runs the next slice of a job on its live run, first starting one on
/// `accel` from the job's admitted `operands` if `live` is empty (fresh,
/// arming `plan`, or resuming `from`): advances to `min(executed + slice,
/// deadline)`, where `executed` is the run's cycle — at least one cycle
/// past it, so every slice makes progress. The run stays in `live` only
/// while the job is paused; a resolved or faulted job leaves it empty.
pub(crate) fn slice_step<M: Deref<Target = Csr<f64>> + Clone>(
    live: &mut Option<Run<M>>,
    accel: &Accelerator,
    operands: &Operands<M>,
    plan: Option<&FaultPlan>,
    from: Option<&Checkpoint>,
    slice: u64,
    deadline: u64,
) -> SliceStep {
    let deadline = deadline.max(1);
    let start = from.map_or(RunStart::Fresh { plan, trace: None }, RunStart::Resume);
    let mut run = match live.take().map_or_else(|| accel.start(operands.clone(), start), Ok) {
        Ok(run) => run,
        Err(e) => return SliceStep::Faulted(e),
    };
    let executed = run.cycle();
    let until = executed.saturating_add(slice).min(deadline).max(executed.saturating_add(1));
    match run.advance(until) {
        Ok(true) => match run.finish() {
            Ok(outcome) => SliceStep::Completed(Box::new(outcome)),
            Err(e) => SliceStep::Faulted(e),
        },
        Ok(false) if run.cycle() >= deadline => SliceStep::DeadlineExceeded(run.cycle()),
        Ok(false) => {
            let at = run.cycle();
            *live = Some(run);
            SliceStep::Paused(at)
        }
        Err(e) => SliceStep::Faulted(e),
    }
}

/// Whether a run that completed under `plan` is a silent escape:
/// completion under an injected fault is only acceptable for survivable
/// kinds, and anything else is an escape the campaigns must flag.
pub(crate) fn escaped(plan: Option<&FaultPlan>, outcome: RunOutcome) -> bool {
    plan.is_some_and(|plan| classify(plan.kind, &Ok(outcome)) == Verdict::Escaped)
}

/// What the recovery ladder decided for a failed worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum LadderStep {
    /// Restart at the worker's current width.
    Restart,
    /// Halve the lanes (to at least one), then restart.
    Degrade,
    /// Remove the worker from dispatch permanently.
    Retire,
}

/// The ladder rung for a worker's `restarts`-th failure: `max_restarts`
/// full-width restarts, then `max_degraded` halving restarts, then
/// retirement. The fleet and the threaded supervisor each keep their own
/// counters and recovery log around this one decision.
pub(crate) fn ladder_step(restarts: u32, max_restarts: u32, max_degraded: u32) -> LadderStep {
    if restarts <= max_restarts {
        LadderStep::Restart
    } else if restarts <= max_restarts.saturating_add(max_degraded) {
        LadderStep::Degrade
    } else {
        LadderStep::Retire
    }
}

/// What a scheduled worker event resolves to when it fires. Computed
/// eagerly when the slice starts (the simulation is deterministic, so the
/// outcome is known), applied when simulated time reaches the event.
#[derive(Debug)]
pub(crate) enum SliceOutcome {
    /// An accelerator slice ended this way.
    Accel(SliceStep),
    /// A CPU-fallback worker finished the job; the payload is the output
    /// fingerprint.
    CpuCompleted(u64),
}

/// A scheduled worker event: at `at`, apply `outcome`. `began` anchors the
/// busy-cycle attribution for utilization accounting.
#[derive(Debug)]
pub(crate) struct ScheduledEvent {
    pub at: Cycle,
    pub began: Cycle,
    pub outcome: SliceOutcome,
}

/// Monotone per-worker counters for utilization and recovery reporting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerStats {
    /// Jobs dispatched to this worker (including re-dispatches).
    pub dispatches: u64,
    /// Jobs this worker resolved (any disposition).
    pub completed: u64,
    /// Fleet cycles this worker spent executing (busy, not idle/restarting).
    pub busy_cycles: u64,
}

/// One fleet execution unit. The fleet owns the event loop; the worker
/// owns its machine, its last heartbeat, and its recovery-ladder
/// position. `M` is the fleet's operand handle (see
/// [`JobSpec`](crate::JobSpec)).
#[derive(Debug)]
pub struct Worker<M: Deref<Target = Csr<f64>> = Rc<Csr<f64>>> {
    pub(crate) id: usize,
    pub(crate) class: WorkerClass,
    pub(crate) base_cfg: MatRaptorConfig,
    pub(crate) accel: Option<Accelerator>,
    pub(crate) lanes: usize,
    pub(crate) status: WorkerStatus,
    pub(crate) assignment: Option<Assignment<M>>,
    pub(crate) run: Option<Run<M>>,
    pub(crate) pending: Option<ScheduledEvent>,
    pub(crate) heartbeat_window: u64,
    pub(crate) last_beat: Cycle,
    pub(crate) slow_factor: u64,
    pub(crate) slices_executed: u64,
    pub(crate) restarts: u32,
    pub(crate) crash_after_complete: bool,
    pub(crate) stats: WorkerStats,
}

impl<M: Deref<Target = Csr<f64>>> Worker<M> {
    /// Builds a worker. Accelerator workers get their own machine from the
    /// template config; CPU workers carry none.
    pub(crate) fn new(
        id: usize,
        class: WorkerClass,
        base_cfg: MatRaptorConfig,
        heartbeat_window: u64,
    ) -> Result<Self, matraptor_core::ConfigError> {
        let accel = match class {
            WorkerClass::Accelerator => Some(Accelerator::try_new(base_cfg.clone())?),
            WorkerClass::CpuFallback => None,
        };
        let lanes = base_cfg.num_lanes();
        Ok(Worker {
            id,
            class,
            base_cfg,
            accel,
            lanes,
            status: WorkerStatus::Idle,
            assignment: None,
            run: None,
            pending: None,
            heartbeat_window: heartbeat_window.max(1),
            last_beat: Cycle::ZERO,
            slow_factor: 1,
            slices_executed: 0,
            restarts: 0,
            crash_after_complete: false,
            stats: WorkerStats::default(),
        })
    }

    /// This worker's id.
    pub fn id(&self) -> WorkerId {
        WorkerId(self.id)
    }

    /// This worker's class.
    pub fn class(&self) -> WorkerClass {
        self.class
    }

    /// Current lifecycle state.
    pub fn status(&self) -> WorkerStatus {
        self.status
    }

    /// Current lane count (less than the configured count once degraded).
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Worker failures survived so far (recovery-ladder position).
    pub fn restarts(&self) -> u32 {
        self.restarts
    }

    /// Utilization counters.
    pub fn stats(&self) -> &WorkerStats {
        &self.stats
    }

    /// Record a heartbeat at `now`: the worker proved liveness at a slice
    /// boundary.
    pub(crate) fn beat(&mut self, now: Cycle) {
        self.last_beat = now;
    }

    /// The fleet cycle at which this worker's silence becomes a liveness
    /// violation (the heartbeat deadline of a hung worker): the first cycle
    /// more than `heartbeat_window` past its last beat.
    pub(crate) fn heartbeat_deadline(&self) -> Cycle {
        Cycle(self.last_beat.0.saturating_add(self.heartbeat_window).saturating_add(1))
    }

    /// Whether this worker can accept a dispatch right now.
    pub(crate) fn is_idle(&self) -> bool {
        self.status == WorkerStatus::Idle
    }

    /// Whether the worker still participates in dispatch at all.
    pub(crate) fn is_live(&self) -> bool {
        self.status != WorkerStatus::Retired
    }

    /// Rebuild the accelerator after a restart, honouring the (possibly
    /// degraded) lane count. `false` if the degraded shape is invalid —
    /// the caller retires the worker instead of panicking.
    pub(crate) fn rebuild_accel(&mut self) -> bool {
        if self.class != WorkerClass::Accelerator {
            return true;
        }
        let mut cfg = self.base_cfg.clone();
        cfg.mem.num_channels = self.lanes;
        match Accelerator::try_new(cfg) {
            Ok(accel) => {
                self.accel = Some(accel);
                true
            }
            Err(_) => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_worker(id: usize, class: WorkerClass) -> Worker {
        Worker::new(id, class, MatRaptorConfig::small_test(), 10_000).unwrap()
    }

    #[test]
    fn fault_plan_fires_each_event_once_in_order() {
        let mut plan = WorkerFaultPlan::new(vec![
            WorkerFaultEvent { worker: 0, after_slices: 2, kind: WorkerFault::Crash },
            WorkerFaultEvent { worker: 0, after_slices: 2, kind: WorkerFault::Hang },
            WorkerFaultEvent { worker: 1, after_slices: 5, kind: WorkerFault::Hang },
        ]);
        assert_eq!(plan.fire(0, 1), None, "not due yet");
        assert_eq!(plan.fire(0, 2), Some(WorkerFault::Crash), "first due event fires first");
        assert_eq!(plan.fire(0, 2), Some(WorkerFault::Hang), "one event per call");
        assert_eq!(plan.fire(0, 99), None, "worker 0 exhausted");
        assert_eq!(plan.fire(1, 4), None);
        assert_eq!(plan.fire(1, 5), Some(WorkerFault::Hang));
    }

    #[test]
    fn sampled_plans_are_deterministic_in_the_seed() {
        let a = WorkerFaultPlan::sample(42, 4, 10);
        let b = WorkerFaultPlan::sample(42, 4, 10);
        assert_eq!(a.events(), b.events());
        assert_eq!(a.events().len(), 10);
        let c = WorkerFaultPlan::sample(43, 4, 10);
        assert_ne!(a.events(), c.events(), "different seeds should differ");
        for ev in a.events() {
            assert!(ev.worker < 4);
            assert!((1..=40).contains(&ev.after_slices));
        }
    }

    #[test]
    fn the_heartbeat_deadline_is_the_first_cycle_past_the_window() {
        let mut w = test_worker(0, WorkerClass::Accelerator);
        assert_eq!(w.heartbeat_window, 10_000);
        assert_eq!(w.heartbeat_deadline(), Cycle(10_001), "silent since cycle 0");
        w.beat(Cycle(100));
        assert_eq!(w.heartbeat_deadline(), Cycle(100 + 10_000 + 1));
        // Another beat pushes the deadline out.
        w.beat(Cycle(5_000));
        assert_eq!(w.heartbeat_deadline(), Cycle(15_001));
    }

    #[test]
    fn degraded_rebuild_halves_lanes_and_rejects_invalid_shapes() {
        let mut w = test_worker(0, WorkerClass::Accelerator);
        let full = w.lanes;
        w.lanes = (w.lanes / 2).max(1);
        assert!(w.rebuild_accel(), "halved config must still validate");
        assert!(w.lanes < full);
        assert_eq!(w.accel.as_ref().map(|a| a.config().num_lanes()), Some(w.lanes));
    }

    #[test]
    fn cpu_workers_carry_no_machine() {
        let w = test_worker(5, WorkerClass::CpuFallback);
        assert!(w.accel.is_none());
        assert_eq!(w.class().label(), "cpu");
    }
}
