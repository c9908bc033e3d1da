//! The threaded executor: worker thread bodies (panic-isolated slice
//! execution) and the main-thread submit / merge / recovery loop.
//!
//! Life of a job: the job queue — a `Mutex<VecDeque>` plus a `Condvar`
//! idle workers block on — starts with the whole job list. A worker pops a
//! job's [`Assignment`], adopts it at its own lane width (which decides
//! whether a re-queued job resumes its checkpoint), parks a copy in its
//! supervision mailbox, starts the job's [`Run`] once and
//! advances it slice by slice through the service layer's shared slice
//! step. The run stays live on the worker: after the 1st, 2nd, 4th, 8th, …
//! slice of the dispatch the worker snapshots it into the mailbox as a
//! *recovery point*, so a job takes O(log slices) checkpoints and a failure
//! loses at most half the dispatch's work. On resolution the worker clears
//! the mailbox and appends a [`ParRecord`] to the completion queue. The
//! main thread takes that queue whole on its poll tick — it is never woken
//! per completion — merges completions in arrival order into an id-keyed
//! map (at-most-once: later completions for a resolved id are counted and
//! dropped) and emits the final report sorted by id.
//!
//! Failure is the point. The whole worker body runs under
//! [`std::panic::catch_unwind`]: a panic — injected or organic — becomes a
//! `Down` upcall (the fleet's *Crash*), the supervisor puts the mailbox
//! item back at the queue front from its last recovery point, and the slot
//! walks the restart → reduced-lanes → retire ladder. The resolution core
//! does not depend on where a resume starts, so a coarser recovery point
//! costs only re-executed cycles. Hangs and terminal slowdowns are detected
//! by the heartbeat poll on the main thread's quiet ticks and recycled the
//! same way. If every slot retires, the main thread finishes the queue
//! inline at full width rather than deadlocking.
//!
//! [`Run`]: matraptor_core::Run

use std::collections::{btree_map, BTreeMap, BTreeSet, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, Once, PoisonError};
use std::thread;
use std::time::Duration;

use matraptor_core::{Accelerator, ConfigError, Operands, Run};
use matraptor_sim::Cycle;
use matraptor_sparse::Csr;

use crate::fleet::fingerprint_output;
use crate::job::{Disposition, TenantId};
use crate::sched::Pending;
use crate::worker::{slice_step, Assignment, LadderStep, SliceStep, WorkerFault, WorkerFaultPlan};
use crate::{JobId, RecoveryKind};

use super::supervisor::{lock_unpoisoned, FailCause, GenShared, InjectStats, Supervisor};
use super::{
    PanicRecord, ParCounters, ParJob, ParRecord, ParReport, ParallelConfig, ParallelError, POLL,
    SLOW_UNIT_US, STALL_ABORT_POLLS,
};

/// Worker slot id reported for jobs the main thread ran inline after every
/// worker retired.
pub const INLINE_WORKER: usize = usize::MAX;

/// A job in flight through the job queue, carrying its full recovery
/// context so any worker (or the supervisor) can pick it up statelessly.
pub(crate) type Item = Assignment<Arc<Csr<f64>>>;

/// The queue entry for `job`, or the reason its operands are refused. The
/// executor has one tenant and no simulated clock, so the job's tenant and
/// submission cycle are zero.
fn admit(job: ParJob) -> Result<Item, ParallelError> {
    let operands =
        Operands::new(job.a, job.b).map_err(|e| ParallelError::InvalidOperands(job.id, e))?;
    let pending = Pending {
        id: JobId(job.id),
        tenant: TenantId(0),
        operands,
        plan: job.plan,
        deadline_cycles: job.deadline_cycles,
        submitted_at: Cycle::ZERO,
    };
    Ok(Assignment::new(pending, Cycle::ZERO))
}

/// Worker → main-thread message on the completion queue.
#[derive(Debug)]
pub(crate) enum Upcall {
    /// A job resolved. Provenance (worker, generation) rides inside the
    /// record; the merge is generation-agnostic because the at-most-once
    /// id set subsumes staleness.
    Done { record: ParRecord },
    /// A worker adopted a re-queued job: the recovery event
    /// [`Assignment::adopt`] returned, resumed or restarted from scratch.
    Adopted { worker: usize, kind: RecoveryKind },
    /// The worker thread is exiting abnormally (a panic, recorded for the
    /// census, or a failed accelerator build); its mailbox may hold an
    /// unresolved job.
    Down { worker: usize, generation: u32, panic: Option<PanicRecord> },
}

/// Panic payload for injected worker faults, so the census can tell
/// scripted crashes from organic bugs and the process-global panic hook
/// can keep scripted crashes out of stderr.
#[derive(Debug, Clone, Copy)]
enum InjectedPanic {
    Crash,
    LostAck,
}

/// Silences *injected* panics (they are scripted, expected, and caught)
/// while delegating every other panic to the previously-installed hook.
/// Installed once per process; never removed (tests run concurrently and
/// a remove would race).
fn install_quiet_hook() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<InjectedPanic>().is_none() {
                prev(info);
            }
        }));
    });
}

/// Everything a worker thread needs, shared across all workers.
#[derive(Debug)]
struct WorkerCtx {
    /// The normalized run configuration, its fault plan taken out.
    cfg: ParallelConfig,
    /// The run's one fault plan, fired by every slot at its slice
    /// boundaries; `None` (no lock ever taken) in a run without faults.
    faults: Option<Mutex<WorkerFaultPlan>>,
    shutdown: AtomicBool,
    /// Jobs waiting for a worker; recovered jobs go to the front.
    queue: Mutex<VecDeque<Item>>,
    /// Signalled when `queue` gains jobs, a generation is abandoned, or
    /// the run stops.
    work: Condvar,
    /// Upcalls the main thread takes whole on its poll tick.
    completions: Mutex<VecDeque<Upcall>>,
}

impl WorkerCtx {
    fn new(cfg: &ParallelConfig, faults: Option<WorkerFaultPlan>, queue: VecDeque<Item>) -> Self {
        WorkerCtx {
            cfg: cfg.clone(),
            faults: faults.map(Mutex::new),
            shutdown: AtomicBool::new(false),
            queue: Mutex::new(queue),
            work: Condvar::new(),
            completions: Mutex::new(VecDeque::new()),
        }
    }

    fn stopping(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
    }

    /// Blocks until the queue has a job, or returns `None` once this
    /// generation is abandoned or the run is stopping. Both flags are read
    /// under the queue lock and every setter wakes the condvar after
    /// taking that lock, so no wake-up is lost.
    fn next_item(&self, shared: &GenShared) -> Option<Item> {
        let mut queue = lock_unpoisoned(&self.queue);
        loop {
            if self.stopping() || shared.abandoned.load(Ordering::Acquire) {
                return None;
            }
            if let Some(item) = queue.pop_front() {
                return Some(item);
            }
            queue = self.work.wait(queue).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Puts a recovered job (if any) at the queue front and wakes every
    /// worker: idle ones to take it, abandoned ones to see their flag.
    fn requeue(&self, item: Option<Item>) {
        let mut queue = lock_unpoisoned(&self.queue);
        if let Some(item) = item {
            queue.push_front(item);
        }
        self.work.notify_all();
    }

    /// Stops every worker at its next check and wakes the idle ones.
    fn stop(&self) {
        self.shutdown.store(true, Ordering::Release);
        self.requeue(None);
    }

    fn push_upcall(&self, up: Upcall) {
        lock_unpoisoned(&self.completions).push_back(up);
    }

    fn take_upcalls(&self) -> VecDeque<Upcall> {
        std::mem::take(&mut *lock_unpoisoned(&self.completions))
    }
}

/// How one dispatched item left the slice loop.
enum ItemExit {
    /// Resolved with a record; `bool` is the armed lost-ack crash.
    Resolved(ParRecord, bool),
    /// The supervisor abandoned this generation (job re-queued elsewhere)
    /// or the run is shutting down; leave quietly.
    Interrupted,
}

/// The worker thread entry: everything inside `catch_unwind`, panics
/// mapped to `Down` upcalls.
fn worker_thread(
    ctx: Arc<WorkerCtx>,
    idx: usize,
    generation: u32,
    lanes: usize,
    shared: Arc<GenShared>,
    stats: Arc<InjectStats>,
) {
    let body = catch_unwind(AssertUnwindSafe(|| worker_loop(&ctx, idx, lanes, &shared, &stats)));
    let panic = match body {
        Ok(Ok(())) => return,
        Ok(Err(_)) => None,
        Err(payload) => {
            let injected = payload.downcast_ref::<InjectedPanic>();
            let message = if let Some(kind) = injected {
                format!("injected fault: {kind:?}")
            } else if let Some(s) = payload.downcast_ref::<&str>() {
                (*s).to_string()
            } else if let Some(s) = payload.downcast_ref::<String>() {
                s.clone()
            } else {
                "non-string panic payload".to_string()
            };
            Some(PanicRecord { worker: idx, injected: injected.is_some(), message })
        }
    };
    ctx.push_upcall(Upcall::Down { worker: idx, generation, panic });
}

fn worker_loop(
    ctx: &WorkerCtx,
    idx: usize,
    lanes: usize,
    shared: &GenShared,
    stats: &InjectStats,
) -> Result<(), ConfigError> {
    let mut cfg = ctx.cfg.accel.clone();
    cfg.mem.num_channels = lanes;
    let accel = Accelerator::try_new(cfg)?;
    shared.slow_factor.store(1, Ordering::Relaxed);
    while let Some(item) = ctx.next_item(shared) {
        match run_item(ctx, idx, lanes, &accel, shared, stats, item) {
            ItemExit::Resolved(record, crash_after) => {
                if !crash_after {
                    *lock_unpoisoned(&shared.mailbox) = None;
                }
                ctx.push_upcall(Upcall::Done { record });
                if crash_after {
                    // The completion is queued but the mailbox still holds
                    // the job: the supervisor will re-dispatch it and
                    // the merge must suppress the duplicate — the lost-ack
                    // race, for real.
                    stats.lost_acks.fetch_add(1, Ordering::Relaxed);
                    std::panic::panic_any(InjectedPanic::LostAck);
                }
            }
            ItemExit::Interrupted => return Ok(()),
        }
    }
    Ok(())
}

/// Run one dispatched item slice by slice on a live run until it resolves
/// or the generation is interrupted, publishing recovery points to the
/// mailbox. The item is parked under the mailbox lock, after re-checking
/// the abandon flag that [`Supervisor::take_mailbox`] sets under the same
/// lock; an item popped by an already-abandoned generation goes back to
/// the queue front instead of into a mailbox nobody will read.
fn run_item(
    ctx: &WorkerCtx,
    idx: usize,
    lanes: usize,
    accel: &Accelerator,
    shared: &GenShared,
    stats: &InjectStats,
    mut item: Item,
) -> ItemExit {
    let degraded = lanes != ctx.cfg.accel.num_lanes();
    let adopted;
    {
        let mut mailbox = lock_unpoisoned(&shared.mailbox);
        if shared.abandoned.load(Ordering::Acquire) {
            drop(mailbox);
            ctx.requeue(Some(item));
            return ItemExit::Interrupted;
        }
        adopted = item.adopt(lanes);
        *mailbox = Some(item.clone());
    }
    if let Some(kind) = adopted {
        ctx.push_upcall(Upcall::Adopted { worker: idx, kind });
    }
    let mut run = None;
    let mut slices = 0u64;
    let mut crash_after = false;
    loop {
        if ctx.stopping() || shared.abandoned.load(Ordering::Acquire) {
            return ItemExit::Interrupted;
        }
        // Fire the first event due at this slot's cumulative slice count,
        // as the fleet does: one per boundary, in declaration order.
        let slices_done = stats.slices.load(Ordering::Relaxed);
        let due = ctx.faults.as_ref().and_then(|plan| lock_unpoisoned(plan).fire(idx, slices_done));
        if let Some(fault) = due {
            match fault {
                WorkerFault::Crash => {
                    stats.panics.fetch_add(1, Ordering::Relaxed);
                    std::panic::panic_any(InjectedPanic::Crash);
                }
                WorkerFault::Hang => {
                    stats.hangs.fetch_add(1, Ordering::Relaxed);
                    // Wedge silently: no beats, no upcalls, mailbox keeps
                    // the job. Only the abandon flag (or shutdown) frees
                    // the thread.
                    loop {
                        if ctx.stopping() || shared.abandoned.load(Ordering::Acquire) {
                            return ItemExit::Interrupted;
                        }
                        thread::sleep(POLL);
                    }
                }
                WorkerFault::SlowDown { factor } => {
                    stats.slowdowns.fetch_add(1, Ordering::Relaxed);
                    shared.slow_factor.store(factor.max(2), Ordering::Relaxed);
                }
                WorkerFault::CrashAfterCompletion => crash_after = true,
            }
        }
        // A slowed worker pays its published factor in wall time per slice.
        let slow = shared.slow_factor.load(Ordering::Relaxed);
        if slow > 1 {
            thread::sleep(Duration::from_micros(SLOW_UNIT_US.saturating_mul(slow)));
        }
        let (slice, attempts) = (ctx.cfg.slice_cycles, ctx.cfg.max_attempts);
        let resolved = advance(&mut item, &mut run, accel, slice, attempts, idx, degraded);
        stats.slices.fetch_add(1, Ordering::Relaxed);
        shared.beats.fetch_add(1, Ordering::Relaxed);
        if let Some(record) = resolved {
            return ItemExit::Resolved(record, crash_after);
        }
        // A retried attempt restarts from scratch, so its recovery point
        // is published at once; a paused run only at the doubling points.
        slices += 1;
        if run.is_none() || slices.is_power_of_two() {
            publish(shared, &item, run.as_ref(), lanes);
        }
    }
}

/// Replaces the mailbox's recovery point with `item` at `run`'s current
/// machine, `lanes` wide (no run: a restart from scratch). The snapshot is
/// taken before the lock.
fn publish(shared: &GenShared, item: &Item, run: Option<&Run<Arc<Csr<f64>>>>, lanes: usize) {
    let mut point = item.clone();
    if let Some(run) = run {
        point.checkpoint_at(run, lanes);
    }
    if let Some(parked) = lock_unpoisoned(&shared.mailbox).as_mut() {
        *parked = point;
    }
}

/// Runs `item`'s next slice on its live `run` (started on `accel` if there
/// is none) and folds the result into it: `Some(record)` once the job
/// resolves, `None` while it continues (paused at a slice boundary, or a
/// faulted attempt being retried from scratch).
fn advance(
    item: &mut Item,
    run: &mut Option<Run<Arc<Csr<f64>>>>,
    accel: &Accelerator,
    slice_cycles: u64,
    max_attempts: u32,
    worker: usize,
    degraded_width: bool,
) -> Option<ParRecord> {
    let (job, from) = (&item.job, item.checkpoint.take());
    let (plan, deadline) = (job.plan.as_ref(), job.deadline_cycles);
    let step = slice_step(run, accel, &job.operands, plan, from.as_deref(), slice_cycles, deadline);
    let (disposition, executed_cycles, output_fingerprint) = match step {
        SliceStep::Completed(outcome) => (
            Disposition::Completed,
            outcome.stats.total_cycles,
            Some(fingerprint_output(&outcome.c)),
        ),
        SliceStep::Paused(at) => {
            item.paused(at);
            return None;
        }
        SliceStep::DeadlineExceeded(at) => (Disposition::DeadlineExceeded, at, None),
        SliceStep::Faulted(_) if item.attempts < max_attempts => {
            item.attempts = item.attempts.saturating_add(1);
            item.restart();
            return None;
        }
        SliceStep::Faulted(_) => (Disposition::Failed, item.executed, None),
    };
    Some(ParRecord {
        id: item.job.id.0,
        disposition,
        worker,
        attempts: item.attempts,
        redispatches: item.redispatches,
        resumed_from_checkpoint: item.resumed,
        degraded_width,
        executed_cycles,
        output_fingerprint,
    })
}

/// Run `jobs` to resolution on `cfg.threads` worker threads and merge the
/// results into an id-ordered [`ParReport`].
///
/// The report's *resolution core* (id, disposition, output fingerprint)
/// is deterministic: identical across thread counts and equal to a
/// discrete-event [`Fleet`](crate::Fleet) run of the same jobs, as long
/// as no reduced-width worker completes a job (see the module docs'
/// lane-width caveat; strict campaigns assert
/// [`ParCounters::degraded_completions`] is zero). Counters, the recovery
/// log, and the panic census are timing-dependent observability.
///
/// # Errors
///
/// [`ParallelError::InvalidAccelConfig`] if the template fails
/// validation, [`ParallelError::DuplicateJobId`] on a repeated id,
/// [`ParallelError::InvalidOperands`] for a job whose operands
/// [`Operands::new`] refuses (every job is checked before any runs), and
/// [`ParallelError::Stalled`] if the run stops making progress past the
/// stall-abort budget (workers are then abandoned and joined under the
/// bounded budget before the error returns).
pub fn run(cfg: ParallelConfig, jobs: Vec<ParJob>) -> Result<ParReport, ParallelError> {
    let mut cfg = cfg.normalized();
    let faults = cfg.worker_faults.take();
    // Built once up front: it validates the template and runs the inline
    // fallback if every slot retires.
    let inline_accel = Accelerator::try_new(cfg.accel.clone())
        .map_err(|e| ParallelError::InvalidAccelConfig(format!("{e:?}")))?;
    let mut seen = BTreeSet::new();
    for job in &jobs {
        if !seen.insert(job.id) {
            return Err(ParallelError::DuplicateJobId(job.id));
        }
    }
    let queue: VecDeque<_> = jobs.into_iter().map(admit).collect::<Result<_, _>>()?;
    install_quiet_hook();

    let total = queue.len();
    let ctx = Arc::new(WorkerCtx::new(&cfg, faults, queue));
    let mut sup = Supervisor::new(
        cfg.threads,
        cfg.accel.num_lanes(),
        cfg.max_restarts,
        cfg.max_degraded_restarts,
        cfg.recovery_log_cap,
    );
    let mut counters = ParCounters::default();
    let mut census: Vec<PanicRecord> = Vec::new();
    for i in 0..cfg.threads {
        spawn_worker(&ctx, &mut sup, i);
    }

    let mut records: BTreeMap<u64, ParRecord> = BTreeMap::new();
    let mut stalled_polls = 0u64;
    while records.len() < total {
        // Total retirement: finish everything inline at full width rather
        // than deadlock on an empty fleet.
        if sup.all_retired() {
            let leftovers = std::mem::take(&mut *lock_unpoisoned(&ctx.queue));
            for mut item in leftovers {
                if records.contains_key(&item.job.id.0) {
                    continue;
                }
                counters.inline_fallbacks = counters.inline_fallbacks.saturating_add(1);
                if let Some(kind) = item.adopt(cfg.accel.num_lanes()) {
                    sup.adopted(INLINE_WORKER, kind, &mut counters);
                }
                let record = run_inline(&inline_accel, &cfg, item);
                merge(record, &mut records, &mut counters, &mut sup);
            }
            // Completions from dying workers may still be in flight; fall
            // through to take them.
        }

        let upcalls = ctx.take_upcalls();
        if !upcalls.is_empty() {
            stalled_polls = 0;
            for up in upcalls {
                match up {
                    Upcall::Done { record } => {
                        merge(record, &mut records, &mut counters, &mut sup);
                    }
                    Upcall::Adopted { worker, kind } => sup.adopted(worker, kind, &mut counters),
                    Upcall::Down { worker, generation, panic } => {
                        census.extend(panic);
                        // A stale generation's death rattle is census only:
                        // its mailbox was recovered when it was recycled.
                        if generation == sup.slots[worker].generation {
                            sup.record(worker, RecoveryKind::CrashDetected);
                            recycle(&ctx, &mut sup, &mut counters, worker);
                        }
                    }
                }
            }
            continue;
        }

        // Quiet tick: one liveness poll (so the hang budget counts
        // `POLL`-spaced polls, not hot-loop iterations), then sleep.
        // Recovery actions count as progress.
        let victims = sup.poll_liveness();
        if victims.is_empty() {
            stalled_polls = stalled_polls.saturating_add(1);
            if stalled_polls > STALL_ABORT_POLLS {
                ctx.stop();
                sup.shutdown_join(&mut counters);
                return Err(ParallelError::Stalled { resolved: records.len(), total });
            }
            thread::sleep(POLL);
            continue;
        }
        stalled_polls = 0;
        for (victim, cause) in victims {
            match cause {
                FailCause::Hang => {
                    counters.hangs_detected = counters.hangs_detected.saturating_add(1);
                    sup.record(victim, RecoveryKind::HangDetected);
                }
                FailCause::Slowness => {
                    counters.slowness_detections = counters.slowness_detections.saturating_add(1);
                    sup.record(victim, RecoveryKind::SlownessDetected);
                }
            }
            recycle(&ctx, &mut sup, &mut counters, victim);
        }
    }

    // Drain barrier: stop the fleet, join with bounded budgets, census.
    ctx.stop();
    sup.shutdown_join(&mut counters);
    // Late completions from workers that resolved a job racing the
    // shutdown flag: account them as duplicates/records like any other.
    for up in ctx.take_upcalls() {
        match up {
            Upcall::Done { record } => merge(record, &mut records, &mut counters, &mut sup),
            Upcall::Adopted { worker, kind } => sup.adopted(worker, kind, &mut counters),
            Upcall::Down { panic, .. } => census.extend(panic),
        }
    }
    let caught = u64::try_from(census.len()).unwrap_or(u64::MAX);
    counters.panics_caught = counters.panics_caught.saturating_add(caught);
    for slot in &sup.slots {
        counters.injected_panics =
            counters.injected_panics.saturating_add(slot.stats.panics.load(Ordering::Relaxed));
        counters.injected_hangs =
            counters.injected_hangs.saturating_add(slot.stats.hangs.load(Ordering::Relaxed));
        counters.injected_slowdowns = counters
            .injected_slowdowns
            .saturating_add(slot.stats.slowdowns.load(Ordering::Relaxed));
        counters.injected_lost_acks = counters
            .injected_lost_acks
            .saturating_add(slot.stats.lost_acks.load(Ordering::Relaxed));
    }

    let recovery_events_dropped = sup.log.dropped();
    let recovery_log = sup.log.into_entries();
    Ok(ParReport {
        records: records.into_values().collect(),
        counters,
        recovery_log,
        recovery_events_dropped,
        panic_census: census,
    })
}

/// Spawns the thread of slot `idx`'s current generation.
fn spawn_worker(ctx: &Arc<WorkerCtx>, sup: &mut Supervisor, idx: usize) {
    let slot = &mut sup.slots[idx];
    let ctx = Arc::clone(ctx);
    let (generation, lanes) = (slot.generation, slot.lanes);
    let (shared, stats) = (Arc::clone(&slot.shared), Arc::clone(&slot.stats));
    slot.handle =
        Some(thread::spawn(move || worker_thread(ctx, idx, generation, lanes, shared, stats)));
}

/// Recycles slot `idx` after its thread died or was declared hung or
/// terminally slow: its in-flight job goes back to the queue front, and the
/// slot walks one ladder rung and, unless it retires, gets a new thread.
fn recycle(ctx: &Arc<WorkerCtx>, sup: &mut Supervisor, counters: &mut ParCounters, idx: usize) {
    let item = sup.take_mailbox(idx, counters);
    let step = sup.ladder(idx, counters);
    sup.new_generation(idx);
    if step != LadderStep::Retire {
        spawn_worker(ctx, sup, idx);
    }
    ctx.requeue(item);
}

/// Merges one completion at-most-once: a later completion for a resolved
/// id is counted and dropped.
fn merge(
    record: ParRecord,
    records: &mut BTreeMap<u64, ParRecord>,
    counters: &mut ParCounters,
    sup: &mut Supervisor,
) {
    match records.entry(record.id) {
        btree_map::Entry::Occupied(_) => {
            counters.duplicates_suppressed = counters.duplicates_suppressed.saturating_add(1);
            sup.record(
                record.worker,
                RecoveryKind::DuplicateCompletionSuppressed { job: JobId(record.id) },
            );
        }
        btree_map::Entry::Vacant(slot) => {
            if record.degraded_width && record.disposition == Disposition::Completed {
                counters.degraded_completions = counters.degraded_completions.saturating_add(1);
            }
            slot.insert(record);
        }
    }
}

/// Main-thread fallback execution at full width, used only after every
/// worker slot retired, of a job the caller has adopted: the same slice
/// loop as a worker, without the injection, mailbox, and heartbeats.
fn run_inline(accel: &Accelerator, cfg: &ParallelConfig, mut item: Item) -> ParRecord {
    let mut run = None;
    loop {
        let (slice, attempts) = (cfg.slice_cycles, cfg.max_attempts);
        if let Some(record) =
            advance(&mut item, &mut run, accel, slice, attempts, INLINE_WORKER, false)
        {
            return record;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The lost-job race: a slowness victim is still live, so it can pop a
    /// job after the supervisor has already taken its mailbox. Parking that
    /// job would strand it in a mailbox nobody reads; it must go back to
    /// the queue front instead.
    #[test]
    fn an_abandoned_generation_hands_its_popped_job_back_to_the_queue_front() {
        let cfg = ParallelConfig::small_test();
        let m = Arc::new(Csr::<f64>::identity(4));
        let item = |id| {
            let (a, b) = (Arc::clone(&m), Arc::clone(&m));
            let job = ParJob { id, a, b, plan: None, deadline_cycles: u64::MAX };
            admit(job).expect("valid operands")
        };
        let ctx = WorkerCtx::new(&cfg, None, VecDeque::from([item(0), item(1)]));
        let lanes = cfg.accel.num_lanes();
        let mut sup = Supervisor::new(1, lanes, 1, 1, 16);
        let shared = Arc::clone(&sup.slots[0].shared);
        let popped = ctx.next_item(&shared).expect("a queued job");
        assert!(sup.take_mailbox(0, &mut ParCounters::default()).is_none(), "idle mailbox");

        let accel = Accelerator::try_new(cfg.accel.clone()).expect("valid template");
        let stats = InjectStats::default();
        let exit = run_item(&ctx, 0, lanes, &accel, &shared, &stats, popped);
        assert!(matches!(exit, ItemExit::Interrupted));
        assert!(lock_unpoisoned(&shared.mailbox).is_none(), "nothing parked after the take");
        let queued: Vec<u64> = lock_unpoisoned(&ctx.queue).iter().map(|i| i.job.id.0).collect();
        assert_eq!(queued, [0, 1], "the popped job is back at the front");
    }
}
