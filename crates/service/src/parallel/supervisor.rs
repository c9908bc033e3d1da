//! Worker-slot supervision for the threaded executor: heartbeat liveness
//! polling, the restart → reduced-lanes → retire ladder, and bounded-join
//! shutdown.
//!
//! Each worker *slot* owns one OS thread at a time; a failed thread is
//! replaced by a new *generation* with a fresh [`GenShared`] (so a hung
//! zombie of generation N can never beat, publish, or poison the state of
//! generation N+1). Injection statistics live in the slot-level
//! [`InjectStats`], shared across generations, because the run's one
//! `WorkerFaultPlan` fires on cumulative slices per slot — the same
//! contract as the discrete-event fleet.
//!
//! The supervisor never blocks on a worker: detection is polling over
//! atomics, recovery is taking the victim's mailbox and re-queueing it,
//! and shutdown joins are bounded — a thread that ignores its abandon flag
//! past the join budget is leaked and counted, never waited on forever.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;

use matraptor_sim::Cycle;

use crate::bounded::BoundedLog;
use crate::worker::{ladder_step, LadderStep, WorkerId};
use crate::{RecoveryEvent, RecoveryKind};

use super::executor::Item;
use super::{ParCounters, HANG_POLL_BUDGET, JOIN_BUDGET_POLLS, POLL, TERMINAL_SLOW_FACTOR};

/// State shared between one worker *generation* and the supervisor.
#[derive(Debug, Default)]
pub(crate) struct GenShared {
    /// Heartbeat counter: bumped at every slice boundary. An idle worker
    /// blocks on the job queue without beating; a busy worker whose
    /// counter stops moving is hung.
    pub beats: AtomicU64,
    /// Slowdown factor the worker currently suffers (1 = nominal),
    /// published by injection so the supervisor can detect terminal
    /// slowness without wall-clock reads.
    pub slow_factor: AtomicU64,
    /// Supervisor → worker: stop at the next slice boundary; your job has
    /// been re-queued elsewhere. Set under the mailbox lock when the
    /// supervisor takes the mailbox, so a worker that parks a job under
    /// that lock either has it recovered or sees the flag first.
    pub abandoned: AtomicBool,
    /// The worker's in-flight job, parked at dispatch and given a fresh
    /// checkpoint of its live run after the 1st, 2nd, 4th, 8th, … slice
    /// of the dispatch (a *recovery point*) — the supervisor recovers it
    /// from here after a failure, so a panic or hang loses at most half
    /// the dispatch's progress.
    pub mailbox: Mutex<Option<Item>>,
}

/// Locks a possibly-poisoned mutex: a worker that panicked while holding
/// its mailbox must not also lose the checkpoint inside (the lock data is
/// plain state, valid regardless of where the panic landed).
pub(crate) fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Slot-level injection statistics, shared across worker generations.
#[derive(Debug, Default)]
pub(crate) struct InjectStats {
    /// Cumulative slices executed by this slot, across its generations:
    /// the count the fault plan's `after_slices` thresholds compare to.
    pub slices: AtomicU64,
    /// Injected `Crash` panics fired.
    pub panics: AtomicU64,
    /// Injected `Hang`s fired.
    pub hangs: AtomicU64,
    /// Injected `SlowDown`s fired.
    pub slowdowns: AtomicU64,
    /// Injected `CrashAfterCompletion` panics fired.
    pub lost_acks: AtomicU64,
}

/// Why the liveness poll is recycling a slot (panics arrive through the
/// completion queue instead — death is loud, these are silent).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FailCause {
    /// Busy with no heartbeat progress across the poll budget.
    Hang,
    /// Published slowdown factor reached the terminal threshold.
    Slowness,
}

/// One worker slot: the current generation's thread + shared state and
/// the ladder position.
#[derive(Debug)]
pub(crate) struct Slot {
    pub idx: usize,
    /// Current lane width (halved by the degradation rung).
    pub lanes: usize,
    /// Generation counter; stale upcalls from dead generations are
    /// recognized by carrying an older value.
    pub generation: u32,
    /// Restarts consumed so far (full + degraded).
    pub restarts: u32,
    pub retired: bool,
    pub shared: Arc<GenShared>,
    pub stats: Arc<InjectStats>,
    pub handle: Option<JoinHandle<()>>,
    /// Heartbeat value at the last liveness poll.
    pub last_beats: u64,
    /// Consecutive polls with a busy worker and no beat progress.
    pub stale_polls: u32,
    /// Handles of abandoned (hung/slow) threads still winding down; joined
    /// with the same bounded budget at shutdown.
    pub zombies: Vec<JoinHandle<()>>,
}

impl Slot {
    pub(crate) fn new(idx: usize, lanes: usize) -> Self {
        Slot {
            idx,
            lanes,
            generation: 0,
            restarts: 0,
            retired: false,
            shared: Arc::new(GenShared::default()),
            stats: Arc::new(InjectStats::default()),
            handle: None,
            last_beats: 0,
            stale_polls: 0,
            zombies: Vec::new(),
        }
    }
}

/// The supervisor bookkeeping: slots, the recovery log, and ladder
/// tunables. Thread spawning stays in the executor (it owns the queues and
/// worker configuration); the supervisor owns *decisions*.
#[derive(Debug)]
pub(crate) struct Supervisor {
    pub slots: Vec<Slot>,
    pub log: BoundedLog<RecoveryEvent>,
    /// Monotone event sequence used as the recovery log's timestamp: the
    /// threaded executor has no simulated clock, and wall-clock reads are
    /// banned, so log order is "supervisor observation order".
    seq: u64,
    max_restarts: u32,
    max_degraded_restarts: u32,
}

impl Supervisor {
    pub(crate) fn new(
        threads: usize,
        template_lanes: usize,
        max_restarts: u32,
        max_degraded_restarts: u32,
        recovery_log_cap: usize,
    ) -> Self {
        let slots = (0..threads).map(|i| Slot::new(i, template_lanes)).collect();
        Supervisor {
            slots,
            log: BoundedLog::new(recovery_log_cap),
            seq: 0,
            max_restarts,
            max_degraded_restarts,
        }
    }

    pub(crate) fn record(&mut self, worker: usize, kind: RecoveryKind) {
        self.seq = self.seq.saturating_add(1);
        self.log.push(RecoveryEvent { at: Cycle(self.seq), worker: WorkerId(worker), kind });
    }

    pub(crate) fn all_retired(&self) -> bool {
        self.slots.iter().all(|s| s.retired)
    }

    /// Walk slot `idx` one rung down the ladder, recording the decision.
    /// `Retire` means the caller must not respawn.
    pub(crate) fn ladder(&mut self, idx: usize, counters: &mut ParCounters) -> LadderStep {
        let slot = &mut self.slots[idx];
        slot.restarts = slot.restarts.saturating_add(1);
        let step = ladder_step(slot.restarts, self.max_restarts, self.max_degraded_restarts);
        match step {
            LadderStep::Restart => {}
            LadderStep::Degrade => slot.lanes = (slot.lanes / 2).max(1),
            LadderStep::Retire => slot.retired = true,
        }
        let lanes = slot.lanes;
        match step {
            LadderStep::Restart => {
                counters.worker_restarts = counters.worker_restarts.saturating_add(1);
                self.record(idx, RecoveryKind::Restarted { lanes });
            }
            LadderStep::Degrade => {
                counters.worker_degradations = counters.worker_degradations.saturating_add(1);
                counters.worker_restarts = counters.worker_restarts.saturating_add(1);
                self.record(idx, RecoveryKind::Degraded { lanes });
                self.record(idx, RecoveryKind::Restarted { lanes });
            }
            LadderStep::Retire => {
                counters.worker_retirements = counters.worker_retirements.saturating_add(1);
                self.record(idx, RecoveryKind::Retired);
            }
        }
        step
    }

    /// Abandon slot `idx`'s current generation (its thread died or is being
    /// recycled) and take its in-flight job for re-dispatch. The flag is
    /// set under the mailbox lock, so the worker cannot park a job after
    /// this that nobody will read. Whether the job resumes is decided, and
    /// counted, when a worker adopts it ([`adopted`](Self::adopted)).
    pub(crate) fn take_mailbox(&mut self, idx: usize, counters: &mut ParCounters) -> Option<Item> {
        let shared = &self.slots[idx].shared;
        let mut item = {
            let mut mailbox = lock_unpoisoned(&shared.mailbox);
            shared.abandoned.store(true, Ordering::Release);
            mailbox.take()
        }?;
        counters.redispatches = counters.redispatches.saturating_add(1);
        item.requeued();
        Some(item)
    }

    /// Counts and logs the recovery event of a re-queued job that slot
    /// `idx` adopted ([`Assignment::adopt`](crate::worker::Assignment::adopt)).
    pub(crate) fn adopted(&mut self, idx: usize, kind: RecoveryKind, counters: &mut ParCounters) {
        match kind {
            RecoveryKind::ResumedFromCheckpoint { .. } => {
                counters.resumed_from_checkpoint =
                    counters.resumed_from_checkpoint.saturating_add(1);
            }
            _ => {
                counters.restarted_from_scratch = counters.restarted_from_scratch.saturating_add(1)
            }
        }
        self.record(idx, kind);
    }

    /// One liveness poll over every live slot. Returns the slots (with
    /// cause) that must be recycled: hung (busy, no beat progress across
    /// the poll budget) or terminally slow (published factor past the
    /// threshold). Detection only — the executor owns the recycle.
    pub(crate) fn poll_liveness(&mut self) -> Vec<(usize, FailCause)> {
        let mut victims = Vec::new();
        for slot in &mut self.slots {
            if slot.retired || slot.handle.is_none() {
                continue;
            }
            if slot.shared.slow_factor.load(Ordering::Relaxed) >= TERMINAL_SLOW_FACTOR {
                victims.push((slot.idx, FailCause::Slowness));
                continue;
            }
            let beats = slot.shared.beats.load(Ordering::Relaxed);
            let busy = lock_unpoisoned(&slot.shared.mailbox).is_some();
            if busy && beats == slot.last_beats {
                slot.stale_polls = slot.stale_polls.saturating_add(1);
                if slot.stale_polls > HANG_POLL_BUDGET {
                    slot.stale_polls = 0;
                    victims.push((slot.idx, FailCause::Hang));
                }
            } else {
                slot.stale_polls = 0;
            }
            slot.last_beats = beats;
        }
        victims
    }

    /// Begin a new generation for slot `idx`, whose old generation
    /// [`take_mailbox`](Self::take_mailbox) abandoned: the old thread's
    /// handle moves to the zombie list for bounded joining at shutdown, and
    /// fresh generation state is installed for the executor to spawn a
    /// thread around.
    pub(crate) fn new_generation(&mut self, idx: usize) {
        let slot = &mut self.slots[idx];
        if let Some(h) = slot.handle.take() {
            slot.zombies.push(h);
        }
        slot.generation = slot.generation.saturating_add(1);
        slot.shared = Arc::new(GenShared::default());
        slot.shared.slow_factor.store(1, Ordering::Relaxed);
        slot.last_beats = 0;
        slot.stale_polls = 0;
    }

    /// Drain barrier: abandon every live thread, then join each handle
    /// (live and zombie) under a bounded poll budget. A thread that does
    /// not finish inside its budget is leaked and counted — a wedged
    /// worker degrades the shutdown, never deadlocks it.
    pub(crate) fn shutdown_join(&mut self, counters: &mut ParCounters) {
        let mut handles = Vec::new();
        for slot in &mut self.slots {
            slot.shared.abandoned.store(true, Ordering::Release);
            if let Some(h) = slot.handle.take() {
                handles.push(h);
            }
            handles.append(&mut slot.zombies);
        }
        for handle in handles {
            let mut finished = handle.is_finished();
            let mut polls = 0u32;
            while !finished && polls < JOIN_BUDGET_POLLS {
                std::thread::sleep(POLL);
                polls = polls.saturating_add(1);
                finished = handle.is_finished();
            }
            if finished {
                // The thread has already returned; join() only reaps it.
                // A panicking body was caught by catch_unwind, so a Err
                // here would mean a panic in the catch handler itself —
                // count it rather than propagate at shutdown.
                if handle.join().is_err() {
                    counters.panics_caught = counters.panics_caught.saturating_add(1);
                }
            } else {
                counters.wedged_threads = counters.wedged_threads.saturating_add(1);
                drop(handle);
            }
        }
    }
}
