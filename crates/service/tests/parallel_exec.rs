//! Integration tests for the threaded fleet executor
//! (`matraptor_service::parallel`): resolution-core determinism across
//! thread counts, fault injection through the recovery ladder, the
//! lost-ack duplicate race, and total-retirement inline fallback.

use std::sync::Arc;

use matraptor_core::{FaultKind, FaultPlan, OperandError};
use matraptor_service::parallel::{self, ParJob, ParallelConfig, ParallelError};
use matraptor_service::{
    Disposition, JobId, RecoveryKind, WorkerFault, WorkerFaultEvent, WorkerFaultPlan,
};
use matraptor_sparse::{gen, Csr, SparseError};

fn jobs(count: u64, deadline: u64) -> Vec<ParJob> {
    (0..count)
        .map(|i| {
            let a = Arc::new(gen::uniform(16, 16, 60, i * 2 + 1));
            let b = Arc::new(gen::uniform(16, 16, 60, i * 2 + 2));
            ParJob { id: i, a, b, plan: None, deadline_cycles: deadline }
        })
        .collect()
}

fn base_cfg(threads: usize) -> ParallelConfig {
    let mut cfg = ParallelConfig::small_test();
    cfg.threads = threads;
    cfg
}

/// One worker with `event` injected. The event names a slot and a slice
/// count; with one worker every slice runs on slot 0, so the event always
/// fires. With more, another slot can drain the queue before slot 0 starts
/// the addressed slice.
fn faulted_cfg(event: WorkerFaultEvent) -> ParallelConfig {
    let mut cfg = base_cfg(1);
    cfg.worker_faults = Some(WorkerFaultPlan::new(vec![event]));
    cfg
}

/// 160 jobs keep the job queue deep at every thread count: every id must
/// still resolve exactly once, and the resolution core must not move.
#[test]
fn resolution_core_is_identical_across_thread_counts() {
    let mut fingerprints = Vec::new();
    for threads in [1usize, 2, 4] {
        let report = parallel::run(base_cfg(threads), jobs(160, u64::MAX)).expect("run");
        assert_eq!(report.records.len(), 160);
        assert!(report.records.windows(2).all(|w| w[0].id < w[1].id), "id-sorted");
        assert!(report.records.iter().all(|r| r.disposition == Disposition::Completed));
        fingerprints.push(report.resolution_fingerprint());
    }
    assert_eq!(fingerprints[0], fingerprints[1]);
    assert_eq!(fingerprints[1], fingerprints[2]);
}

#[test]
fn injected_panic_is_caught_and_recovered() {
    let clean = parallel::run(base_cfg(2), jobs(12, u64::MAX)).expect("clean");
    let cfg =
        faulted_cfg(WorkerFaultEvent { worker: 0, after_slices: 2, kind: WorkerFault::Crash });
    let report = parallel::run(cfg, jobs(12, u64::MAX)).expect("faulted run");
    assert_eq!(report.records.len(), 12);
    assert_eq!(report.counters.injected_panics, 1);
    assert!(report.counters.panics_caught >= 1, "panic must be caught, not abort");
    assert!(report.counters.worker_restarts >= 1, "crash walks the restart rung");
    assert!(report.panic_census.iter().any(|p| p.injected && p.worker == 0));
    assert_eq!(
        report.resolution_fingerprint(),
        clean.resolution_fingerprint(),
        "a recovered crash must not perturb the resolution core"
    );
}

/// A worker publishes its job's recovery point after the 1st, 2nd, 4th,
/// 8th, … slice of a dispatch, so a crash after slice 5 of a long job
/// re-dispatches it from the slice-4 point, and the resumed job resolves
/// exactly as the clean run does.
#[test]
fn crash_resumes_from_the_last_recovery_point() {
    let a = Arc::new(gen::uniform(96, 96, 1_500, 3));
    let long =
        vec![ParJob { id: 0, a: Arc::clone(&a), b: a, plan: None, deadline_cycles: u64::MAX }];
    let clean = parallel::run(base_cfg(1), long.clone()).expect("clean run");
    let slice = base_cfg(1).slice_cycles;
    assert!(clean.records[0].executed_cycles > 10 * slice, "the job must span ≥ 10 slices");
    let cfg =
        faulted_cfg(WorkerFaultEvent { worker: 0, after_slices: 5, kind: WorkerFault::Crash });
    let report = parallel::run(cfg, long).expect("faulted run");
    assert_eq!(report.counters.injected_panics, 1);
    assert_eq!(report.counters.resumed_from_checkpoint, 1);
    let resumed = RecoveryKind::ResumedFromCheckpoint { job: JobId(0), at_cycle: 4 * slice };
    assert!(
        report.recovery_log.iter().any(|e| e.kind == resumed),
        "log: {:?}",
        report.recovery_log
    );
    let (got, want) = (&report.records[0], &clean.records[0]);
    assert!(got.resumed_from_checkpoint);
    assert_eq!(got.disposition, Disposition::Completed);
    assert_eq!(got.output_fingerprint, want.output_fingerprint);
    assert_eq!(got.executed_cycles, want.executed_cycles);
}

/// A crash that degrades the only worker leaves job 0 with a full-width
/// checkpoint the half-width worker cannot resume: the job restarts from
/// scratch, and the counters, the recovery log and the record all say so.
#[test]
fn a_resume_is_counted_only_when_a_worker_adopts_the_checkpoint() {
    let mut cfg = base_cfg(1);
    cfg.slice_cycles = 64;
    cfg.max_restarts = 0;
    cfg.max_degraded_restarts = 2;
    cfg.worker_faults = Some(WorkerFaultPlan::new(vec![WorkerFaultEvent {
        worker: 0,
        after_slices: 5,
        kind: WorkerFault::Crash,
    }]));
    let report = parallel::run(cfg, jobs(4, u64::MAX)).expect("run");
    assert_eq!(report.records.len(), 4);
    assert_eq!(report.counters.worker_degradations, 1);
    let record = &report.records[0];
    assert_eq!(record.redispatches, 1);
    assert!(!record.resumed_from_checkpoint, "record: {record:?}");
    let c = &report.counters;
    assert_eq!((c.resumed_from_checkpoint, c.restarted_from_scratch), (0, 1), "{c:?}");
    let log = &report.recovery_log;
    assert!(
        log.iter().any(|e| e.kind == RecoveryKind::RestartedFromScratch { job: JobId(0) }),
        "log: {log:?}"
    );
    assert!(
        !log.iter().any(|e| matches!(e.kind, RecoveryKind::ResumedFromCheckpoint { .. })),
        "log: {log:?}"
    );
}

#[test]
fn injected_hang_is_detected_by_the_heartbeat_budget() {
    let clean = parallel::run(base_cfg(2), jobs(12, u64::MAX)).expect("clean");
    // The hang budget is 400 quiet ticks ≈ 80 ms: a tighter budget would
    // false-positive on ordinary scheduler noise, and a false recycle can
    // drop the still-pending injected hang from the slot's schedule.
    let cfg = faulted_cfg(WorkerFaultEvent { worker: 0, after_slices: 2, kind: WorkerFault::Hang });
    let report = parallel::run(cfg, jobs(12, u64::MAX)).expect("faulted run");
    assert_eq!(report.records.len(), 12);
    assert_eq!(report.counters.injected_hangs, 1);
    assert!(report.counters.hangs_detected >= 1, "silent wedge must be detected");
    assert!(report.counters.worker_restarts >= 1);
    assert_eq!(report.resolution_fingerprint(), clean.resolution_fingerprint());
}

#[test]
fn terminal_slowdown_is_recycled() {
    let clean = parallel::run(base_cfg(2), jobs(12, u64::MAX)).expect("clean");
    // An injected factor of 16 passes the terminal threshold of 8.
    let cfg = faulted_cfg(WorkerFaultEvent {
        worker: 0,
        after_slices: 2,
        kind: WorkerFault::SlowDown { factor: 16 },
    });
    let report = parallel::run(cfg, jobs(12, u64::MAX)).expect("faulted run");
    assert_eq!(report.records.len(), 12);
    assert_eq!(report.counters.injected_slowdowns, 1);
    assert!(report.counters.slowness_detections >= 1);
    assert_eq!(report.resolution_fingerprint(), clean.resolution_fingerprint());
}

#[test]
fn lost_ack_duplicate_is_suppressed() {
    let clean = parallel::run(base_cfg(2), jobs(12, u64::MAX)).expect("clean");
    let cfg = faulted_cfg(WorkerFaultEvent {
        worker: 0,
        after_slices: 1,
        kind: WorkerFault::CrashAfterCompletion,
    });
    let report = parallel::run(cfg, jobs(12, u64::MAX)).expect("faulted run");
    assert_eq!(report.records.len(), 12, "every id resolves exactly once");
    assert_eq!(report.counters.injected_lost_acks, 1);
    assert!(
        report.counters.duplicates_suppressed >= 1,
        "the re-dispatched completed job must be suppressed, got {:?}",
        report.counters
    );
    assert_eq!(report.counters.duplicate_completions, 0);
    assert_eq!(report.resolution_fingerprint(), clean.resolution_fingerprint());
}

#[test]
fn exhausted_ladder_retires_and_falls_back_inline() {
    // One thread, zero restart budget: the first crash retires the only
    // worker and the main thread must finish the backlog inline. The
    // backlog ends with a deadline-bound job and a persistently faulted
    // one, so the inline path's cancellation and fault-exhaustion
    // branches run as well as its completion branch.
    let mut list = jobs(10, u64::MAX);
    list[8].deadline_cycles = 40;
    list[9].plan = Some(FaultPlan::sample(FaultKind::StreamTruncation, 7, 4));
    let healthy = parallel::run(base_cfg(1), list.clone()).expect("healthy run");
    let mut cfg = base_cfg(1);
    cfg.max_restarts = 0;
    cfg.max_degraded_restarts = 0;
    cfg.worker_faults = Some(WorkerFaultPlan::new(vec![WorkerFaultEvent {
        worker: 0,
        after_slices: 2,
        kind: WorkerFault::Crash,
    }]));
    let report = parallel::run(cfg, list).expect("run");
    assert_eq!(report.records.len(), 10);
    assert_eq!(report.counters.worker_retirements, 1);
    assert!(report.counters.inline_fallbacks >= 1, "retired fleet must not deadlock");
    assert!(report.records[..8].iter().all(|r| r.disposition == Disposition::Completed));
    assert_eq!(report.records[8].disposition, Disposition::DeadlineExceeded);
    assert_eq!(report.records[9].disposition, Disposition::Failed);
    // The main thread reports itself as worker `usize::MAX`.
    let inline: Vec<_> = report.records.iter().filter(|r| r.worker == usize::MAX).collect();
    assert!(inline.iter().any(|r| r.id == 8) && inline.iter().any(|r| r.id == 9));
    for r in inline {
        let h = &healthy.records[r.id as usize];
        assert_eq!(
            (r.disposition, r.executed_cycles, r.output_fingerprint),
            (h.disposition, h.executed_cycles, h.output_fingerprint),
            "inline job {} diverged from the healthy run",
            r.id
        );
    }
}

#[test]
fn degraded_rung_halves_lanes_and_still_completes() {
    // Zero full restarts but one degraded restart: the crash degrades the
    // worker to half lanes, which keeps executing.
    let mut cfg = base_cfg(1);
    cfg.max_restarts = 0;
    cfg.max_degraded_restarts = 2;
    cfg.worker_faults = Some(WorkerFaultPlan::new(vec![WorkerFaultEvent {
        worker: 0,
        after_slices: 2,
        kind: WorkerFault::Crash,
    }]));
    let report = parallel::run(cfg, jobs(8, u64::MAX)).expect("run");
    assert_eq!(report.records.len(), 8);
    assert_eq!(report.counters.worker_degradations, 1);
    assert!(
        report.counters.degraded_completions >= 1,
        "the degraded generation should finish the backlog: {:?}",
        report.counters
    );
    assert!(report.records.iter().all(|r| r.disposition == Disposition::Completed));
}

#[test]
fn deadlines_resolve_as_deadline_exceeded() {
    let report = parallel::run(base_cfg(2), jobs(6, 40)).expect("run");
    assert_eq!(report.records.len(), 6);
    assert!(report
        .records
        .iter()
        .all(|r| r.disposition == Disposition::DeadlineExceeded && r.executed_cycles >= 40));
}

#[test]
fn persistent_input_faults_resolve_as_failed() {
    let mut all = jobs(4, u64::MAX);
    // StreamTruncation always engages (the accelerator remaps the fault to
    // a busy lane) and is caught by the output-integrity cross-check, so
    // it rides every retry — unlike ChannelStall, whose sampled activation
    // window can start after these small jobs already finished.
    for job in &mut all {
        job.plan = Some(FaultPlan::sample(FaultKind::StreamTruncation, 7, 4));
    }
    let report = parallel::run(base_cfg(2), all).expect("run");
    assert_eq!(report.records.len(), 4);
    assert!(report.records.iter().all(|r| r.disposition == Disposition::Failed));
    assert!(report.records.iter().all(|r| r.attempts >= 2), "retries consumed first");
}

#[test]
fn duplicate_ids_are_rejected() {
    let mut all = jobs(3, u64::MAX);
    all[2].id = 0;
    match parallel::run(base_cfg(1), all) {
        Err(ParallelError::DuplicateJobId(0)) => {}
        other => panic!("expected DuplicateJobId, got {other:?}"),
    }
}

#[test]
fn a_job_with_invalid_operands_refuses_the_whole_run_naming_it() {
    let mut all = jobs(4, u64::MAX);
    all[1].b = Arc::new(gen::uniform(9, 16, 30, 99));
    match parallel::run(base_cfg(2), all.clone()) {
        Err(ParallelError::InvalidOperands(
            1,
            OperandError::InnerDimensionMismatch { a_cols: 16, b_rows: 9 },
        )) => {}
        other => panic!("expected InvalidOperands for job 1, got {other:?}"),
    }
    let m = &all[3].a;
    let mut values = m.values().to_vec();
    values[0] = f64::INFINITY;
    let (ptr, idx) = (m.row_ptr().to_vec(), m.col_idx().to_vec());
    all[1].b = Arc::clone(&all[1].a);
    all[3].a = Arc::new(Csr::from_parts(16, 16, ptr, idx, values).expect("structurally valid"));
    match parallel::run(base_cfg(2), all) {
        Err(ParallelError::InvalidOperands(
            3,
            OperandError::Malformed { operand: "A", error: SparseError::NonFiniteValue { .. } },
        )) => {}
        other => panic!("expected InvalidOperands for job 3, got {other:?}"),
    }
}

#[test]
fn empty_job_list_yields_empty_report() {
    let report = parallel::run(base_cfg(2), Vec::new()).expect("run");
    assert!(report.records.is_empty());
    assert_eq!(report.counters.panics_caught, 0);
}

#[test]
fn recovery_log_is_bounded_under_a_fault_storm() {
    let mut cfg = base_cfg(2);
    cfg.recovery_log_cap = 8;
    cfg.max_restarts = 64;
    let events: Vec<WorkerFaultEvent> = (0..20)
        .map(|i| WorkerFaultEvent {
            worker: (i % 2) as usize,
            after_slices: i + 1,
            kind: WorkerFault::Crash,
        })
        .collect();
    cfg.worker_faults = Some(WorkerFaultPlan::new(events));
    let report = parallel::run(cfg, jobs(24, u64::MAX)).expect("run");
    assert_eq!(report.records.len(), 24);
    assert!(report.recovery_log.len() <= 8, "log must stay within its cap");
    assert!(report.recovery_events_dropped > 0, "the storm must have evicted history");
}
