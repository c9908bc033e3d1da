//! Re-dispatch determinism: killing a worker mid-job at various
//! checkpoint boundaries must not change the job's output by a single
//! bit. This is the fleet-level face of the DESIGN.md §9 replay
//! invariant — a checkpoint resumed on a *different* (identically
//! configured) worker replays the exact cycle-level future the dead
//! worker would have computed.

use std::rc::Rc;

use matraptor_service::{
    fingerprint_output, Disposition, Fleet, FleetConfig, FleetRecord, JobId, JobSpec, TenantId,
    WorkerFault, WorkerFaultEvent, WorkerFaultPlan,
};
use matraptor_sparse::{gen, spgemm};

fn job_spec(seed: u64) -> JobSpec {
    let a = Rc::new(gen::uniform(32, 32, 220, seed));
    let b = Rc::new(gen::uniform(32, 32, 220, seed + 1000));
    JobSpec { tenant: TenantId(0), a, b, plan: None }
}

/// Tight slices so a single job spans many checkpoint boundaries, giving
/// the kill schedule plenty of distinct cut points.
fn cfg() -> FleetConfig {
    let mut cfg = FleetConfig::small_test();
    cfg.slice_cycles = 64;
    cfg.restart_cycles = 500;
    cfg
}

/// Run one job to completion under `faults` and return
/// (output fingerprint, disposition, resumed-from-checkpoint flag).
fn run_one(faults: Option<WorkerFaultPlan>, workers: usize) -> (u64, Disposition, bool) {
    let mut c = cfg();
    c.accel_workers = workers;
    c.worker_faults = faults;
    let mut fleet = Fleet::new(c).unwrap();
    fleet.submit(job_spec(7)).unwrap();
    fleet.run_to_idle();
    assert_eq!(fleet.records().len(), 1, "the job must resolve exactly once");
    assert_eq!(fleet.fleet_counters().duplicate_completions, 0);
    let r = fleet.records().first().expect("one record");
    (
        r.output_fingerprint.expect("completed jobs carry an output fingerprint"),
        r.record.disposition,
        r.resumed_from_checkpoint,
    )
}

#[test]
fn killed_and_redispatched_jobs_complete_byte_identically() {
    let (baseline_fp, baseline_disp, _) = run_one(None, 4);
    assert_eq!(baseline_disp, Disposition::Completed);

    // Sanity: the fingerprint is over real content — distinct products
    // separate. (Numerical agreement with the reference kernel is only
    // approximate — summation order differs — and is pinned by the core
    // crate's `approx_eq` tests, not by bit equality here.)
    let spec = job_spec(7);
    let reference = fingerprint_output(&spgemm::gustavson(&spec.a, &spec.b));
    assert_ne!(reference, 0);

    // Kill worker 0 at several distinct checkpoint boundaries k: after 0
    // slices (no checkpoint yet — restart from scratch), and after 1, 2,
    // and 5 slices (resume from the k-th checkpoint on a healthy peer).
    for k in [0u64, 1, 2, 5] {
        let plan = WorkerFaultPlan::new(vec![WorkerFaultEvent {
            worker: 0,
            after_slices: k,
            kind: WorkerFault::Crash,
        }]);
        let (fp, disp, resumed) = run_one(Some(plan), 4);
        assert_eq!(disp, Disposition::Completed, "kill at slice {k} must still complete");
        assert_eq!(
            fp, baseline_fp,
            "kill at slice {k}: re-dispatched completion must be byte-identical"
        );
        if k >= 1 {
            assert!(resumed, "kill at slice {k} should resume from a checkpoint");
        }
    }
}

#[test]
fn single_worker_restart_resumes_its_own_checkpoint_byte_identically() {
    // With one accelerator worker the re-dispatch has nowhere else to go:
    // the job waits out the restart and resumes on the same (rebuilt)
    // machine. Same invariant, different recovery path.
    let (baseline_fp, baseline_disp, _) = run_one(None, 1);
    assert_eq!(baseline_disp, Disposition::Completed);
    for k in [1u64, 3] {
        let plan = WorkerFaultPlan::new(vec![WorkerFaultEvent {
            worker: 0,
            after_slices: k,
            kind: WorkerFault::Crash,
        }]);
        let (fp, disp, resumed) = run_one(Some(plan), 1);
        assert_eq!(disp, Disposition::Completed);
        assert!(resumed, "kill at slice {k} should resume after the restart");
        assert_eq!(
            fp, baseline_fp,
            "kill at slice {k}: restart-then-resume must be byte-identical"
        );
    }
}

#[test]
fn hang_detection_also_preserves_byte_identity() {
    let (baseline_fp, ..) = run_one(None, 4);
    let plan = WorkerFaultPlan::new(vec![WorkerFaultEvent {
        worker: 0,
        after_slices: 2,
        kind: WorkerFault::Hang,
    }]);
    let (fp, disp, resumed) = run_one(Some(plan), 4);
    assert_eq!(disp, Disposition::Completed);
    assert!(resumed, "the hung worker's job should resume from its checkpoint");
    assert_eq!(fp, baseline_fp, "recovery from a hang must be byte-identical");
}

/// Steps a fleet through the lost-ack race (worker 0 dies after
/// completing its first job, so its resolved job comes back as if still
/// in flight), taking the records after every step when `take` is set.
/// Returns every record it saw, in resolution order, and the fleet.
fn lost_ack_run(take: bool) -> (Vec<(u64, Disposition, Option<u64>)>, Fleet) {
    let mut c = FleetConfig::small_test();
    c.slice_cycles = 256;
    c.restart_cycles = 1_000;
    c.worker_faults = Some(WorkerFaultPlan::new(vec![WorkerFaultEvent {
        worker: 0,
        after_slices: 0,
        kind: WorkerFault::CrashAfterCompletion,
    }]));
    let mut fleet = Fleet::new(c).unwrap();
    for seed in 1..=6 {
        fleet.submit(job_spec(seed)).unwrap();
    }
    let mut seen = Vec::new();
    let core = |r: FleetRecord| (r.record.id.0, r.record.disposition, r.output_fingerprint);
    while fleet.step() {
        if take {
            seen.extend(fleet.take_records().map(core));
            assert!(fleet.records().is_empty(), "a take forgets what it hands over");
        }
    }
    seen.extend(fleet.take_records().map(core));
    (seen, fleet)
}

#[test]
fn taking_records_between_steps_keeps_at_most_once() {
    let (untaken, _) = lost_ack_run(false);
    let (taken, fleet) = lost_ack_run(true);
    assert_eq!(taken, untaken, "taking records must not change what resolves");
    let mut ids: Vec<u64> = taken.iter().map(|&(id, ..)| id).collect();
    ids.sort_unstable();
    assert_eq!(ids, (0..6).collect::<Vec<u64>>(), "each id is handed out exactly once");
    let f = fleet.fleet_counters();
    assert!(f.duplicates_suppressed >= 1, "the ghost re-dispatch must still be suppressed");
    assert_eq!(f.duplicate_completions, 0);
    assert!(f.worker_crashes >= 1);
    assert_eq!(fleet.resolved(), 6, "the resolution count includes taken records");
    for &(id, disposition, _) in &taken {
        let r = fleet.resolution(JobId(id)).expect("resolved");
        assert_eq!(r.disposition, disposition);
    }
}
