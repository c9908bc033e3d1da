//! The single-machine service: its configuration, counters, drain
//! report, and the one-accelerator [`Fleet`] that runs it.

use std::ops::Deref;
use std::rc::Rc;

use matraptor_core::{ConfigError, MatRaptorConfig};
use matraptor_sparse::Csr;

use crate::breaker::BreakerConfig;
use crate::fleet::{Fleet, FleetConfig};
use crate::job::{JobId, JobRecord, JobSpec, Rejected, TenantId};

/// How a tenant's cycle deadlines are derived from the admission-time flop
/// estimate: `deadline = base_cycles + flops × cycles_per_flop`.
///
/// The accelerator retires roughly one useful multiply per lane per cycle
/// when streaming well, so `cycles_per_flop` is a *slack multiplier* over
/// the ideal, not a micro-architectural constant: small values buy a tight
/// SLO (cheap jobs only), large values admit slow, irregular work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeadlinePolicy {
    /// Fixed allowance covering per-job overheads (fill/drain, row setup).
    pub base_cycles: u64,
    /// Cycles granted per estimated scalar multiply.
    pub cycles_per_flop: u64,
}

impl DeadlinePolicy {
    /// The deadline for a job estimated at `flops` multiplies.
    pub fn deadline_for(&self, flops: u64) -> u64 {
        self.base_cycles.saturating_add(flops.saturating_mul(self.cycles_per_flop)).max(1)
    }
}

/// One tenant: a name for reports, a DRR weight, a bounded queue, and a
/// deadline policy.
#[derive(Debug, Clone)]
pub struct TenantConfig {
    /// Stable name used in reports.
    pub name: String,
    /// DRR weight (relative share of served cycles); clamped to ≥ 1.
    pub weight: u64,
    /// Bounded queue depth; submissions beyond it are rejected.
    pub queue_capacity: usize,
    /// Deadline derivation for this tenant's jobs.
    pub deadline: DeadlinePolicy,
}

/// Full service configuration.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// The accelerator the service fronts.
    pub accel: MatRaptorConfig,
    /// The tenant table; [`TenantId`] indexes into it.
    pub tenants: Vec<TenantConfig>,
    /// DRR base quantum in cycles (each tenant's per-round grant is
    /// `quantum × weight`).
    pub quantum_cycles: u64,
    /// Circuit-breaker tunables.
    pub breaker: BreakerConfig,
    /// Resolved failures per operand pair before permanent refusal.
    pub quarantine_threshold: u32,
    /// Accelerator attempts per job before it resolves `Failed`; clamped
    /// to ≥ 1.
    pub max_attempts: u32,
    /// Cycle cost per estimated flop charged for the CPU fallback path
    /// (the host is far slower than the array — this is the price of
    /// shedding).
    pub cpu_cycles_per_flop: u64,
}

impl ServiceConfig {
    /// A two-tenant configuration over the small test accelerator, used by
    /// unit tests and doc examples.
    pub fn small_test() -> Self {
        let mut accel = MatRaptorConfig::small_test();
        // Keep fault detection fast so breaker tests converge quickly.
        accel.watchdog_window = 2_000;
        ServiceConfig {
            accel,
            tenants: vec![
                TenantConfig {
                    name: "alpha".to_string(),
                    weight: 2,
                    queue_capacity: 16,
                    deadline: DeadlinePolicy { base_cycles: 1_000_000, cycles_per_flop: 1_000 },
                },
                TenantConfig {
                    name: "beta".to_string(),
                    weight: 1,
                    queue_capacity: 16,
                    deadline: DeadlinePolicy { base_cycles: 1_000_000, cycles_per_flop: 1_000 },
                },
            ],
            quantum_cycles: 100_000,
            breaker: BreakerConfig::default(),
            quarantine_threshold: 2,
            max_attempts: 2,
            cpu_cycles_per_flop: 64,
        }
    }
}

/// Construction-time failures.
#[derive(Debug, Clone, PartialEq)]
#[must_use = "a service construction error must be handled, not dropped"]
pub enum ServiceError {
    /// The accelerator configuration failed validation.
    InvalidAccelConfig(ConfigError),
    /// The tenant table is empty — nothing could ever be admitted.
    NoTenants,
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::InvalidAccelConfig(e) => write!(f, "invalid accelerator config: {e}"),
            ServiceError::NoTenants => write!(f, "service requires at least one tenant"),
        }
    }
}

impl std::error::Error for ServiceError {}

/// Monotone event counters, all incremented at well-defined points so a
/// campaign can reconcile them: `submitted = accepted + rejected_*`, and
/// `accepted = completed_accel + completed_cpu + deadline_exceeded +
/// failed + cancelled + checkpointed_at_drain + still-queued`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceCounters {
    /// Submissions seen (accepted or not).
    pub submitted: u64,
    /// Submissions admitted to a queue.
    pub accepted: u64,
    /// Rejected: tenant queue at capacity.
    pub rejected_queue_full: u64,
    /// Rejected: operand pair quarantined.
    pub rejected_quarantined: u64,
    /// Rejected: unmultipliable shapes, a malformed operand, or an
    /// unknown tenant.
    pub rejected_invalid: u64,
    /// Jobs completed on the accelerator.
    pub completed_accel: u64,
    /// Jobs shed to and completed on the CPU fallback.
    pub completed_cpu: u64,
    /// Jobs cancelled at their cycle deadline.
    pub deadline_exceeded: u64,
    /// Jobs whose every permitted accelerator attempt faulted.
    pub failed: u64,
    /// Jobs cancelled by the submitter while still queued.
    pub cancelled: u64,
    /// Jobs paused and checkpointed by a graceful drain.
    pub checkpointed_at_drain: u64,
    /// Extra accelerator attempts consumed by retries.
    pub retries: u64,
    /// Faulted jobs that completed on the accelerator with a verdict of
    /// [`Verdict::Escaped`] — silent corruption the ABFT net missed. The
    /// stress campaign's strict mode fails on any non-zero value.
    ///
    /// [`Verdict::Escaped`]: matraptor_core::Verdict::Escaped
    pub escapes: u64,
}

/// One job a graceful drain paused instead of finishing: its bounded
/// drain slice ran out before completion, so the in-flight state was
/// serialized through the core checkpoint path. Only the size and the
/// fingerprint of those bytes are kept; the bytes are dropped, so the job
/// cannot be resumed from this record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DrainedCheckpoint {
    /// The paused job.
    pub job: JobId,
    /// Its tenant.
    pub tenant: TenantId,
    /// Simulated cycle (within the run) the pause landed on.
    pub paused_at_cycle: u64,
    /// Size of the serialized checkpoint, in bytes.
    pub serialized_bytes: usize,
    /// FNV-1a-64 over the serialized checkpoint bytes — lets a strict
    /// campaign pin that re-runs drain to bit-identical machine state.
    pub fingerprint: u64,
}

/// What a graceful drain did with every job that was still queued: each
/// one either finished (accelerator or CPU), hit its own deadline, failed,
/// or was paused and checkpointed (its size and fingerprint kept).
/// `completed_accel + completed_cpu + deadline_exceeded + failed +
/// checkpoints.len()` equals the fleet's pending count at drain time.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DrainSummary {
    /// Jobs that finished on the accelerator inside their drain slice.
    pub completed_accel: u64,
    /// Jobs completed on the CPU fallback (shed while the breaker was open).
    pub completed_cpu: u64,
    /// Jobs whose drain slice reached their cycle deadline.
    pub deadline_exceeded: u64,
    /// Jobs whose drain slice faulted.
    pub failed: u64,
    /// The paused jobs, in the order they paused.
    pub checkpoints: Vec<DrainedCheckpoint>,
}

/// The deterministic multi-job service: the paper's one MatRaptor beside
/// its host CPU, run as a [`Fleet`] of one accelerator worker and one
/// CPU-fallback worker. Jobs run to completion (or deadline, or fault) in
/// a single slice and no worker faults are injected, so the fleet's
/// recovery machinery stays idle and what remains is admission, DRR
/// dispatch, retries, the breaker, CPU shedding, quarantine, drain, and
/// metrics — the fleet's own. See the crate docs for the model.
///
/// `M` is the operand handle (see [`JobSpec`]): the default `Rc` keeps a
/// single-threaded caller free of atomics, and `Arc` makes the service
/// `Send`, so the wire server can run it on whichever connection thread
/// holds its lock.
#[derive(Debug)]
pub struct Service<M: Deref<Target = Csr<f64>> = Rc<Csr<f64>>> {
    fleet: Fleet<M>,
}

impl<M: Deref<Target = Csr<f64>> + Clone> Service<M> {
    /// Builds the service, validating the accelerator configuration.
    pub fn new(cfg: ServiceConfig) -> Result<Self, ServiceError> {
        let fleet = Fleet::new(FleetConfig {
            service: cfg,
            accel_workers: 1,
            cpu_workers: 1,
            slice_cycles: u64::MAX,
            heartbeat_window: u64::MAX,
            restart_cycles: 1,
            max_restarts: 0,
            max_degraded_restarts: 0,
            worker_faults: None,
            recovery_log_cap: 2,
        })?;
        Ok(Service { fleet })
    }

    /// The engine: clock, counters, records, breaker, quarantine,
    /// metrics.
    pub fn fleet(&self) -> &Fleet<M> {
        &self.fleet
    }

    /// The engine, mutably: idle time ([`Fleet::advance_to`]),
    /// cancellation ([`Fleet::cancel`]), and graceful drain
    /// ([`Fleet::drain`]).
    pub fn fleet_mut(&mut self) -> &mut Fleet<M> {
        &mut self.fleet
    }

    /// Submit a job ([`Fleet::submit`]).
    pub fn submit(&mut self, spec: JobSpec<M>) -> Result<JobId, Rejected> {
        self.fleet.submit(spec)
    }

    /// Step the fleet until one more job resolves (dispatch, run to
    /// completion, deadline, or failure; the simulated clock advances
    /// accordingly) and return its record. `None` when the service is
    /// idle.
    pub fn step(&mut self) -> Option<JobRecord> {
        let resolved = self.fleet.records().len();
        while self.fleet.records().len() == resolved {
            if !self.fleet.step() {
                return None;
            }
        }
        self.fleet.records().last().map(|r| r.record)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::breaker::BreakerState;
    use crate::job::Disposition;
    use matraptor_core::{FaultKind, FaultPlan};
    use matraptor_sim::Cycle;
    use matraptor_sparse::{gen, SparseError};
    use std::rc::Rc;

    fn operands(seed: u64) -> (Rc<matraptor_sparse::Csr<f64>>, Rc<matraptor_sparse::Csr<f64>>) {
        (Rc::new(gen::uniform(32, 32, 200, seed)), Rc::new(gen::uniform(32, 32, 200, seed + 100)))
    }

    fn spec(tenant: usize, seed: u64, plan: Option<FaultPlan>) -> JobSpec {
        let (a, b) = operands(seed);
        JobSpec { tenant: TenantId(tenant), a, b, plan }
    }

    /// A job with a NaN operand. `Csr::from_parts` checks structure only,
    /// so only the admission check catches the NaN.
    fn nan_spec(tenant: usize) -> JobSpec {
        let rows = || (vec![0, 1, 2], vec![0, 1]);
        let (p, i) = rows();
        let a =
            Rc::new(matraptor_sparse::Csr::from_parts(2, 2, p, i, vec![f64::NAN, 1.0]).unwrap());
        let (p, i) = rows();
        let b = Rc::new(matraptor_sparse::Csr::from_parts(2, 2, p, i, vec![1.0, 1.0]).unwrap());
        JobSpec { tenant: TenantId(tenant), a, b, plan: None }
    }

    /// A service whose breaker is open with its cooldown lapsed: the next
    /// accelerator dispatch is the half-open probe. Tenant 1 has a 50-cycle
    /// deadline, too tight for any job to finish.
    fn service_awaiting_probe() -> Service {
        let mut cfg = ServiceConfig::small_test();
        cfg.breaker = BreakerConfig { failure_threshold: 1, cooldown_cycles: 1_000, ..cfg.breaker };
        cfg.max_attempts = 1;
        cfg.tenants[1].deadline = DeadlinePolicy { base_cycles: 50, cycles_per_flop: 0 };
        let lanes = cfg.accel.num_lanes();
        let mut s = Service::new(cfg).unwrap();
        s.submit(spec(0, 91, Some(FaultPlan::sample(FaultKind::ChannelStall, 5, lanes)))).unwrap();
        assert_eq!(s.step().unwrap().disposition, Disposition::Failed);
        assert_eq!(s.fleet().breaker_state(), BreakerState::Open);
        let lapsed = Cycle(s.fleet().now().0 + 2_000);
        s.fleet_mut().advance_to(lapsed);
        s
    }

    /// Serve `probe` as the half-open probe with a clean job queued behind
    /// it; the clean job must become the next probe and close the breaker.
    fn probe_without_a_verdict_frees_the_slot(probe: JobSpec, expect: Disposition) {
        let mut s = service_awaiting_probe();
        let probe = s.submit(probe).unwrap();
        let behind = s.submit(spec(0, 96, None)).unwrap();
        while s.step().is_some() {}
        assert_eq!(s.fleet().pending(), 0, "every queued job resolves");
        let f = s.fleet();
        assert_eq!(f.record(probe).map(|r| r.record.disposition), Some(expect));
        let behind = f.record(behind).unwrap();
        assert_eq!(behind.record.disposition, Disposition::Completed);
        assert_eq!(behind.worker, crate::WorkerId(0), "the next probe runs on the accelerator");
        assert_eq!(f.breaker_state(), BreakerState::Closed);
    }

    #[test]
    fn a_probe_past_its_deadline_frees_the_probe_slot() {
        probe_without_a_verdict_frees_the_slot(spec(1, 93, None), Disposition::DeadlineExceeded);
    }

    #[test]
    fn a_probe_paused_by_drain_frees_the_probe_slot() {
        let mut s = service_awaiting_probe();
        s.submit(spec(0, 97, None)).unwrap();
        s.submit(spec(0, 98, None)).unwrap();
        let summary = s.fleet_mut().drain(200);
        assert_eq!(s.fleet().pending(), 0, "drain must empty the queue");
        assert_eq!(summary.checkpoints.len(), 2, "each job probes in turn and pauses");
        assert_eq!(s.fleet().breaker_state(), BreakerState::HalfOpen);
        // The slot stays free after the drain: a clean job probes and
        // closes the breaker.
        s.submit(spec(0, 99, None)).unwrap();
        assert_eq!(s.step().unwrap().disposition, Disposition::Completed);
        assert_eq!(s.fleet().breaker_state(), BreakerState::Closed);
    }

    #[test]
    fn clean_jobs_complete_and_the_clock_advances() {
        let mut s = Service::new(ServiceConfig::small_test()).unwrap();
        s.submit(spec(0, 1, None)).unwrap();
        s.submit(spec(1, 2, None)).unwrap();
        let first = s.step().unwrap().clone();
        assert_eq!(first.disposition, Disposition::Completed);
        assert!(first.service_cycles() > 0);
        let second = s.step().unwrap().clone();
        assert_eq!(second.disposition, Disposition::Completed);
        assert!(second.queue_wait() > 0, "second job waited while the first ran");
        assert!(s.step().is_none());
        assert_eq!(s.fleet().counters().completed_accel, 2);
    }

    #[test]
    fn queue_full_is_explicit_backpressure() {
        let mut cfg = ServiceConfig::small_test();
        cfg.tenants[0].queue_capacity = 2;
        let mut s = Service::new(cfg).unwrap();
        s.submit(spec(0, 1, None)).unwrap();
        s.submit(spec(0, 2, None)).unwrap();
        match s.submit(spec(0, 3, None)) {
            Err(Rejected::QueueFull { capacity: 2, .. }) => {}
            other => panic!("expected QueueFull, got {other:?}"),
        }
        assert_eq!(s.fleet().counters().rejected_queue_full, 1);
    }

    #[test]
    fn tight_deadlines_cancel_jobs() {
        let mut cfg = ServiceConfig::small_test();
        cfg.tenants[0].deadline = DeadlinePolicy { base_cycles: 50, cycles_per_flop: 0 };
        let mut s = Service::new(cfg).unwrap();
        s.submit(spec(0, 1, None)).unwrap();
        let r = s.step().unwrap();
        assert_eq!(r.disposition, Disposition::DeadlineExceeded);
        assert_eq!(r.deadline_cycles, 50);
        assert_eq!(s.fleet().counters().deadline_exceeded, 1);
        // Deadline kills never quarantine.
        assert_eq!(s.fleet().quarantined_inputs(), 0);
    }

    #[test]
    fn persistent_faults_fail_after_a_retry_and_two_failures_quarantine() {
        let mut s = Service::new(ServiceConfig::small_test()).unwrap();
        let (a, b) = operands(7);
        let plan = FaultPlan::sample(
            FaultKind::ChannelStall,
            13,
            ServiceConfig::small_test().accel.num_lanes(),
        );
        let poison = JobSpec { tenant: TenantId(0), a, b, plan: Some(plan) };
        s.submit(poison.clone()).unwrap();
        let r = s.step().unwrap();
        assert_eq!(r.disposition, Disposition::Failed);
        assert_eq!(r.attempts, 2, "one retry before giving up");
        assert_eq!(s.fleet().counters().retries, 1);
        assert_eq!(s.fleet().quarantined_inputs(), 0, "one strike is a warning");
        s.submit(poison.clone()).unwrap();
        s.step().unwrap();
        assert_eq!(s.fleet().quarantined_inputs(), 1);
        match s.submit(poison) {
            Err(Rejected::Quarantined { .. }) => {}
            other => panic!("expected quarantine rejection, got {other:?}"),
        }
        assert_eq!(s.fleet().counters().rejected_quarantined, 1);
    }

    #[test]
    fn repeated_faults_open_the_breaker_and_shed_to_cpu() {
        let mut cfg = ServiceConfig::small_test();
        cfg.breaker =
            BreakerConfig { failure_threshold: 1, cooldown_cycles: 1 << 40, ..cfg.breaker };
        let mut s = Service::new(cfg).unwrap();
        let lanes = ServiceConfig::small_test().accel.num_lanes();
        let p1 = FaultPlan::sample(FaultKind::ChannelStall, 1, lanes);
        s.submit(spec(0, 21, Some(p1))).unwrap();
        let first = s.step().unwrap().clone();
        // The first fault trips the hair-trigger breaker mid-job, so the
        // retry is shed to the CPU and the job still completes.
        assert_eq!(first.disposition, Disposition::CompletedOnCpu);
        assert_eq!(first.attempts, 1, "one accelerator attempt before the shed");
        assert_eq!(s.fleet().breaker_state(), BreakerState::Open);
        // While open (huge cooldown), everything sheds — even clean jobs.
        s.submit(spec(0, 23, None)).unwrap();
        assert_eq!(s.step().unwrap().disposition, Disposition::CompletedOnCpu);
        assert_eq!(s.fleet().counters().completed_cpu, 2);
        assert_eq!(s.fleet().counters().completed_accel, 0);
    }

    #[test]
    fn breaker_recovers_through_a_half_open_probe() {
        let mut cfg = ServiceConfig::small_test();
        cfg.breaker = BreakerConfig {
            failure_threshold: 2,
            cooldown_cycles: 1_000,
            max_backoff_doublings: 2,
        };
        let mut s = Service::new(cfg).unwrap();
        let lanes = ServiceConfig::small_test().accel.num_lanes();
        s.submit(spec(0, 31, Some(FaultPlan::sample(FaultKind::ChannelStall, 2, lanes)))).unwrap();
        s.step().unwrap();
        assert_eq!(s.fleet().breaker_state(), BreakerState::Open);
        // Let the cooldown lapse in idle simulated time, then probe with a
        // clean job: the breaker must close again.
        let resume_at = Cycle(s.fleet().now().0 + 2_000);
        s.fleet_mut().advance_to(resume_at);
        s.submit(spec(0, 33, None)).unwrap();
        let probe = s.step().unwrap();
        assert_eq!(probe.disposition, Disposition::Completed);
        assert_eq!(s.fleet().breaker_state(), BreakerState::Closed);
        let seq: Vec<(BreakerState, BreakerState)> =
            s.fleet().breaker_transitions().iter().map(|t| (t.from, t.to)).collect();
        assert_eq!(
            seq,
            vec![
                (BreakerState::Closed, BreakerState::Open),
                (BreakerState::Open, BreakerState::HalfOpen),
                (BreakerState::HalfOpen, BreakerState::Closed),
            ]
        );
    }

    #[test]
    fn mismatched_shapes_are_rejected_at_admission() {
        let mut s = Service::new(ServiceConfig::small_test()).unwrap();
        let a = Rc::new(gen::uniform(8, 9, 20, 1));
        let b = Rc::new(gen::uniform(10, 8, 20, 2));
        match s.submit(JobSpec { tenant: TenantId(0), a, b, plan: None }) {
            Err(Rejected::InvalidShape { a_cols: 9, b_rows: 10 }) => {}
            other => panic!("expected InvalidShape, got {other:?}"),
        }
        match s.submit(spec(9, 1, None)) {
            Err(Rejected::UnknownTenant { .. }) => {}
            other => panic!("expected UnknownTenant, got {other:?}"),
        }
        assert_eq!(s.fleet().counters().rejected_invalid, 2);
    }

    #[test]
    fn an_accelerator_whose_reads_do_not_tile_the_interleave_is_refused() {
        let mut cfg = ServiceConfig::small_test();
        cfg.accel.read_request_bytes = 48;
        let untiled =
            ConfigError::UntiledReads { request_bytes: 48, entry_bytes: 8, interleave_bytes: 64 };
        assert!(matches!(
            Service::<Rc<Csr<f64>>>::new(cfg).err(),
            Some(ServiceError::InvalidAccelConfig(e)) if e == untiled
        ));
    }

    #[test]
    fn metrics_registry_reconciles_and_fingerprints_deterministically() {
        let run = || {
            let mut s = Service::new(ServiceConfig::small_test()).unwrap();
            for i in 0..3 {
                s.submit(spec(i % 2, 60 + i as u64, None)).unwrap();
            }
            while s.step().is_some() {}
            s
        };
        let s = run();
        let m = s.fleet().metrics();
        assert_eq!(m.counter("service.submitted"), Some(3));
        assert_eq!(m.counter("service.completed_accel"), Some(3));
        assert_eq!(m.counter("service.pending"), Some(0));
        assert_eq!(m.counter("tenant.0.completed"), Some(2));
        assert_eq!(m.counter("tenant.1.completed"), Some(1));
        // One histogram sample per resolved job, and slack bounded by the
        // deadline for every completed job.
        assert_eq!(m.histogram("job.queue_wait").unwrap().total(), 3);
        assert_eq!(m.histogram("job.deadline_slack").unwrap().total(), 3);
        for r in s.fleet().records() {
            assert!(r.record.deadline_slack() <= r.record.deadline_cycles);
        }
        // Same history → byte-identical rendering → same fingerprint.
        assert_eq!(m.fingerprint(), run().fleet().metrics().fingerprint());
        assert_eq!(m.to_json(), run().fleet().metrics().to_json());
    }

    #[test]
    fn counters_reconcile() {
        let mut cfg = ServiceConfig::small_test();
        cfg.tenants[1].queue_capacity = 1;
        let mut s = Service::new(cfg).unwrap();
        for i in 0..3 {
            let _ = s.submit(spec(0, 40 + i, None));
        }
        for i in 0..3 {
            let _ = s.submit(spec(1, 50 + i, None));
        }
        while s.step().is_some() {}
        let c = *s.fleet().counters();
        assert_eq!(c.submitted, 6);
        assert_eq!(
            c.accepted,
            c.completed_accel + c.completed_cpu + c.deadline_exceeded + c.failed
        );
        assert_eq!(
            c.submitted,
            c.accepted + c.rejected_queue_full + c.rejected_quarantined + c.rejected_invalid
        );
    }

    #[test]
    fn cancel_removes_a_queued_job_without_touching_the_machine() {
        let mut s = Service::new(ServiceConfig::small_test()).unwrap();
        let first = s.submit(spec(0, 1, None)).unwrap();
        let second = s.submit(spec(0, 2, None)).unwrap();
        let record = s.fleet_mut().cancel(second).expect("queued job must cancel").record.clone();
        assert_eq!(record.disposition, Disposition::Cancelled);
        assert_eq!(record.attempts, 0);
        assert_eq!(record.service_cycles(), 0);
        let host = s.fleet().record(second).map(|r| r.worker);
        assert_eq!(host, Some(crate::WorkerId(1)), "the host tier resolves a cancellation");
        assert_eq!(s.fleet().counters().cancelled, 1);
        assert_eq!(s.fleet().pending(), 1);
        // Unknown and already-resolved ids are not cancellable.
        assert!(s.fleet_mut().cancel(JobId(99)).is_none());
        let done = s.step().unwrap().clone();
        assert_eq!(done.id, first);
        assert_eq!(done.disposition, Disposition::Completed);
        assert!(s.fleet_mut().cancel(first).is_none(), "resolved jobs cannot be cancelled");
        // Reconciliation still holds with a cancel in the mix.
        let c = *s.fleet().counters();
        assert_eq!(c.accepted, c.completed_accel + c.cancelled);
    }

    #[test]
    fn drain_completes_or_checkpoints_every_queued_job() {
        let mut s = Service::new(ServiceConfig::small_test()).unwrap();
        for i in 0..4 {
            s.submit(spec(i % 2, 70 + i as u64, None)).unwrap();
        }
        // A tiny slice budget forces pauses: jobs of this size take tens
        // of thousands of cycles, so a 200-cycle slice cannot finish one.
        let summary = s.fleet_mut().drain(200);
        assert_eq!(s.fleet().pending(), 0, "drain must empty the queue");
        assert_eq!(summary.checkpoints.len(), 4);
        assert_eq!(s.fleet().counters().checkpointed_at_drain, 4);
        for ck in &summary.checkpoints {
            assert!(ck.paused_at_cycle > 0 && ck.paused_at_cycle <= 200);
            assert!(ck.serialized_bytes > 0);
        }
        assert!(s
            .fleet()
            .records()
            .iter()
            .all(|r| r.record.disposition == Disposition::CheckpointedAtDrain));
        // Re-running the same campaign drains to bit-identical checkpoints.
        let mut t = Service::new(ServiceConfig::small_test()).unwrap();
        for i in 0..4 {
            t.submit(spec(i % 2, 70 + i as u64, None)).unwrap();
        }
        assert_eq!(t.fleet_mut().drain(200), summary);
    }

    #[test]
    fn drain_with_a_generous_budget_completes_everything() {
        let mut s = Service::new(ServiceConfig::small_test()).unwrap();
        for i in 0..3 {
            s.submit(spec(0, 80 + i as u64, None)).unwrap();
        }
        let summary = s.fleet_mut().drain(u64::MAX);
        assert_eq!(summary.completed_accel, 3);
        assert!(summary.checkpoints.is_empty());
        assert_eq!(s.fleet().pending(), 0);
        assert_eq!(s.fleet().counters().completed_accel, 3);
    }

    #[test]
    fn a_nan_job_is_refused_at_admission_whatever_the_breaker_state() {
        let refused = |s: &mut Service| match s.submit(nan_spec(0)) {
            Err(Rejected::InvalidOperand {
                operand: "A",
                error: SparseError::NonFiniteValue { row: 0, col: 0 },
            }) => {}
            other => panic!("expected InvalidOperand, got {other:?}"),
        };
        let mut cfg = ServiceConfig::small_test();
        cfg.breaker =
            BreakerConfig { failure_threshold: 1, cooldown_cycles: 1 << 40, ..cfg.breaker };
        let lanes = cfg.accel.num_lanes();
        let mut s = Service::new(cfg).unwrap();
        refused(&mut s);
        // Open the breaker: from here on every admitted job sheds to the
        // CPU tier, which must never see the NaN.
        s.submit(spec(0, 21, Some(FaultPlan::sample(FaultKind::ChannelStall, 1, lanes)))).unwrap();
        assert_eq!(s.step().unwrap().disposition, Disposition::CompletedOnCpu);
        assert_eq!(s.fleet().breaker_state(), BreakerState::Open);
        let (before, transitions) = (*s.fleet().counters(), s.fleet().breaker_transitions().len());
        let cpu_dispatches = s.fleet().workers()[1].stats().dispatches;
        for _ in 0..3 {
            refused(&mut s);
        }
        assert!(s.step().is_none(), "nothing was queued");
        let f = s.fleet();
        let c = f.counters();
        assert_eq!((c.submitted, c.accepted), (before.submitted + 3, before.accepted));
        assert_eq!(c.rejected_invalid, 4, "every refusal counts as invalid");
        assert_eq!((c.completed_cpu, c.failed), (before.completed_cpu, before.failed));
        assert_eq!(f.workers()[1].stats().dispatches, cpu_dispatches, "the CPU tier never ran");
        assert_eq!(f.quarantined_inputs(), 0, "a refusal is no strike");
        assert_eq!(f.breaker_state(), BreakerState::Open);
        assert_eq!(f.breaker_transitions().len(), transitions);
    }

    #[test]
    fn drain_sheds_to_cpu_while_the_breaker_is_open() {
        let mut cfg = ServiceConfig::small_test();
        cfg.breaker =
            BreakerConfig { failure_threshold: 1, cooldown_cycles: 1 << 40, ..cfg.breaker };
        let mut s = Service::new(cfg).unwrap();
        let lanes = ServiceConfig::small_test().accel.num_lanes();
        s.submit(spec(0, 91, Some(FaultPlan::sample(FaultKind::ChannelStall, 5, lanes)))).unwrap();
        s.step().unwrap();
        assert_eq!(s.fleet().breaker_state(), BreakerState::Open);
        s.submit(spec(0, 92, None)).unwrap();
        let summary = s.fleet_mut().drain(200);
        assert_eq!(summary.completed_cpu, 1, "open breaker sheds drained jobs to the CPU");
        assert!(summary.checkpoints.is_empty());
    }

    #[test]
    fn deadline_policy_saturates_instead_of_overflowing() {
        let p = DeadlinePolicy { base_cycles: u64::MAX, cycles_per_flop: u64::MAX };
        assert_eq!(p.deadline_for(u64::MAX), u64::MAX);
        assert_eq!(p.deadline_for(0), u64::MAX);
        let q = DeadlinePolicy { base_cycles: 10, cycles_per_flop: u64::MAX };
        assert_eq!(q.deadline_for(2), u64::MAX, "flops x cpf must saturate, not wrap");
        let zero = DeadlinePolicy { base_cycles: 0, cycles_per_flop: 0 };
        assert_eq!(zero.deadline_for(0), 1, "deadlines are clamped to >= 1");
    }

    #[test]
    fn huge_cycle_per_flop_jobs_flow_through_admission_and_complete() {
        // A tenant whose deadline policy saturates every job to u64::MAX:
        // admission, the DRR cost accounting, and the deadline-bounded
        // launch must all take the saturated value in stride.
        let mut cfg = ServiceConfig::small_test();
        cfg.tenants[0].deadline =
            DeadlinePolicy { base_cycles: u64::MAX, cycles_per_flop: u64::MAX };
        let mut s = Service::new(cfg).unwrap();
        s.submit(spec(0, 5, None)).unwrap();
        let record = s.step().expect("job must be served").clone();
        assert_eq!(record.deadline_cycles, u64::MAX);
        assert_eq!(record.disposition, Disposition::Completed);
        assert_eq!(s.fleet().pending(), 0);
    }
}
