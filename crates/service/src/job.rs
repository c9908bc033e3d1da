//! Job identity, submission, and resolution records.

use std::rc::Rc;

use matraptor_core::FaultPlan;
use matraptor_sim::Cycle;
use matraptor_sparse::{Csr, SparseError};

/// Job identifier, unique per [`Fleet`](crate::Fleet) instance (and so per
/// [`Service`](crate::Service)), issued consecutively from 0 in
/// admission order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct JobId(pub u64);

/// Index into the service's tenant table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct TenantId(pub usize);

/// One SpGEMM request as a tenant submits it.
///
/// Operands are shared handles `M` — [`Rc`] by default, [`Arc`] where the
/// engine must be `Send`, as behind the wire server — so a campaign can
/// submit the same matrices thousands of times without cloning payload
/// data; the service never mutates them. The first
/// [`submit`](crate::Fleet::submit) fixes a service's handle type.
///
/// [`Arc`]: std::sync::Arc
#[derive(Debug, Clone)]
pub struct JobSpec<M = Rc<Csr<f64>>> {
    /// Submitting tenant.
    pub tenant: TenantId,
    /// Left operand.
    pub a: M,
    /// Right operand.
    pub b: M,
    /// Optional injected fault. The service's fault model is *persistent*:
    /// the plan rides the operands across every retry of this job, the
    /// precondition for the poison-input quarantine to be sound.
    pub plan: Option<FaultPlan>,
}

/// Why a submission was refused at admission. Every variant is explicit
/// backpressure — the caller learns immediately, nothing is buffered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[must_use = "a rejection is explicit backpressure; dropping it silently loses the refusal"]
pub enum Rejected {
    /// The tenant's bounded queue is at capacity.
    QueueFull {
        /// The refusing tenant.
        tenant: TenantId,
        /// Its configured capacity.
        capacity: usize,
    },
    /// This operand pair has faulted too often and is permanently refused.
    Quarantined {
        /// The pair's [`Operands::fingerprint`](matraptor_core::Operands::fingerprint).
        fingerprint: u64,
    },
    /// The operands cannot be multiplied (inner dimensions disagree), so
    /// no flop estimate — and hence no deadline — exists for them.
    InvalidShape {
        /// Columns of `A`.
        a_cols: usize,
        /// Rows of `B`.
        b_rows: usize,
    },
    /// An operand failed [`Csr::validate`]: a broken structure or a
    /// non-finite value, which no run could multiply.
    InvalidOperand {
        /// `"A"` or `"B"`.
        operand: &'static str,
        /// What the validation found.
        error: SparseError,
    },
    /// The tenant id is not in the service's tenant table.
    UnknownTenant {
        /// The out-of-range id.
        tenant: TenantId,
    },
}

impl std::fmt::Display for Rejected {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Rejected::QueueFull { tenant, capacity } => {
                write!(f, "tenant {} queue full (capacity {capacity})", tenant.0)
            }
            Rejected::Quarantined { fingerprint } => {
                write!(f, "operand pair {fingerprint:#018x} is quarantined")
            }
            Rejected::InvalidShape { a_cols, b_rows } => {
                write!(f, "inner dimensions disagree: A has {a_cols} cols, B has {b_rows} rows")
            }
            Rejected::InvalidOperand { operand, error } => write!(f, "matrix {operand}: {error}"),
            Rejected::UnknownTenant { tenant } => write!(f, "unknown tenant id {}", tenant.0),
        }
    }
}

impl std::error::Error for Rejected {}

/// How a resolved job ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Disposition {
    /// Completed on the accelerator within its deadline.
    Completed,
    /// Completed on the host CPU — shed there because the circuit breaker
    /// was open (or opened mid-retry).
    CompletedOnCpu,
    /// Cancelled at its cycle deadline via the checkpoint path.
    DeadlineExceeded,
    /// Every permitted accelerator attempt faulted.
    Failed,
    /// Cancelled by the submitter while still queued — the job never
    /// touched the machine (zero service cycles, zero attempts).
    Cancelled,
    /// Paused at a graceful drain: the job ran one bounded slice, did not
    /// finish inside the drain budget, and its serialized checkpoint was
    /// handed back so the work can resume after restart.
    CheckpointedAtDrain,
}

impl Disposition {
    /// Stable lowercase label used in JSON reports.
    pub fn label(self) -> &'static str {
        match self {
            Disposition::Completed => "completed",
            Disposition::CompletedOnCpu => "completed_on_cpu",
            Disposition::DeadlineExceeded => "deadline_exceeded",
            Disposition::Failed => "failed",
            Disposition::Cancelled => "cancelled",
            Disposition::CheckpointedAtDrain => "checkpointed_at_drain",
        }
    }
}

/// Bookkeeping for one resolved job — the raw material for SLO reports
/// (queue-wait and service-cycle percentiles). Operands are dropped at
/// resolution; records are plain data.
#[derive(Debug, Clone, Copy)]
pub struct JobRecord {
    /// Service-assigned id.
    pub id: JobId,
    /// Submitting tenant.
    pub tenant: TenantId,
    /// Simulated cycle at which the job was admitted.
    pub submitted_at: Cycle,
    /// Simulated cycle at which the scheduler dispatched it.
    pub started_at: Cycle,
    /// Simulated cycle at which it resolved.
    pub finished_at: Cycle,
    /// The admission-time flop count its deadline was derived from.
    pub estimated_flops: u64,
    /// The cycle deadline it ran under.
    pub deadline_cycles: u64,
    /// Accelerator attempts consumed (0 if shed to CPU before any).
    pub attempts: u32,
    /// How it ended.
    pub disposition: Disposition,
}

impl JobRecord {
    /// Cycles spent queued before dispatch.
    pub fn queue_wait(&self) -> u64 {
        self.started_at.0.saturating_sub(self.submitted_at.0)
    }

    /// Cycles from dispatch to resolution (all attempts, including the
    /// charge for failed ones).
    pub fn service_cycles(&self) -> u64 {
        self.finished_at.0.saturating_sub(self.started_at.0)
    }

    /// Cycles of deadline budget left unspent at resolution — zero for a
    /// job that ran to (or past) its deadline. The SLO headroom metric:
    /// a fleet whose slack distribution collapses toward zero is about to
    /// start missing deadlines.
    pub fn deadline_slack(&self) -> u64 {
        self.deadline_cycles.saturating_sub(self.service_cycles())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_derives_waits_and_saturates_backwards_time() {
        let r = JobRecord {
            id: JobId(1),
            tenant: TenantId(0),
            submitted_at: Cycle(100),
            started_at: Cycle(150),
            finished_at: Cycle(400),
            estimated_flops: 10,
            deadline_cycles: 1000,
            attempts: 1,
            disposition: Disposition::Completed,
        };
        assert_eq!(r.queue_wait(), 50);
        assert_eq!(r.service_cycles(), 250);
        assert_eq!(r.deadline_slack(), 750);
        let backwards = JobRecord { started_at: Cycle(50), ..r };
        assert_eq!(backwards.queue_wait(), 0);
        let blown = JobRecord { deadline_cycles: 100, ..r };
        assert_eq!(blown.deadline_slack(), 0, "a blown deadline has no slack, not underflow");
    }

    #[test]
    fn rejections_display_and_are_errors() {
        let cases: Vec<Rejected> = vec![
            Rejected::QueueFull { tenant: TenantId(2), capacity: 8 },
            Rejected::Quarantined { fingerprint: 0xdead },
            Rejected::InvalidShape { a_cols: 3, b_rows: 4 },
            Rejected::InvalidOperand {
                operand: "B",
                error: SparseError::NonFiniteValue { row: 0, col: 1 },
            },
            Rejected::UnknownTenant { tenant: TenantId(9) },
        ];
        for r in cases {
            let boxed: Box<dyn std::error::Error> = Box::new(r);
            assert!(!boxed.to_string().is_empty());
        }
    }
}
