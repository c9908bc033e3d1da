//! A deterministic, simulated-time multi-job service above the MatRaptor
//! [`Driver`](matraptor_core::Driver).
//!
//! The paper evaluates one SpGEMM at a time; a deployed accelerator serves
//! a *stream* of jobs from mutually-untrusting tenants and must stay live
//! when some of those jobs are oversized, faulty, or adversarial. This
//! crate layers the standard service-hardening vocabulary on top of the
//! cycle-level model, all in **simulated time** ([`SimClock`]) so every
//! run is bit-reproducible:
//!
//! * **admission control** — bounded per-tenant queues; a full queue is
//!   explicit backpressure ([`Rejected::QueueFull`]), never an unbounded
//!   buffer;
//! * **deadlines** — each job gets a cycle budget from a cheap flop
//!   estimate ([`estimate_flops`]) and the tenant's [`DeadlinePolicy`];
//!   jobs that blow it are cancelled *mid-flight* at the deadline cycle
//!   of their live [`Run`], which a worker advances slice by slice;
//! * **fair scheduling** — a deficit-round-robin scheduler over weighted
//!   tenants, so one tenant's burst cannot starve the others;
//! * **circuit breaking** — repeated accelerator faults open a
//!   [`CircuitBreaker`] (closed → open → half-open → closed, exponential
//!   cooldown in simulated cycles); while open, jobs are shed to the CPU
//!   fallback instead of being fed to a sick machine;
//! * **poison quarantine** — operand pairs whose runs fault twice are
//!   fingerprinted and refused permanently ([`Rejected::Quarantined`]).
//!
//! The service models *persistent* input-borne faults: a [`FaultPlan`]
//! attached to a job rides its operands across every retry, which is what
//! makes "this input has failed twice, refuse it" a sound policy.
//!
//! One simulated-time engine runs all of it: the [`Fleet`], N accelerator
//! workers plus M CPU-fallback workers behind that front end, with a full
//! worker-failure lifecycle: a seeded [`WorkerFaultPlan`] injects crashes,
//! hangs, and slowdowns; per-worker heartbeats (built on the sim
//! watchdog) detect silent death; in-flight jobs re-dispatch from the
//! checkpoint of their last slice boundary with at-most-once completion
//! accounting (a job recovers through its own checkpoint, never through
//! a snapshot of the fleet, which keeps none); and each
//! worker walks an escalating recovery ladder (restart → reduced-lanes →
//! retire, shedding to the CPU tier). The single-machine [`Service`] — the
//! paper's one MatRaptor beside its host CPU — is a fleet of one
//! accelerator worker and one CPU-fallback worker, stepped one resolved
//! job at a time. The CPU tier takes fresh jobs only while the breaker is
//! open; a half-open breaker holds them for its probe.
//!
//! The `stress_campaign` bench binary drives the single-machine service
//! with thousands of mixed jobs; `fleet_campaign` drives a multi-worker
//! fleet through scripted worker failures. Both emit machine-checkable
//! SLO reports (see EXPERIMENTS.md).
//!
//! [`SimClock`]: matraptor_sim::SimClock
//! [`Run`]: matraptor_core::Run
//! [`FaultPlan`]: matraptor_core::FaultPlan

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod bounded;
mod breaker;
mod fleet;
mod job;
pub mod parallel;
mod quarantine;
mod sched;
mod service;
pub mod wire;
mod worker;

pub use breaker::{BreakerConfig, BreakerState, BreakerTransition, CircuitBreaker};
pub use fleet::{
    fingerprint_output, Fleet, FleetConfig, FleetCounters, FleetRecord, Records, RecordsIter,
    RecoveryEvent, RecoveryKind,
};
pub use job::{estimate_flops, Disposition, JobId, JobRecord, JobSpec, Rejected, TenantId};
pub use parallel::{
    resolution_core_fingerprint, PanicRecord, ParCounters, ParJob, ParRecord, ParReport,
    ParallelConfig, ParallelError,
};
pub use quarantine::Quarantine;
pub use service::{
    DeadlinePolicy, DrainSummary, DrainedCheckpoint, Service, ServiceConfig, ServiceCounters,
    ServiceError, TenantConfig,
};
pub use worker::{
    Worker, WorkerClass, WorkerFault, WorkerFaultEvent, WorkerFaultPlan, WorkerId, WorkerStats,
    WorkerStatus,
};
