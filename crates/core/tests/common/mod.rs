//! Shorthands over [`Accelerator::execute`] for the integration tests:
//! each builds one [`RunRequest`] shape and unwraps the parts a test
//! asserts on.

#![allow(dead_code)]

use matraptor_core::{
    Accelerator, Checkpoint, FaultPlan, RunOutcome, RunRequest, RunStart, RunTrace, SimError,
    SliceRun, TraceConfig,
};
use matraptor_sparse::Csr;

/// A fresh run with `plan` armed, to completion.
pub fn run_faulted(
    accel: &Accelerator,
    a: &Csr<f64>,
    b: &Csr<f64>,
    plan: Option<&FaultPlan>,
) -> Result<RunOutcome, SimError> {
    let req = RunRequest { start: RunStart::Fresh { plan, trace: None }, ..RunRequest::new(a, b) };
    accel.execute(&req).map_err(|failed| failed.error)?.0.completed()
}

/// A fresh, fault-free traced run, to completion.
pub fn run_traced(
    accel: &Accelerator,
    a: &Csr<f64>,
    b: &Csr<f64>,
    trace: &TraceConfig,
) -> Result<(RunOutcome, RunTrace), SimError> {
    let start = RunStart::Fresh { plan: None, trace: Some(trace) };
    let (run, trace) =
        accel.execute(&RunRequest { start, ..RunRequest::new(a, b) }).map_err(|f| f.error)?;
    Ok((run.completed()?, trace.expect("a traced request returns its trace")))
}

/// The machine state at the top of cycle `k` of a fresh run under `plan`,
/// or `None` if the run drained first.
pub fn checkpoint_at(
    accel: &Accelerator,
    a: &Csr<f64>,
    b: &Csr<f64>,
    plan: Option<&FaultPlan>,
    k: u64,
) -> Result<Option<Box<Checkpoint>>, SimError> {
    let start = RunStart::Fresh { plan, trace: None };
    let req = RunRequest { start, pause_at: Some(k), ..RunRequest::new(a, b) };
    match accel.execute(&req).map_err(|failed| failed.error)?.0 {
        SliceRun::Paused(ck) => Ok(Some(ck)),
        SliceRun::Completed(_) => Ok(None),
    }
}

/// Resumes `ck` and runs it to completion.
pub fn resume(
    accel: &Accelerator,
    a: &Csr<f64>,
    b: &Csr<f64>,
    ck: &Checkpoint,
) -> Result<RunOutcome, SimError> {
    let req = RunRequest { start: RunStart::Resume(ck), ..RunRequest::new(a, b) };
    accel.execute(&req).map_err(|failed| failed.error)?.0.completed()
}

/// One slice up to cycle `until`: fresh and fault-free when `from` is
/// `None`, otherwise resuming `from`.
pub fn slice(
    accel: &Accelerator,
    a: &Csr<f64>,
    b: &Csr<f64>,
    from: Option<&Checkpoint>,
    until: u64,
) -> Result<SliceRun, SimError> {
    let start = from.map_or(RunStart::Fresh { plan: None, trace: None }, RunStart::Resume);
    let req = RunRequest { start, pause_at: Some(until), ..RunRequest::new(a, b) };
    Ok(accel.execute(&req).map_err(|failed| failed.error)?.0)
}
