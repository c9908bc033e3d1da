//! Resident-run equivalence: a [`Run`] held live and advanced slice by
//! slice is the same machine as a chain of [`Driver::launch_slice`] calls
//! that restores a checkpoint at the start of every slice and snapshots
//! one at its end. At every slice boundary the live run's snapshot must
//! serialize to the chain's checkpoint bytes, and the final statistics
//! and output value bits (or the error) must equal an uninterrupted run's.
//! The cases are the golden ones (`golden_stats.rs`), in 4 096-cycle
//! steps (the service slice) and 977-cycle steps (a prime, so boundaries
//! fall at every phase of the memory clock and the watchdog stride).

mod common;

use common::{cases, run_faulted, stall_case, Case};
use matraptor_core::{
    Accelerator, Checkpoint, Driver, DriverError, FaultPlan, MtxWrite, Operands, RunOutcome,
    RunStart, SimError, SliceRun,
};
use matraptor_sparse::Csr;

fn value_bits(c: &Csr<f64>) -> Vec<u64> {
    c.values().iter().map(|v| v.to_bits()).collect()
}

/// `a * a` of `case` advanced in `step`-cycle slices, live and as a chain
/// in lockstep: checks every boundary and returns how the run ended.
fn lockstep(case: &Case, step: u64) -> Result<RunOutcome, SimError> {
    let accel = Accelerator::new(case.cfg.clone());
    let plan = case.fault.map(|kind| FaultPlan::sample(kind, 42, case.cfg.num_lanes()));
    let a = &case.a;
    let mut driver = Driver::new(&accel);
    driver.mtx(MtxWrite::ARows(a.rows() as u64));
    driver.mtx(MtxWrite::BRows(a.rows() as u64));
    driver.mtx(MtxWrite::X0(1));
    let operands = Operands::new(a, a).expect("valid operands");
    let mut run = accel
        .start(operands, RunStart::Fresh { plan: plan.as_ref(), trace: None })
        .expect("a fresh start");
    let mut from: Option<Box<Checkpoint>> = None;
    let mut boundary = 0;
    loop {
        boundary += step;
        let chained = driver.launch_slice(a, a, plan.as_ref(), from.as_deref(), boundary);
        match (chained, run.advance(boundary)) {
            (Ok(SliceRun::Paused(ck)), Ok(false)) => {
                assert_eq!(run.cycle(), boundary, "{}: live run paused elsewhere", case.name);
                assert!(
                    run.snapshot().to_bytes() == ck.to_bytes(),
                    "{}: {step}-cycle steps: checkpoints differ at cycle {boundary}",
                    case.name
                );
                from = Some(ck);
            }
            (Ok(SliceRun::Completed(chained)), Ok(true)) => {
                let live = run.finish().expect("the chain finished the same machine");
                assert_eq!(live.stats, chained.stats, "{}: {step}-cycle steps", case.name);
                assert_eq!(value_bits(&live.c), value_bits(&chained.c), "{}", case.name);
                return Ok(live);
            }
            (Err(DriverError::AcceleratorFault(chained)), Err(live)) => {
                assert_eq!(live, chained, "{}: {step}-cycle steps", case.name);
                return Err(live);
            }
            (chained, live) => panic!(
                "{}: {step}-cycle steps diverge in the slice to {boundary}: \
                 chain {chained:?}, live {live:?}",
                case.name
            ),
        }
    }
}

/// Checks `case` in both step sizes against its uninterrupted run.
fn check(case: &Case) {
    let accel = Accelerator::new(case.cfg.clone());
    let plan = case.fault.map(|kind| FaultPlan::sample(kind, 42, case.cfg.num_lanes()));
    let whole = run_faulted(&accel, &case.a, &case.a, plan.as_ref());
    for step in [4_096, 977] {
        match (lockstep(case, step), &whole) {
            (Ok(sliced), Ok(whole)) => {
                assert_eq!(sliced.stats, whole.stats, "{}: {step}-cycle steps", case.name);
                assert_eq!(sliced.c.row_ptr(), whole.c.row_ptr(), "{}", case.name);
                assert_eq!(sliced.c.col_idx(), whole.c.col_idx(), "{}", case.name);
                assert_eq!(value_bits(&sliced.c), value_bits(&whole.c), "{}", case.name);
            }
            (Err(sliced), Err(whole)) => assert_eq!(&sliced, whole, "{}", case.name),
            (sliced, whole) => panic!("{}: sliced {sliced:?}, whole {whole:?}", case.name),
        }
    }
}

#[test]
fn golden_cases_run_live_as_their_launch_slice_chains() {
    cases().iter().for_each(check);
}

#[test]
fn stall_heavy_cases_run_live_as_their_launch_slice_chains() {
    ["fb", "of"].map(stall_case).iter().for_each(check);
}
