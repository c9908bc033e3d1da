//! Shorthands over [`Accelerator::start`] and its [`matraptor_core::Run`] for the
//! integration tests: each starts one run shape and unwraps the parts a
//! test asserts on. Also the golden cases, which more than one test
//! replays.

#![allow(dead_code)]

use matraptor_core::{
    Accelerator, Checkpoint, FaultKind, FaultPlan, MatRaptorConfig, RunOutcome, RunStart, RunTrace,
    SimError, SliceRun, TraceConfig,
};
use matraptor_mem::HbmConfig;
use matraptor_sparse::gen::{self, suite};
use matraptor_sparse::Csr;

/// One pinned run: `a * a` on `cfg`, with a fault of kind `fault` armed
/// if any.
pub struct Case {
    pub name: &'static str,
    pub cfg: MatRaptorConfig,
    pub a: Csr<f64>,
    pub fault: Option<FaultKind>,
}

/// The golden cases: the paper's geometry, the 2-lane test geometry, a
/// non-power-of-two geometry (3 channels, 1000 B rows, 7 banks, clock
/// ratio 3) that takes the division fallbacks, queue overflows, and the
/// two memory faults that act inside the HBM model.
pub fn cases() -> Vec<Case> {
    let paper = MatRaptorConfig { verify_against_reference: false, ..MatRaptorConfig::default() };
    let small = MatRaptorConfig::small_test();
    let odd = MatRaptorConfig {
        num_lanes: 3,
        clock_ghz: 3.0,
        read_request_bytes: 32,
        mem: HbmConfig {
            row_bytes: 1000,
            banks_per_channel: 7,
            bank_lookahead: 5,
            ..HbmConfig::with_channels(3)
        },
        ..MatRaptorConfig::small_test()
    };
    let tiny_queues = MatRaptorConfig { queue_bytes: 64, ..MatRaptorConfig::small_test() };
    let faulted = MatRaptorConfig { watchdog_window: 2_000, ..MatRaptorConfig::small_test() };
    let rmat = gen::rmat(256, 2400, gen::RmatParams::default(), 3);
    vec![
        Case { name: "paper/rmat", cfg: paper, a: rmat, fault: None },
        Case { name: "small/uniform", cfg: small, a: gen::uniform(48, 48, 300, 21), fault: None },
        Case { name: "odd/uniform", cfg: odd, a: gen::uniform(60, 60, 420, 5), fault: None },
        Case { name: "overflow", cfg: tiny_queues, a: gen::uniform(32, 32, 512, 11), fault: None },
        Case {
            name: "burst_refusal",
            cfg: faulted.clone(),
            a: gen::uniform(64, 64, 500, 8),
            fault: Some(FaultKind::BurstRefusal),
        },
        Case {
            name: "channel_stall",
            cfg: faulted,
            a: gen::uniform(64, 64, 500, 9),
            fault: Some(FaultKind::ChannelStall),
        },
    ]
}

/// Table II size divisor of the stall-heavy cases: small enough for a
/// debug-profile test (`fb` is held at its 176-row minimum by the
/// generator's row-degree floor at any divisor above 23).
pub const STALL_SCALE: usize = 256;

/// A stall-heavy case: the paper's geometry on the Table II stand-in
/// `id` (`fb`, power-law and merge-heavy, or `of`, banded), whose lanes
/// spend most cycles stalled.
pub fn stall_case(id: &'static str) -> Case {
    Case {
        name: id,
        cfg: MatRaptorConfig { verify_against_reference: false, ..MatRaptorConfig::default() },
        a: suite::by_id(id).expect("a Table II id").generate(STALL_SCALE, 1),
        fault: None,
    }
}

/// A fresh run with `plan` armed, to completion.
pub fn run_faulted(
    accel: &Accelerator,
    a: &Csr<f64>,
    b: &Csr<f64>,
    plan: Option<&FaultPlan>,
) -> Result<RunOutcome, SimError> {
    accel.run_to_end(a, b, RunStart::Fresh { plan, trace: None })
}

/// A fresh, fault-free traced run, to completion.
pub fn run_traced(
    accel: &Accelerator,
    a: &Csr<f64>,
    b: &Csr<f64>,
    trace: &TraceConfig,
) -> Result<(RunOutcome, RunTrace), SimError> {
    let mut run = accel.start(a, b, RunStart::Fresh { plan: None, trace: Some(trace) })?;
    run.advance(u64::MAX)?;
    let trace = run.take_trace().expect("a traced run returns its trace");
    Ok((run.finish()?, trace))
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
    match slice_from(accel, a, b, RunStart::Fresh { plan, trace: None }, k)? {
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
    accel.run_to_end(a, b, RunStart::Resume(ck))
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
    slice_from(accel, a, b, start, until)
}

/// A run from `start` advanced to cycle `until`: its outcome if it
/// drained, otherwise its checkpoint.
fn slice_from(
    accel: &Accelerator,
    a: &Csr<f64>,
    b: &Csr<f64>,
    start: RunStart<'_>,
    until: u64,
) -> Result<SliceRun, SimError> {
    let mut run = accel.start(a, b, start)?;
    if run.advance(until)? {
        Ok(SliceRun::Completed(Box::new(run.finish()?)))
    } else {
        Ok(SliceRun::Paused(Box::new(run.snapshot())))
    }
}
