//! Fault-campaign regression tests: the fallible run path must be
//! bit-identical to the legacy path when no faults are armed, and every
//! injected fault must terminate in a structured error or a survivable
//! outcome — never a hang, never a panic.

mod common;

use common::run_faulted;
use matraptor_core::{
    classify, Accelerator, FaultKind, FaultPlan, MalformedInput, MatRaptorConfig, OperandError,
    SimError, Verdict,
};
use matraptor_sparse::{gen, spgemm, Csr};

fn test_matrices() -> (Csr<f64>, Csr<f64>) {
    (gen::uniform(48, 48, 400, 11), gen::uniform(48, 48, 400, 12))
}

fn campaign_config() -> MatRaptorConfig {
    let mut cfg = MatRaptorConfig::small_test();
    // Small window so deadlock faults are declared quickly in tests; the
    // longest legitimate bounded stall in this config is far shorter.
    cfg.watchdog_window = 2_000;
    cfg
}

/// With no faults armed, `try_run` is the same machine as `run`:
/// bit-identical output values and identical cycle counts.
#[test]
fn try_run_matches_run_bit_for_bit() {
    let (a, b) = test_matrices();
    let accel = Accelerator::new(campaign_config());
    let legacy = accel.run(&a, &b);
    let fallible = accel.try_run(&a, &b).expect("clean run");
    assert_eq!(fallible.stats.total_cycles, legacy.stats.total_cycles);
    assert_eq!(fallible.stats.breakdown, legacy.stats.breakdown);
    assert_eq!(fallible.c.row_ptr(), legacy.c.row_ptr());
    assert_eq!(fallible.c.col_idx(), legacy.c.col_idx());
    // Bit-identical, not approximately equal.
    let fa: Vec<u64> = fallible.c.values().iter().map(|v| v.to_bits()).collect();
    let la: Vec<u64> = legacy.c.values().iter().map(|v| v.to_bits()).collect();
    assert_eq!(fa, la);
}

#[test]
fn mismatched_inner_dimensions_are_a_structured_error() {
    let a = gen::uniform(16, 20, 60, 1);
    let b = gen::uniform(16, 16, 60, 2);
    let accel = Accelerator::new(campaign_config());
    match accel.try_run(&a, &b) {
        Err(SimError::InvalidOperands(OperandError::InnerDimensionMismatch { a_cols, b_rows })) => {
            assert_eq!((a_cols, b_rows), (20, 16));
        }
        other => panic!("expected dimension mismatch, got {other:?}"),
    }
}

/// A channel stalled forever must be declared a deadlock within the
/// watchdog window (plus the sampling stride), with a populated per-lane
/// diagnostic — the acceptance criterion of the fault harness.
#[test]
fn channel_stall_is_detected_as_deadlock_within_the_window() {
    let (a, b) = test_matrices();
    let cfg = campaign_config();
    let window = cfg.watchdog_window;
    let lanes = cfg.num_lanes();
    let accel = Accelerator::new(cfg);
    let plan = FaultPlan::sample(FaultKind::ChannelStall, 3, lanes);
    match run_faulted(&accel, &a, &b, Some(&plan)) {
        Err(SimError::Deadlock(diag)) => {
            assert!(!diag.lanes.is_empty(), "per-lane diagnostic must be populated");
            assert_eq!(diag.lanes.len(), lanes);
            assert!(!diag.channels.is_empty());
            assert_eq!(diag.window, window);
            // Declared within the window plus the observation stride.
            assert!(diag.declared_at - diag.last_progress <= window + 64);
            // The wedge is real: at least one lane stopped progressing.
            assert!(!diag.stuck_lanes().is_empty());
        }
        other => panic!("expected deadlock, got {other:?}"),
    }
}

/// A full sweep over every fault kind: no hangs, no panics, no escapes
/// for the fault kinds whose detection path is architectural (deadlock,
/// malformed stream, queue overflow).
#[test]
fn campaign_sweep_produces_no_undetected_escapes() {
    let (a, b) = test_matrices();
    let cfg = campaign_config();
    let lanes = cfg.num_lanes();
    let accel = Accelerator::new(cfg);
    for kind in FaultKind::ALL {
        for seed in 0..4u64 {
            let plan = FaultPlan::sample(kind, seed, lanes);
            let result = run_faulted(&accel, &a, &b, Some(&plan));
            let verdict = classify(kind, &result);
            assert_ne!(
                verdict,
                Verdict::Escaped,
                "{} seed {seed} escaped: {:?}",
                kind.name(),
                result.as_ref().map(|o| o.stats.total_cycles)
            );
        }
    }
}

/// The campaign is deterministic: the same seed reproduces the same fault
/// site, the same verdict, and (for surviving runs) the same cycle count.
#[test]
fn campaign_is_deterministic_across_sweeps() {
    let (a, b) = test_matrices();
    let cfg = campaign_config();
    let lanes = cfg.num_lanes();
    let accel = Accelerator::new(cfg);
    let sweep = || -> Vec<(FaultKind, u64, usize, Verdict, Option<u64>)> {
        FaultKind::ALL
            .into_iter()
            .flat_map(|kind| {
                (0..3u64).map(move |seed| (kind, seed, FaultPlan::sample(kind, seed, lanes)))
            })
            .map(|(kind, seed, plan)| {
                let result = run_faulted(&accel, &a, &b, Some(&plan));
                let verdict = classify(kind, &result);
                let cycles = result.ok().map(|o| o.stats.total_cycles);
                (kind, seed, plan.site, verdict, cycles)
            })
            .collect()
    };
    assert_eq!(sweep(), sweep());
}

/// A forced sorting-queue overflow with the CPU fallback disabled is a
/// structured `QueueOverflow`, naming the lane and row.
#[test]
fn forced_queue_overflow_is_reported_with_lane_and_row() {
    let (a, b) = test_matrices();
    let cfg = campaign_config();
    let lanes = cfg.num_lanes();
    let accel = Accelerator::new(cfg);
    let plan = FaultPlan::sample(FaultKind::QueueOverflowForce, 1, lanes);
    match run_faulted(&accel, &a, &b, Some(&plan)) {
        Err(SimError::QueueOverflow { lane, row }) => {
            assert!(lane < lanes);
            assert!((row as usize) < a.rows());
        }
        other => panic!("expected queue overflow, got {other:?}"),
    }
}

/// A corrupted A stream (column id pushed out of B's row space) is caught
/// at the SpBL boundary before it turns into a wild fetch.
#[test]
fn corrupted_stream_is_rejected_at_the_spbl_boundary() {
    let (a, b) = test_matrices();
    let cfg = campaign_config();
    let lanes = cfg.num_lanes();
    let accel = Accelerator::new(cfg);
    let plan = FaultPlan::sample(FaultKind::StreamCorruption, 2, lanes);
    match run_faulted(&accel, &a, &b, Some(&plan)) {
        Err(SimError::MalformedInput(MalformedInput::ColumnOutOfRange { col, bound, .. })) => {
            assert!(col >= bound);
            assert_eq!(bound as usize, b.rows());
        }
        other => panic!("expected out-of-range column, got {other:?}"),
    }
}

/// ABFT alone (no full Gustavson cross-check) detects silent data
/// corruption, and localises it: a dropped writer append surfaces as
/// `OutputCorrupted` with a non-empty offending-row set.
#[test]
fn abft_catches_dropped_write_without_the_reference_check() {
    let (a, b) = test_matrices();
    let mut cfg = campaign_config();
    cfg.verify_against_reference = false;
    cfg.abft_verification = true;
    let lanes = cfg.num_lanes();
    let accel = Accelerator::new(cfg);
    let mut localised = 0;
    for seed in 0..4u64 {
        let plan = FaultPlan::sample(FaultKind::DroppedWrite, seed, lanes);
        match run_faulted(&accel, &a, &b, Some(&plan)) {
            Err(SimError::OutputCorrupted { rows, .. }) => {
                assert!(!rows.is_empty(), "ABFT must name the corrupted rows");
                assert!(rows.iter().all(|&r| (r as usize) < a.rows()));
                localised += 1;
            }
            other => panic!("expected localised OutputCorrupted, got {other:?}"),
        }
    }
    assert_eq!(localised, 4, "every seed must reach the ABFT check");
}

/// The hole ABFT closes: with *all* output verification disabled, silent
/// corruption kinds complete "successfully" with a wrong answer — the
/// escape the strict campaign gate now forbids.
#[test]
fn silent_corruption_escapes_without_any_verification() {
    let (a, b) = test_matrices();
    let mut cfg = campaign_config();
    cfg.verify_against_reference = false;
    cfg.abft_verification = false;
    let lanes = cfg.num_lanes();
    let accel = Accelerator::new(cfg);
    let reference = spgemm::gustavson(&a, &b);
    let mut escapes = 0;
    for kind in [FaultKind::DroppedWrite, FaultKind::StreamTruncation] {
        for seed in 0..4u64 {
            let plan = FaultPlan::sample(kind, seed, lanes);
            let result = run_faulted(&accel, &a, &b, Some(&plan));
            if classify(kind, &result) == Verdict::Escaped {
                let outcome = result.expect("an escape is an Ok result");
                assert!(
                    !outcome.c.approx_eq(&reference, 1e-9),
                    "{} seed {seed}: escaped run should carry a wrong answer",
                    kind.name()
                );
                escapes += 1;
            }
        }
    }
    assert!(escapes >= 1, "without verification these kinds must escape");
}

/// Faulty runs still verify their output: a silently dropped writer
/// append surfaces as `OutputCorrupted`, not as a wrong answer.
#[test]
fn dropped_write_is_caught_by_output_verification() {
    let (a, b) = test_matrices();
    let cfg = campaign_config();
    let lanes = cfg.num_lanes();
    let accel = Accelerator::new(cfg);
    let mut caught = 0;
    for seed in 0..4u64 {
        let plan = FaultPlan::sample(FaultKind::DroppedWrite, seed, lanes);
        match run_faulted(&accel, &a, &b, Some(&plan)) {
            Err(SimError::OutputCorrupted { .. }) => caught += 1,
            Err(other) => panic!("unexpected error for dropped write: {other:?}"),
            Ok(_) => panic!("dropped write escaped verification"),
        }
    }
    assert_eq!(caught, 4);
    // And the reference still matches once the fault is gone.
    let clean = accel.try_run(&a, &b).expect("clean");
    assert!(clean.c.approx_eq(&spgemm::gustavson(&a, &b), 1e-9));
}

/// Which check catches each truncated A stream on the fault-campaign
/// binary's matrix and machine (`--scale 32 --seed 7`): ABFT, naming the
/// damaged row, for plan seeds 0-7 (the ones its CI run sweeps), and the
/// C²SR output check for plan seeds 15 and 23, whose truncations leave the
/// lanes' output streams out of C²SR order.
#[test]
fn each_truncated_stream_is_caught_by_its_pinned_check() {
    let a = gen::uniform(128, 128, 1024, 7);
    let b = gen::uniform(128, 128, 1024, 8);
    let mut cfg = MatRaptorConfig::small_test();
    cfg.watchdog_window = 5_000;
    cfg.verify_against_reference = false;
    cfg.abft_verification = true;
    let lanes = cfg.num_lanes();
    let accel = Accelerator::new(cfg);
    let abft = |row| SimError::OutputCorrupted {
        detail: "output fails ABFT row-checksum verification",
        rows: vec![row],
    };
    let c2sr = || SimError::OutputCorrupted {
        detail: "output violates C2SR invariants",
        rows: Vec::new(),
    };
    let pins = [
        (0, abft(127)),
        (1, abft(121)),
        (2, abft(81)),
        (3, abft(71)),
        (4, abft(1)),
        (5, abft(49)),
        (6, abft(76)),
        (7, abft(2)),
        (15, c2sr()),
        (23, c2sr()),
    ];
    for (seed, want) in pins {
        let plan = FaultPlan::sample(FaultKind::StreamTruncation, seed, lanes);
        match run_faulted(&accel, &a, &b, Some(&plan)) {
            Err(got) => assert_eq!(got, want, "plan seed {seed}"),
            Ok(_) => panic!("plan seed {seed}: the truncated stream completed"),
        }
    }
}
