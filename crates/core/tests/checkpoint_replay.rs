//! Checkpoint/restore replay-determinism tests: a run paused at cycle
//! *k*, serialized, deserialized, and resumed must be **bit-identical**
//! to the uninterrupted run — same total cycle count, same output
//! structure, same value bits — for any *k*. This is the invariant of
//! DESIGN.md §9, and the CI `checkpoint-replay` job runs this file.

mod common;

use common::{checkpoint_at, resume, run_faulted};
use matraptor_core::{
    Accelerator, Checkpoint, CheckpointError, FaultKind, FaultPlan, MatRaptorConfig, Operands,
    RunStart, SimError, CHECKPOINT_VERSION,
};
use matraptor_sparse::{gen, Csr};

fn test_matrices() -> (Csr<f64>, Csr<f64>) {
    (gen::uniform(48, 48, 400, 11), gen::uniform(48, 48, 400, 12))
}

fn accel() -> Accelerator {
    Accelerator::new(MatRaptorConfig::small_test())
}

fn value_bits(c: &Csr<f64>) -> Vec<u64> {
    c.values().iter().map(|v| v.to_bits()).collect()
}

/// The tentpole invariant, at several snapshot cycles including ones that
/// land mid-burst, mid-row, and near the drain: pause at k, round-trip
/// the checkpoint through bytes, resume, and compare everything.
#[test]
fn replay_is_bit_identical_across_snapshot_cycles() {
    let (a, b) = test_matrices();
    let accel = accel();
    let full = accel.try_run(&a, &b).expect("clean run");
    let total = full.stats.total_cycles;
    assert!(total > 1_000, "test matrices should run for a while, got {total}");
    for k in [1, 64, 333, total / 2, total - 2] {
        let ck = checkpoint_at(&accel, &a, &b, None, k)
            .expect("checkpointing run")
            .unwrap_or_else(|| panic!("run should not drain before cycle {k}"));
        assert_eq!(ck.cycle(), k);
        assert_eq!(ck.version(), CHECKPOINT_VERSION);
        // Serialize → deserialize: resume must work from the persisted
        // form, not just the in-memory object.
        let bytes = ck.to_bytes();
        let ck = Checkpoint::from_bytes(&bytes).expect("round-trip");
        assert_eq!(ck.cycle(), k);
        let resumed = resume(&accel, &a, &b, &ck).expect("resume");
        assert_eq!(resumed.stats.total_cycles, total, "cycle count diverged at k={k}");
        assert_eq!(resumed.stats.breakdown, full.stats.breakdown, "breakdown diverged at k={k}");
        assert_eq!(resumed.stats.bytes_read, full.stats.bytes_read);
        assert_eq!(resumed.stats.bytes_written, full.stats.bytes_written);
        assert_eq!(resumed.c.row_ptr(), full.c.row_ptr());
        assert_eq!(resumed.c.col_idx(), full.c.col_idx());
        assert_eq!(value_bits(&resumed.c), value_bits(&full.c), "value bits diverged at k={k}");
    }
}

/// Replay determinism holds under an armed fault too: a bounded burst
/// refusal perturbs timing, and the checkpoint must carry the fault state
/// so the resumed run sees the identical perturbed timeline.
#[test]
fn faulted_run_resumes_bit_identically() {
    let (a, b) = test_matrices();
    let accel = accel();
    let plan = FaultPlan::sample(FaultKind::BurstRefusal, 5, 2);
    let full = run_faulted(&accel, &a, &b, Some(&plan)).expect("survivable fault");
    let k = full.stats.total_cycles / 3;
    let ck = checkpoint_at(&accel, &a, &b, Some(&plan), k)
        .expect("checkpointing run")
        .expect("checkpoint");
    let resumed = resume(&accel, &a, &b, &ck).expect("resume");
    assert_eq!(resumed.stats.total_cycles, full.stats.total_cycles);
    assert_eq!(value_bits(&resumed.c), value_bits(&full.c));
}

/// A run snapshotted every 256 cycles leaves its last pre-failure
/// checkpoint with the caller. The fault schedule rides the checkpoint, so
/// its resume meets the same wedge, with the same diagnostic.
#[test]
fn a_stalled_runs_last_checkpoint_resumes_into_the_same_wedge() {
    let (a, b) = test_matrices();
    let mut cfg = MatRaptorConfig::small_test();
    cfg.watchdog_window = 2_000;
    let accel = Accelerator::new(cfg);
    let plan = FaultPlan::sample(FaultKind::ChannelStall, 7, 2);
    let start = RunStart::Fresh { plan: Some(&plan), trace: None };
    let ops = Operands::new(&a, &b).expect("valid operands");
    let mut run = accel.start(ops, start).expect("fresh");
    let mut last = None;
    let error = loop {
        match run.advance(run.cycle() + 256) {
            Ok(false) => last = Some(run.snapshot()),
            Ok(true) => panic!("a permanent stall must fail"),
            Err(error) => break error,
        }
    };
    let SimError::Deadlock(wedge) = error else { panic!("expected a deadlock, got {error:?}") };
    let ck = last.expect("checkpoints were taken before the wedge");
    match resume(&accel, &a, &b, &ck) {
        Err(SimError::Deadlock(resumed)) => assert_eq!(resumed, wedge),
        other => panic!("expected the same deadlock, got {other:?}"),
    }
}

/// Checkpoints are rejected loudly, never resumed wrongly: foreign
/// matrices, corrupted bytes, truncation, and future versions all fail
/// with the precise error.
#[test]
fn checkpoint_rejection_paths() {
    let (a, b) = test_matrices();
    let accel = accel();
    let ck =
        checkpoint_at(&accel, &a, &b, None, 64).expect("checkpointing run").expect("checkpoint");

    // Wrong operands: fingerprint mismatch.
    let (other_a, other_b) = (gen::uniform(48, 48, 400, 90), gen::uniform(48, 48, 400, 91));
    match resume(&accel, &other_a, &other_b, &ck) {
        Err(SimError::CheckpointMismatch { .. }) => {}
        other => panic!("expected CheckpointMismatch, got {other:?}"),
    }

    // Wrong configuration: also a fingerprint mismatch.
    let mut cfg = MatRaptorConfig::small_test();
    cfg.coupling_fifo_depth += 1;
    match resume(&Accelerator::new(cfg), &a, &b, &ck) {
        Err(SimError::CheckpointMismatch { .. }) => {}
        other => panic!("expected CheckpointMismatch, got {other:?}"),
    }

    let bytes = ck.to_bytes();

    // Bit flip in the payload: checksum mismatch.
    let mut corrupted = bytes.clone();
    let last = corrupted.len() - 1;
    corrupted[last] ^= 0x40;
    match Checkpoint::from_bytes(&corrupted) {
        Err(CheckpointError::ChecksumMismatch) => {}
        other => panic!("expected ChecksumMismatch, got {other:?}"),
    }

    // Truncation at any prefix: a structured error, never a panic.
    for cut in [0, 3, 15, 16, bytes.len() / 2, bytes.len() - 1] {
        assert!(Checkpoint::from_bytes(&bytes[..cut]).is_err(), "prefix {cut} accepted");
    }

    // Unknown future version.
    let mut future = bytes.clone();
    future[4..8].copy_from_slice(&(CHECKPOINT_VERSION + 1).to_le_bytes());
    match Checkpoint::from_bytes(&future) {
        Err(CheckpointError::UnsupportedVersion { found }) => {
            assert_eq!(found, CHECKPOINT_VERSION + 1);
        }
        other => panic!("expected UnsupportedVersion, got {other:?}"),
    }

    // Wrong magic.
    let mut bad_magic = bytes;
    bad_magic[0] = b'X';
    match Checkpoint::from_bytes(&bad_magic) {
        Err(CheckpointError::BadMagic) => {}
        other => panic!("expected BadMagic, got {other:?}"),
    }
}
