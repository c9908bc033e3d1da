//! Slice-run edge cases the threaded executor hits in practice: jobs with
//! no work at all (zero-row / all-empty operands), zero-length slices,
//! a checkpoint taken at the *final* cycle of a slice, and the
//! re-dispatch race where a worker dies between completing a slice and
//! acking it. The last one is what makes the fleet's at-most-once
//! accounting *sound*: the duplicate it suppresses is guaranteed to be
//! byte-identical to the result it kept, so suppression never hides a
//! divergent answer.

mod common;

use common::{resume, slice};
use matraptor_core::{Accelerator, MatRaptorConfig, SliceRun};
use matraptor_sparse::{gen, Csr};

fn accel() -> Accelerator {
    Accelerator::new(MatRaptorConfig::small_test())
}

fn value_bits(c: &Csr<f64>) -> Vec<u64> {
    c.values().iter().map(|v| v.to_bits()).collect()
}

/// A job with no multiply work — an all-empty A, and the harsher 0-row A —
/// still drains through the slice path: a single generous slice completes
/// it, and tiny slices (which checkpoint a machine that never had real
/// work) chain to the same empty product instead of wedging.
#[test]
fn zero_row_operands_drain_through_the_slice_path() {
    let accel = accel();
    let b = gen::uniform(16, 16, 80, 7);
    for a in [Csr::zero(16, 16), Csr::zero(0, 16)] {
        let full = accel.try_run(&a, &b).expect("empty product");
        assert_eq!(full.c.nnz(), 0);
        let total = full.stats.total_cycles;
        match slice(&accel, &a, &b, None, total + 1).expect("one generous slice") {
            SliceRun::Completed(out) => {
                assert_eq!(out.c.rows(), a.rows());
                assert_eq!(out.c.nnz(), 0);
                assert_eq!(out.stats.total_cycles, total);
            }
            SliceRun::Paused(ck) => {
                panic!("a no-work job paused at cycle {} instead of completing", ck.cycle())
            }
        }
        // Tiny slices: every pause checkpoints a no-work machine, and the
        // chain must terminate at exactly the uninterrupted cycle count.
        let mut ck = None;
        let mut boundary = 2;
        let out = loop {
            assert!(boundary <= total + 2, "empty job still pausing past its drain cycle");
            match slice(&accel, &a, &b, ck.as_deref(), boundary).expect("tiny slice") {
                SliceRun::Completed(out) => break out,
                SliceRun::Paused(next) => ck = Some(next),
            }
            boundary += 2;
        };
        assert_eq!(out.c.nnz(), 0);
        assert_eq!(out.stats.total_cycles, total);
    }
}

/// `until_cycle = 0` is a legal zero-length slice: the machine pauses
/// before executing anything, and the cycle-0 checkpoint resumes to a run
/// bit-identical to the uninterrupted one.
#[test]
fn zero_length_slice_pauses_at_cycle_zero_and_resumes_identically() {
    let accel = accel();
    let a = gen::uniform(48, 48, 400, 11);
    let b = gen::uniform(48, 48, 400, 12);
    let full = accel.try_run(&a, &b).expect("clean run");
    let ck = match slice(&accel, &a, &b, None, 0).expect("zero-length slice") {
        SliceRun::Paused(ck) => ck,
        SliceRun::Completed(_) => panic!("a zero-length slice cannot complete a real job"),
    };
    assert_eq!(ck.cycle(), 0, "nothing executed before the pause");
    let resumed = resume(&accel, &a, &b, &ck).expect("resume from cycle 0");
    assert_eq!(resumed.stats.total_cycles, full.stats.total_cycles);
    assert_eq!(resumed.c.row_ptr(), full.c.row_ptr());
    assert_eq!(resumed.c.col_idx(), full.c.col_idx());
    assert_eq!(value_bits(&resumed.c), value_bits(&full.c));
}

/// A slice boundary landing one cycle short of the drain produces a
/// checkpoint at the final executed cycle; the next slice performs the
/// single remaining step and must finalize bit-identically to the
/// uninterrupted run.
#[test]
fn checkpoint_at_the_final_cycle_of_a_slice_resumes_identically() {
    let accel = accel();
    let a = gen::uniform(48, 48, 400, 11);
    let b = gen::uniform(48, 48, 400, 12);
    let full = accel.try_run(&a, &b).expect("clean run");
    let total = full.stats.total_cycles;
    assert!(total > 2, "test matrices should do real work");
    let ck = match slice(&accel, &a, &b, None, total - 1).expect("penultimate slice") {
        SliceRun::Paused(ck) => ck,
        SliceRun::Completed(out) => panic!(
            "the run drained in {} cycles inside a {}-cycle slice",
            out.stats.total_cycles,
            total - 1
        ),
    };
    assert_eq!(ck.cycle(), total - 1, "paused exactly at the slice boundary");
    match slice(&accel, &a, &b, Some(&ck), total + 1).expect("final slice") {
        SliceRun::Completed(out) => {
            assert_eq!(out.stats.total_cycles, total);
            assert_eq!(out.c.row_ptr(), full.c.row_ptr());
            assert_eq!(out.c.col_idx(), full.c.col_idx());
            assert_eq!(value_bits(&out.c), value_bits(&full.c));
        }
        SliceRun::Paused(ck) => {
            panic!("one remaining cycle paused again at {}", ck.cycle())
        }
    }
}

/// The lost-ack race, at the slice level: a worker completes the final
/// slice, dies before acking, and the supervisor re-dispatches the same
/// checkpoint to a *different* worker (a separately constructed,
/// identically configured accelerator). Both completions must be
/// byte-identical — the precondition for the fleet's at-most-once
/// accounting to suppress the duplicate without ever hiding a divergent
/// result.
#[test]
fn redispatched_final_slice_is_byte_identical_on_a_second_worker() {
    let a = gen::uniform(48, 48, 400, 11);
    let b = gen::uniform(48, 48, 400, 12);
    let first_worker = accel();
    let full = first_worker.try_run(&a, &b).expect("clean run");
    let total = full.stats.total_cycles;
    let ck = match slice(&first_worker, &a, &b, None, total - 1).expect("penultimate slice") {
        SliceRun::Paused(ck) => ck,
        SliceRun::Completed(_) => panic!("run drained a cycle early"),
    };
    // The checkpoint survives the wire (re-dispatch serializes it).
    let ck = matraptor_core::Checkpoint::from_bytes(&ck.to_bytes()).expect("round-trip");
    let run_final_slice = |worker: &Accelerator| match slice(worker, &a, &b, Some(&ck), total + 1)
        .expect("final slice")
    {
        SliceRun::Completed(out) => out,
        SliceRun::Paused(ck) => panic!("final slice paused at {}", ck.cycle()),
    };
    let acked = run_final_slice(&first_worker);
    let second_worker = accel();
    let duplicate = run_final_slice(&second_worker);
    assert_eq!(duplicate.stats.total_cycles, acked.stats.total_cycles);
    assert_eq!(duplicate.stats.breakdown, acked.stats.breakdown);
    assert_eq!(duplicate.c.row_ptr(), acked.c.row_ptr());
    assert_eq!(duplicate.c.col_idx(), acked.c.col_idx());
    assert_eq!(value_bits(&duplicate.c), value_bits(&acked.c));
    assert_eq!(value_bits(&acked.c), value_bits(&full.c), "and both match the clean run");
}
