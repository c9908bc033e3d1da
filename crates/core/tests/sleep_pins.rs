//! Sleep-heavy pins: runs whose lanes spend most cycles asleep, waiting on
//! the memory, pinned exactly.
//!
//! The tiny jobs of the `wire_mixed` benchmark (8–16-dim uniform operands,
//! 2 non-zeros per row) and a 1×1 identity on the 2-lane template of the
//! `par_slices` benchmark spend most of their cycles with every lane
//! asleep. In each of these runs the first such stretch starts at cycle 2
//! and ends at cycle 94, when the first row-info response arrives. Every
//! case pins its statistics and output, and a pause at every cycle from 1
//! to 100: the checkpoint bytes, and a resume that must finish exactly as
//! the uninterrupted run did. So some pauses fall inside a stretch in
//! which no lane ticks.
//!
//! A second set pins runs armed with the two fault kinds that act above
//! the memory (a dropped writer append and a truncated A stream). They
//! install no memory fault schedule, so their lanes sleep as in a clean
//! run. With output verification off the pinned seeds complete, and their
//! statistics and output are pinned. Neither kind wedged the machine on
//! any seed and operand shape tried, so the watchdog and budget exits of a
//! sleeping machine are pinned in the core crate's unit tests instead, on
//! a write whose acknowledgement never comes.

mod common;

use std::ops::RangeInclusive;

use common::{checkpoint_at, resume, run_faulted};
use matraptor_core::{Accelerator, FaultKind, FaultPlan, MatRaptorConfig};
use matraptor_sim::trace::fnv1a64;
use matraptor_sparse::rng::ChaCha8Rng;
use matraptor_sparse::{gen, Csr};

/// The 2-lane template of the `par_slices` and `wire_mixed` benchmarks.
fn two_lane() -> MatRaptorConfig {
    MatRaptorConfig {
        watchdog_window: 2_000,
        verify_against_reference: false,
        abft_verification: true,
        ..MatRaptorConfig::small_test()
    }
}

/// The first `n` operand pairs of the `wire_mixed` job pool at seed 1.
fn wire_shapes(n: usize) -> Vec<(Csr<f64>, Csr<f64>)> {
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    (0..n)
        .map(|_| {
            let n = rng.gen_range(8..17usize);
            let a = gen::uniform(n, n, 2 * n, rng.next_u64());
            let b = gen::uniform(n, n, 2 * n, rng.next_u64());
            (a, b)
        })
        .collect()
}

/// The pause cycles: every cycle across the first all-asleep stretch.
const PAUSES: RangeInclusive<u64> = 1..=100;

/// `(case, run digest, pause digest)`. The run digest hashes the `Debug`
/// form of the statistics and output; the pause digest hashes the bytes
/// of the checkpoints at every cycle of [`PAUSES`], in order.
const SLEEP_PINS: [(&str, u64, u64); 5] = [
    ("wire0", 0x398cf53454c2b8da, 0x1ba87a6b9c408472),
    ("wire1", 0xe3990ff455ab6ddc, 0xe956fd583e819959),
    ("wire2", 0x36b3c11a1d8c1e2d, 0xaa6f6fb6a294fd02),
    ("wire3", 0x0890d08e34d16cd6, 0x931c18d572536bb7),
    ("eye1", 0x33e7b206bd681630, 0x13f4fdd3364e9361),
];

#[test]
fn sleep_heavy_runs_and_their_pauses_match_the_pins() {
    let accel = Accelerator::new(two_lane());
    let mut cases: Vec<(Csr<f64>, Csr<f64>)> = wire_shapes(4);
    cases.push((Csr::identity(1), Csr::identity(1)));
    for ((a, b), &(id, run_pin, pause_pin)) in cases.iter().zip(&SLEEP_PINS) {
        let full = accel.try_run(a, b).expect("clean run");
        let mut bytes = Vec::new();
        for k in PAUSES {
            let ck = checkpoint_at(&accel, a, b, None, k)
                .expect("no failure before the pause")
                .expect("the run is longer than the pauses");
            assert_eq!(ck.cycle(), k);
            let resumed = resume(&accel, a, b, &ck).expect("clean resume");
            assert_eq!(resumed.stats, full.stats, "{id}: a resume from cycle {k} diverged");
            assert_eq!(resumed.c, full.c, "{id}: a resume from cycle {k} diverged");
            bytes.extend(ck.to_bytes());
        }
        let run = fnv1a64(format!("{:?}", (&full.stats, &full.c)).as_bytes());
        assert_eq!(
            (id, run, fnv1a64(&bytes)),
            (id, run_pin, pause_pin),
            "{id}: simulated results changed"
        );
    }
}

/// `(kind, fault seed, run digests)` of the fault runs on the first
/// `wire_mixed` shape and on a 48-dim uniform product. Each seed's fault
/// fires on the first shape, so its digest differs from the clean run's.
const FAULT_PINS: [(FaultKind, u64, u64, u64); 4] = [
    (FaultKind::DroppedWrite, 0, 0x4267ce815bf7536a, 0xec8a986977e5e25d),
    (FaultKind::DroppedWrite, 3, 0xcee8bd6eaa856742, 0xfd8aaf5aa6d419ef),
    (FaultKind::StreamTruncation, 0, 0xa08b88fead50b1e4, 0xca4d66e5f5fa6b8f),
    (FaultKind::StreamTruncation, 3, 0xaaaee66eda2bb752, 0x25e86734d48a5715),
];

#[test]
fn faults_above_the_memory_match_the_pins() {
    let cfg =
        MatRaptorConfig { abft_verification: false, verify_against_reference: false, ..two_lane() };
    let lanes = cfg.num_lanes();
    let accel = Accelerator::new(cfg);
    let (wa, wb) = wire_shapes(1).remove(0);
    let (ua, ub) = (gen::uniform(48, 48, 400, 11), gen::uniform(48, 48, 400, 12));
    for &(kind, seed, wire_pin, uniform_pin) in &FAULT_PINS {
        let plan = FaultPlan::sample(kind, seed, lanes);
        let digest = |a: &Csr<f64>, b: &Csr<f64>| {
            let outcome = run_faulted(&accel, a, b, Some(&plan)).expect("no verification to fail");
            fnv1a64(format!("{:?}", (&outcome.stats, &outcome.c)).as_bytes())
        };
        assert_eq!(
            (kind, seed, digest(&wa, &wb), digest(&ua, &ub)),
            (kind, seed, wire_pin, uniform_pin),
            "{} seed {seed}: simulated results changed",
            kind.name()
        );
    }
}
