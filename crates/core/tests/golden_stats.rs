//! Golden statistics: the exact simulated results of a few fixed runs.
//!
//! The simulator's hot path may change *how* it computes — the containers
//! of its request bookkeeping, the arithmetic of its address decoding, the
//! no-op work it skips — but never *what* it simulates. These pins hold
//! every statistic, the output matrix, and the bytes of a mid-run
//! checkpoint to values recorded before the hot path was optimized, over
//! the paper's geometry, the 2-lane test geometry, a non-power-of-two
//! geometry (3 channels, 1000 B rows, 7 banks, clock ratio 3) that takes
//! the division fallbacks, queue overflows, and the two memory faults that
//! act inside the HBM model.
//!
//! A second set pins runs whose lanes spend most cycles stalled — the
//! paper geometry on the `facebook` (power-law, merge-heavy) and
//! `offshore` (banded) stand-ins of Table II — stage by stage: every
//! lane's attribution buckets, the PE phase cycles, a mid-run checkpoint
//! and the window series of a traced run.
//!
//! A third set pins the two long power-law jobs of the `par_slices`
//! benchmark stream on the 2-lane template: their statistics, output and
//! checkpoints at three points of the run. A fourth pins, the same way,
//! two runs on a memory of tiny rows, two banks and short channel queues,
//! whose row misses and bank conflicts load the channel's activation
//! logic at lookahead 0 and 1.

mod common;

use common::{cases, checkpoint_at, run_faulted, run_traced, stall_case};
use matraptor_core::{Accelerator, FaultPlan, MatRaptorConfig, TraceConfig};
use matraptor_sim::trace::fnv1a64;
use matraptor_sparse::gen::{self, suite};
use matraptor_sparse::Csr;

/// Accelerator cycle at which a fault-free case is checkpointed; each run
/// is longer than this. A faulted case is checkpointed 50 memory cycles
/// into its fault, so the checkpoint holds the fault's effects.
const PAUSE: u64 = 200;

/// `(name, run digest, checkpoint digest)` per case. The run digest hashes
/// the `Debug` form of the statistics and output (or of the error); the
/// checkpoint digest hashes `Checkpoint::to_bytes` at the pause cycle.
const PINS: [(&str, u64, u64); 6] = [
    ("paper/rmat", 0xe7aaad8381beac1c, 0xe988748998e456f8),
    ("small/uniform", 0x3e7f66afde9ff9c8, 0xa05d8532f32ed341),
    ("odd/uniform", 0x844758628bfcb51d, 0x231f856697f40450),
    ("overflow", 0x73fd2cc09067f324, 0xb6a7b7bc4fc5e456),
    ("burst_refusal", 0xc559ca50641d5591, 0xadf304522ec31263),
    ("channel_stall", 0xff39851184b26787, 0xcc11492e83aaca9a),
];

#[test]
fn simulated_results_match_the_pins() {
    let cases = cases();
    assert_eq!(cases.len(), PINS.len());
    for (case, &pin) in cases.iter().zip(&PINS) {
        let accel = Accelerator::new(case.cfg.clone());
        let plan = case.fault.map(|kind| FaultPlan::sample(kind, 42, case.cfg.num_lanes()));
        let run = match run_faulted(&accel, &case.a, &case.a, plan.as_ref()) {
            Ok(outcome) => format!("{:?}", (&outcome.stats, &outcome.c)),
            Err(error) => format!("{error:?}"),
        };
        let ratio = case.cfg.mem_clock_ratio().expect("a valid configuration");
        let pause = plan.map_or(PAUSE, |p| (p.start + 50) * ratio);
        let checkpoint = checkpoint_at(&accel, &case.a, &case.a, plan.as_ref(), pause)
            .expect("no failure before the pause")
            .expect("the run is longer than the pause");
        let got = (case.name, fnv1a64(run.as_bytes()), fnv1a64(&checkpoint.to_bytes()));
        assert_eq!(got, pin, "{}: simulated results changed", case.name);
    }
}

/// One stall-heavy run's pins: digests of the run (statistics and output)
/// and of the per-lane attribution, the PE phase-I and phase-II cycles
/// summed over lanes, and digests of the checkpoint at half the run and of
/// the run's trace windows (`RunTrace::fingerprint`). The run is traced;
/// tracing is bit-identical to the untraced run (`trace_attribution.rs`).
#[derive(Debug, PartialEq)]
struct StallPin {
    id: &'static str,
    run: u64,
    attribution: u64,
    phase1: u64,
    phase2: u64,
    checkpoint: u64,
    trace: u64,
}

const STALL_PINS: [StallPin; 2] = [
    StallPin {
        id: "fb",
        run: 0x1beb5aec377ddb23,
        attribution: 0x627a8ce13fe3009,
        phase1: 792306,
        phase2: 39851,
        checkpoint: 0xe625c2210ba6d492,
        trace: 0x23ee3ee1d8c9e1fb,
    },
    StallPin {
        id: "of",
        run: 0xe3a14a77ff1db66c,
        attribution: 0xbf511b75ace2c434,
        phase1: 782503,
        phase2: 78022,
        checkpoint: 0xa51f4c8373b17ef5,
        trace: 0x90eb32ccd206f323,
    },
];

#[test]
fn stall_heavy_runs_match_the_pins() {
    let trace_cfg = TraceConfig { window: 256, ..TraceConfig::default() };
    for pin in &STALL_PINS {
        let case = stall_case(pin.id);
        let (accel, a) = (Accelerator::new(case.cfg), case.a);
        let (outcome, trace) = run_traced(&accel, &a, &a, &trace_cfg).expect("clean run");
        let stats = &outcome.stats;
        let checkpoint = checkpoint_at(&accel, &a, &a, None, stats.total_cycles / 2)
            .expect("no failure before the pause")
            .expect("the run is longer than its half");
        let got = StallPin {
            id: pin.id,
            run: fnv1a64(format!("{:?}", (stats, &outcome.c)).as_bytes()),
            attribution: fnv1a64(format!("{:?}", stats.per_lane_attribution).as_bytes()),
            phase1: stats.phase1_cycles,
            phase2: stats.phase2_cycles,
            checkpoint: fnv1a64(&checkpoint.to_bytes()),
            trace: trace.fingerprint(),
        };
        assert_eq!(&got, pin, "{}: simulated results changed", pin.id);
    }
}

/// One long-job pin: digests of the run (statistics and output) and of the
/// checkpoints at a quarter, half and three quarters of the run.
#[derive(Debug, PartialEq)]
struct LongJobPin {
    id: &'static str,
    run: u64,
    checkpoints: [u64; 3],
}

/// The [`LongJobPin`] that `a * a` on `accel` yields.
fn long_job_pin(id: &'static str, accel: &Accelerator, a: &Csr<f64>) -> LongJobPin {
    let outcome = accel.try_run(a, a).expect("clean run");
    let cycles = outcome.stats.total_cycles;
    let checkpoints = [1, 2, 3].map(|q| {
        let ck = checkpoint_at(accel, a, a, None, cycles * q / 4)
            .expect("no failure before the pause")
            .expect("the run is longer than the pause");
        fnv1a64(&ck.to_bytes())
    });
    LongJobPin {
        id,
        run: fnv1a64(format!("{:?}", (&outcome.stats, &outcome.c)).as_bytes()),
        checkpoints,
    }
}

/// The long jobs of the `par_slices` benchmark stream at seed 1: the
/// Table II `wv` and `fb` stand-ins at scale 64, squared on the 2-lane
/// template with a 2 000-cycle watchdog and ABFT on. Rows that overflow
/// the sorting queues (the CPU fallback) and SpBL reads piling onto one
/// full channel dominate these runs.
const LONG_JOB_PINS: [LongJobPin; 2] = [
    LongJobPin {
        id: "wv",
        run: 0xd2027664b7561fab,
        checkpoints: [0x8725d302c9c2a20f, 0x5a1253751d67f046, 0x4d20d0633ac019ee],
    },
    LongJobPin {
        id: "fb",
        run: 0x64ba56d186c50e5a,
        checkpoints: [0x4e112d9fcffc25f8, 0xe015e961aeafeaa3, 0x9bed45b279931e41],
    },
];

#[test]
fn long_job_runs_match_the_pins() {
    let cfg = MatRaptorConfig {
        watchdog_window: 2_000,
        verify_against_reference: false,
        abft_verification: true,
        ..MatRaptorConfig::small_test()
    };
    let accel = Accelerator::new(cfg);
    for (k, pin) in LONG_JOB_PINS.iter().enumerate() {
        // The benchmark's seed mix for its k-th long job at stream seed 1.
        let seed = 0x9e37_79b9_7f4a_7c15_u64.wrapping_add(100 + k as u64);
        let a = suite::by_id(pin.id).expect("a Table II id").generate(64, seed);
        assert_eq!(&long_job_pin(pin.id, &accel, &a), pin, "{}: simulated results changed", pin.id);
    }
}

/// The row-miss-heavy cases: the 2-lane template over a memory whose
/// 128 B rows hold two bursts each, with two banks per channel and 4-deep
/// channel queues, so rows are opened often and activations contend for
/// a bank. One case pre-starts no activation (`bank_lookahead: 0`, every
/// row miss is paid on the bus), the other looks one fragment ahead.
/// Pinned like the long jobs.
const ROW_MISS_PINS: [(usize, LongJobPin); 2] = [
    (
        0,
        LongJobPin {
            id: "lookahead0",
            run: 0xdd2fb7ca19920066,
            checkpoints: [0xda3e0f551541bc48, 0x8e774ef0c4fd62ce, 0xdc00faf1dfc3e719],
        },
    ),
    (
        1,
        LongJobPin {
            id: "lookahead1",
            run: 0xd1772bcaef367954,
            checkpoints: [0x202d6ef2d3f8f043, 0xb5b06060a790c69b, 0xd06af86f348c6446],
        },
    ),
];

#[test]
fn row_miss_heavy_runs_match_the_pins() {
    let a = gen::rmat(128, 1200, gen::RmatParams::default(), 17);
    for (lookahead, pin) in &ROW_MISS_PINS {
        let mut cfg = MatRaptorConfig::small_test();
        cfg.mem.row_bytes = 128;
        cfg.mem.banks_per_channel = 2;
        cfg.mem.queue_depth = 4;
        cfg.mem.bank_lookahead = *lookahead;
        let accel = Accelerator::new(cfg);
        assert_eq!(&long_job_pin(pin.id, &accel, &a), pin, "{}: simulated results changed", pin.id);
    }
}
