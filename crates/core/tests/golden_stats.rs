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

mod common;

use common::{checkpoint_at, run_faulted};
use matraptor_core::{Accelerator, FaultKind, FaultPlan, MatRaptorConfig};
use matraptor_mem::HbmConfig;
use matraptor_sim::trace::fnv1a64;
use matraptor_sparse::{gen, Csr};

/// Accelerator cycle at which a fault-free case is checkpointed; each run
/// is longer than this. A faulted case is checkpointed 50 memory cycles
/// into its fault, so the checkpoint holds the fault's effects.
const PAUSE: u64 = 200;

struct Case {
    name: &'static str,
    cfg: MatRaptorConfig,
    a: Csr<f64>,
    fault: Option<FaultKind>,
}

fn cases() -> Vec<Case> {
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
        let plan = case.fault.map(|kind| FaultPlan::sample(kind, 42, case.cfg.num_lanes));
        let run = match run_faulted(&accel, &case.a, &case.a, plan.as_ref()) {
            Ok(outcome) => format!("{:?}", (&outcome.stats, &outcome.c)),
            Err(error) => format!("{error:?}"),
        };
        let pause = plan.map_or(PAUSE, |p| (p.start + 50) * case.cfg.mem_clock_ratio());
        let checkpoint = checkpoint_at(&accel, &case.a, &case.a, plan.as_ref(), pause)
            .expect("no failure before the pause")
            .expect("the run is longer than the pause");
        let got = (case.name, fnv1a64(run.as_bytes()), fnv1a64(&checkpoint.to_bytes()));
        assert_eq!(got, pin, "{}: simulated results changed", case.name);
    }
}
