//! Configuration sweeps: the accelerator must stay functionally correct
//! and behave sanely across its whole parameter space.

use matraptor_core::{Accelerator, ConfigError, MatRaptorConfig};
use matraptor_mem::HbmConfig;
use matraptor_sparse::{gen, spgemm};

fn check(cfg: MatRaptorConfig, seed: u64) {
    let a = gen::uniform(80, 80, 500, seed);
    let b = gen::uniform(80, 80, 450, seed + 1);
    let outcome = Accelerator::new(cfg).run(&a, &b);
    assert!(outcome.c.approx_eq(&spgemm::gustavson(&a, &b), 1e-6));
}

#[test]
fn lane_counts() {
    for lanes in [1usize, 2, 3, 4, 8] {
        let cfg = MatRaptorConfig {
            num_lanes: lanes,
            mem: HbmConfig::with_channels(lanes),
            ..MatRaptorConfig::default()
        };
        check(cfg, 100 + lanes as u64);
    }
}

#[test]
fn queue_counts() {
    for q in [3usize, 4, 5, 10, 16] {
        let cfg = MatRaptorConfig { queues_per_pe: q, ..MatRaptorConfig::small_test() };
        check(cfg, 200 + q as u64);
    }
}

#[test]
fn queue_sizes_including_overflowing() {
    for bytes in [32usize, 64, 256, 4096, 65536] {
        let cfg = MatRaptorConfig { queue_bytes: bytes, ..MatRaptorConfig::small_test() };
        check(cfg, 300 + bytes as u64);
    }
}

#[test]
fn read_widths() {
    for width in [8u32, 16, 32, 64] {
        let cfg = MatRaptorConfig { read_request_bytes: width, ..MatRaptorConfig::small_test() };
        check(cfg, 400 + width as u64);
    }
}

/// `try_validate` accepts a configuration exactly when its streaming
/// reads tile the interleave (a non-zero multiple of the entry that
/// divides the interleave, which the 8 B row-info pair divides too), and
/// every configuration it accepts multiplies correctly.
#[test]
fn validation_accepts_exactly_the_read_tilings_that_multiply_correctly() {
    let a = gen::uniform(80, 80, 500, 900);
    let b = gen::uniform(80, 80, 450, 901);
    let reference = spgemm::gustavson(&a, &b);
    let mut accepted = 0;
    for entry_bytes in [4usize, 8, 16] {
        for width in [0u32, 4, 8, 12, 16, 24, 32, 48, 64, 128] {
            for interleave in [64u32, 128] {
                let mut cfg = MatRaptorConfig {
                    entry_bytes,
                    read_request_bytes: width,
                    verify_against_reference: false,
                    ..MatRaptorConfig::small_test()
                };
                cfg.mem.interleave_bytes = interleave;
                let tiles = width != 0
                    && (width as usize).is_multiple_of(entry_bytes)
                    && interleave.is_multiple_of(width)
                    && interleave.is_multiple_of(8);
                let name =
                    format!("entry {entry_bytes} B, width {width} B, interleave {interleave} B");
                match cfg.try_validate() {
                    Ok(()) => assert!(tiles, "{name}: accepted but does not tile"),
                    Err(ConfigError::UntiledReads { .. }) => {
                        assert!(!tiles, "{name}: tiles but refused");
                        continue;
                    }
                    Err(e) => panic!("{name}: unexpected {e}"),
                }
                accepted += 1;
                let c = Accelerator::new(cfg).try_run(&a, &b).map(|o| o.c);
                assert!(
                    c.as_ref().is_ok_and(|c| c.approx_eq(&reference, 1e-6)),
                    "{name}: wrong product: {:?}",
                    c.err()
                );
            }
        }
    }
    assert_eq!(accepted, 27);
}

#[test]
fn clock_ratios() {
    for clock in [1.0f64, 2.0, 3.0, 4.0] {
        let cfg = MatRaptorConfig { clock_ghz: clock, ..MatRaptorConfig::small_test() };
        check(cfg, 500 + clock as u64);
    }
}

#[test]
fn single_queue_set_mode() {
    let cfg = MatRaptorConfig { double_buffering: false, ..MatRaptorConfig::small_test() };
    check(cfg, 600);
}

#[test]
fn shallow_fifos_do_not_deadlock() {
    let cfg = MatRaptorConfig {
        coupling_fifo_depth: 1,
        outstanding_requests: 2,
        ..MatRaptorConfig::small_test()
    };
    check(cfg, 700);
}

#[test]
fn shallow_memory_queues_do_not_deadlock() {
    let cfg = MatRaptorConfig {
        mem: HbmConfig { queue_depth: 2, ..HbmConfig::with_channels(2) },
        ..MatRaptorConfig::small_test()
    };
    check(cfg, 800);
}

#[test]
fn degenerate_matrices() {
    let accel = Accelerator::new(MatRaptorConfig::small_test());
    // 1x1.
    let one = gen::uniform(1, 1, 1, 1);
    assert_eq!(accel.run(&one, &one).c.nnz(), 1);
    // Single dense row times single dense column.
    let row = matraptor_sparse::Csr::from_parts(1, 6, vec![0, 6], (0..6).collect(), vec![1.0; 6])
        .expect("valid");
    let col = row.transpose();
    let outcome = accel.run(&row, &col);
    assert_eq!(outcome.c.get(0, 0), Some(6.0));
    // And the rank-1 outer-product shape (dense output).
    let outer = accel.run(&col, &row);
    assert_eq!(outer.c.nnz(), 36);
}

#[test]
fn stats_are_internally_consistent() {
    let a = gen::rmat(200, 1_500, gen::RmatParams::default(), 9);
    let cfg = MatRaptorConfig { verify_against_reference: false, ..MatRaptorConfig::default() };
    let s = Accelerator::new(cfg).run(&a, &a).stats;
    // Breakdown accounts for every PE cycle of every lane.
    assert_eq!(s.breakdown.total(), s.total_cycles * 8);
    // Per-PE breakdowns sum to the aggregate.
    let sum: u64 = s.per_pe_breakdown.iter().map(|b| b.total()).sum();
    assert_eq!(sum, s.breakdown.total());
    // Traffic is at least the useful bytes.
    assert!(s.traffic_read >= s.bytes_read);
    assert!(s.traffic_written >= s.bytes_written);
    // Ops match the multiply/addition counters.
    assert_eq!(s.total_ops(), s.multiplies + s.additions);
}
