//! End-to-end integration: generators → formats → accelerator → checks.

use matraptor::accel::{Accelerator, FaultKind, FaultPlan, MatRaptorConfig, RunStart, SimError};
use matraptor::baselines::{BandwidthNorm, CpuModel, GpuModel, OuterSpaceModel, Workload};
use matraptor::energy::EnergyModel;
use matraptor::sparse::{gen, spgemm, C2sr};

fn small_accel() -> Accelerator {
    Accelerator::new(MatRaptorConfig::small_test())
}

#[test]
fn suite_matrices_run_end_to_end() {
    // Every Table II stand-in (tiny scale) must go through the full
    // pipeline with verification enabled (the default), which asserts the
    // output matches the software reference inside run().
    for spec in gen::suite::table2() {
        let a = spec.generate(512, 3);
        let outcome = small_accel().run(&a, &a);
        assert!(outcome.stats.total_cycles > 0, "{}", spec.id);
        let flops = spgemm::multiply_count(&a, &a);
        if outcome.stats.overflow_rows == 0 {
            assert_eq!(outcome.stats.multiplies, flops, "{}: multiplies accounted", spec.id);
        } else {
            // Products of overflowed rows are discarded, not retired.
            assert!(outcome.stats.multiplies < flops, "{}", spec.id);
        }
    }
}

#[test]
fn accelerator_output_is_valid_c2sr() {
    // The run checks the lanes' output streams as C²SR and assembles the
    // product from them: it lays out over the lanes' channels again.
    let a = gen::uniform(96, 96, 700, 5);
    let cfg = MatRaptorConfig::small_test();
    let outcome = Accelerator::new(cfg.clone()).run(&a, &a);
    assert!(outcome.c.approx_eq(&spgemm::gustavson(&a, &a), 1e-9));
    let c2sr = C2sr::from_csr(&outcome.c, cfg.num_lanes());
    c2sr.validate().expect("the product lays out as valid C2SR");
    assert_eq!(c2sr.to_csr(), outcome.c);

    // A truncated A stream that leaves a lane's output out of C²SR order
    // is refused by that check (the fault campaign's matrix and machine).
    let (a, b) = (gen::uniform(128, 128, 1024, 7), gen::uniform(128, 128, 1024, 8));
    let cfg = MatRaptorConfig {
        watchdog_window: 5_000,
        verify_against_reference: false,
        abft_verification: true,
        ..MatRaptorConfig::small_test()
    };
    let plan = FaultPlan::sample(FaultKind::StreamTruncation, 15, cfg.num_lanes());
    let start = RunStart::Fresh { plan: Some(&plan), trace: None };
    match Accelerator::new(cfg).run_to_end(&a, &b, start) {
        Err(SimError::OutputCorrupted { detail, rows }) => {
            assert_eq!((detail, rows), ("output violates C2SR invariants", Vec::new()));
        }
        other => panic!("expected the C2SR refusal, got {other:?}"),
    }
}

#[test]
fn chained_multiplication_stays_consistent() {
    // (A*A)*A computed on the accelerator equals the software A^3.
    let a = gen::uniform(64, 64, 320, 6);
    let accel = small_accel();
    let a2 = accel.run(&a, &a);
    let a3 = accel.run(&a2.c, &a);
    let reference = spgemm::gustavson(&spgemm::gustavson(&a, &a), &a);
    assert!(a3.c.approx_eq(&reference, 1e-6));
}

#[test]
fn all_baselines_are_slower_than_matraptor_on_suite_geomean() {
    // The headline orderings of Fig. 8a, on a small but non-trivial case.
    let spec = gen::suite::by_id("az").expect("az exists");
    let a = spec.generate(128, 9);
    let cfg = MatRaptorConfig { verify_against_reference: false, ..MatRaptorConfig::default() };
    let outcome = Accelerator::new(cfg).run(&a, &a);
    let t_mat = outcome.stats.elapsed_seconds();

    let w = Workload::measure(&a, &a);
    let t_cpu1 = CpuModel::single_thread().run(&w, BandwidthNorm::Native).time_s;
    let t_cpu12 = CpuModel::multi_thread().run(&w, BandwidthNorm::Native).time_s;
    let t_gpu = GpuModel::default().run(&w, BandwidthNorm::Native).time_s;
    let t_os = OuterSpaceModel::default().run(&w).time_s;

    assert!(t_cpu1 > t_cpu12, "12T beats 1T");
    assert!(t_cpu12 > t_gpu, "GPU beats 12T CPU");
    assert!(t_gpu > t_mat, "MatRaptor beats the GPU");
    assert!(t_os > t_mat, "MatRaptor beats OuterSPACE on a spilling workload");
    // And the gap to the CPU is orders of magnitude, as in the paper.
    assert!(t_cpu1 / t_mat > 20.0, "CPU-1T gap too small: {:.1}", t_cpu1 / t_mat);
}

#[test]
fn energy_model_favours_the_accelerator() {
    let a = gen::suite::by_id("cc").expect("cc exists").generate(64, 2);
    let cfg = MatRaptorConfig { verify_against_reference: false, ..MatRaptorConfig::default() };
    let outcome = Accelerator::new(cfg).run(&a, &a);
    let e_mat = EnergyModel::matraptor().energy_j(
        outcome.stats.elapsed_seconds(),
        outcome.stats.traffic_read + outcome.stats.traffic_written,
    );
    let w = Workload::measure(&a, &a);
    let e_cpu = CpuModel::single_thread().run(&w, BandwidthNorm::Native).energy_j;
    assert!(e_cpu / e_mat > 50.0, "energy benefit too small: {:.1}", e_cpu / e_mat);
}

#[test]
fn c2sr_round_trips_through_the_facade() {
    let a = gen::banded(200, 6, 1_500, 8);
    let c2sr = C2sr::from_csr(&a, 8);
    assert_eq!(c2sr.to_csr(), a);
}

#[test]
fn overflow_configuration_still_correct_end_to_end() {
    let cfg = MatRaptorConfig { queue_bytes: 64, ..MatRaptorConfig::small_test() };
    let a = gen::uniform(48, 48, 800, 10);
    let outcome = Accelerator::new(cfg).run(&a, &a);
    assert!(outcome.stats.overflow_rows > 0);
    assert!(outcome.c.approx_eq(&spgemm::gustavson(&a, &a), 1e-6));
}
