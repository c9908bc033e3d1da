//! Integration tests on the *timing* side of the simulation: scaling
//! behaviours the paper's evaluation depends on.

use matraptor::accel::{Accelerator, MatRaptorConfig};
use matraptor::mem::{patterns, HbmConfig};
use matraptor::sparse::gen;

fn run_cycles(cfg: MatRaptorConfig, a: &matraptor::sparse::Csr<f64>) -> u64 {
    Accelerator::new(cfg).run(a, a).stats.total_cycles
}

fn no_verify(mut cfg: MatRaptorConfig) -> MatRaptorConfig {
    cfg.verify_against_reference = false;
    cfg
}

#[test]
fn more_lanes_make_it_faster() {
    // 2 vs 8 lanes (with matching channel counts): near-linear scaling on
    // a balanced workload.
    let a = gen::uniform(1024, 1024, 10_000, 3);
    let cfg2 = no_verify(MatRaptorConfig {
        mem: HbmConfig::with_channels(2),
        ..MatRaptorConfig::default()
    });
    let cfg8 = no_verify(MatRaptorConfig::default());
    let c2 = run_cycles(cfg2, &a);
    let c8 = run_cycles(cfg8, &a);
    let speedup = c2 as f64 / c8 as f64;
    assert!(speedup > 2.0, "8 lanes vs 2 lanes speedup only {speedup:.2}");
}

#[test]
fn work_scales_cycles() {
    // 4x the nnz (same density regime) should cost roughly 2-6x cycles.
    let small = gen::uniform(512, 512, 4_000, 4);
    let large = gen::uniform(1024, 1024, 16_000, 4);
    let cfg = no_verify(MatRaptorConfig::default());
    let cs = run_cycles(cfg.clone(), &small);
    let cl = run_cycles(cfg, &large);
    let ratio = cl as f64 / cs as f64;
    assert!(ratio > 2.0 && ratio < 10.0, "cycle scaling {ratio:.2}");
}

#[test]
fn memory_bound_runs_track_bandwidth() {
    // Achieved pin bandwidth must stay below peak and above a sanity
    // floor on a reasonably sized run.
    let a = gen::suite::by_id("of").expect("of exists").generate(128, 5);
    let cfg = no_verify(MatRaptorConfig::default());
    let outcome = Accelerator::new(cfg).run(&a, &a);
    let bw = outcome.stats.achieved_bandwidth_gbs();
    assert!(bw < 128.0, "cannot exceed peak: {bw}");
    assert!(bw > 20.0, "implausibly low bandwidth: {bw}");
    // Useful bandwidth is below pin bandwidth by the burst-waste factor.
    assert!(outcome.stats.useful_bandwidth_gbs() <= bw);
}

#[test]
fn csr_vs_c2sr_bandwidth_gap_holds_at_all_channel_counts() {
    // Fig. 6's qualitative claim, as a regression test.
    let rows: Vec<u64> = vec![160; 1200];
    for n in [2usize, 4, 8] {
        let cfg = HbmConfig::with_channels(n);
        let csr = patterns::measure_bandwidth(&cfg, &patterns::csr_streams(&rows, n, 8), 64)
            .expect("csr drain");
        let c2sr =
            patterns::measure_bandwidth(&cfg, &patterns::c2sr_streams(&cfg, &rows, n, 64), 64)
                .expect("c2sr drain");
        assert!(
            c2sr.achieved_gbs > 4.0 * csr.achieved_gbs,
            "{n} channels: C2SR {:.1} vs CSR {:.1}",
            c2sr.achieved_gbs,
            csr.achieved_gbs
        );
    }
}

#[test]
fn double_buffering_overlaps_phases() {
    // Phase I and Phase II cycles overlap: their sum exceeds total cycles
    // on merge-heavy workloads (they run concurrently on the two queue
    // sets), which is the whole point of Fig. 5b's duplicated queues.
    let a = gen::suite::by_id("fb").expect("fb exists").generate(64, 6);
    let cfg = no_verify(MatRaptorConfig::default());
    let s = Accelerator::new(cfg).run(&a, &a).stats;
    assert!(
        s.phase1_cycles + s.phase2_cycles > s.total_cycles,
        "phases should overlap: {} + {} vs {}",
        s.phase1_cycles,
        s.phase2_cycles,
        s.total_cycles
    );
}

#[test]
fn deterministic_simulation() {
    // Identical inputs → bit-identical cycle counts and stats.
    let a = gen::rmat(256, 2_000, gen::RmatParams::default(), 7);
    let cfg = no_verify(MatRaptorConfig::default());
    let s1 = Accelerator::new(cfg.clone()).run(&a, &a).stats;
    let s2 = Accelerator::new(cfg).run(&a, &a).stats;
    assert_eq!(s1, s2);
}

#[test]
fn wider_queues_reduce_overflow() {
    let a = gen::uniform(64, 64, 1_200, 8);
    let narrow = no_verify(MatRaptorConfig { queue_bytes: 64, ..MatRaptorConfig::small_test() });
    let wide = no_verify(MatRaptorConfig::small_test());
    let o_narrow = Accelerator::new(narrow).run(&a, &a).stats.overflow_rows;
    let o_wide = Accelerator::new(wide).run(&a, &a).stats.overflow_rows;
    assert!(o_narrow > o_wide, "narrow {o_narrow} vs wide {o_wide}");
}
