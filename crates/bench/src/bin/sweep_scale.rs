//! Scale sweep — how simulated cycles track problem size.
//!
//! Runs one matrix family across `--scale` values and prints cycles,
//! flops, and cycles/flop. SpGEMM work grows as O(flops) (the paper's
//! O(nnz·nnz/N)), so cycles/flop should stay roughly flat as the matrix
//! grows — evidence that the reported speedups are not an artefact of the
//! scaled-down evaluation. Also useful for estimating full-scale
//! (`--scale 1`) simulation times before committing to them.
//!
//! Usage: `cargo run --release -p matraptor-bench --bin sweep_scale -- [--seed N]`

use matraptor_bench::{print_table, Options};
use matraptor_core::{Accelerator, MatRaptorConfig};
use matraptor_sparse::gen::suite;
use matraptor_sparse::spgemm;
use std::time::Instant;

fn main() {
    let opts = Options::from_args();
    let cfg = MatRaptorConfig { verify_against_reference: false, ..MatRaptorConfig::default() };
    let accel = Accelerator::new(cfg);

    println!("Scale sweep — az (amazon0312 stand-in), A x A\n");
    let spec = suite::by_id("az").expect("az");
    let mut rows = Vec::new();
    for scale in [256usize, 128, 64, 32, 16] {
        let a = spec.generate(scale, opts.seed);
        let flops = spgemm::multiply_count(&a, &a);
        let wall = Instant::now();
        let s = accel.run(&a, &a).stats;
        rows.push(vec![
            format!("1/{scale}"),
            format!("{}", a.rows()),
            format!("{}", a.nnz()),
            format!("{flops}"),
            format!("{}", s.total_cycles),
            format!("{:.2}", s.total_cycles as f64 * cfg_lanes() / flops as f64),
            format!("{:.1}", s.achieved_bandwidth_gbs()),
            format!("{:.1}s", wall.elapsed().as_secs_f64()),
        ]);
    }
    print_table(
        &["scale", "N", "nnz", "flops", "cycles", "lane-cyc/flop", "GB/s", "host wall"],
        &rows,
    );
    println!("\nflat lane-cycles/flop across scales means the scaled-down evaluation");
    println!("predicts full-scale behaviour up to the density distortion noted in DESIGN.md.");
}

fn cfg_lanes() -> f64 {
    MatRaptorConfig::default().num_lanes() as f64
}
