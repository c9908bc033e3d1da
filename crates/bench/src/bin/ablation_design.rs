//! Ablation — the three headline design choices of Section IV:
//!
//! 1. **double buffering** (two queue sets overlapping Phase I and II,
//!    Fig. 5b) vs a single set;
//! 2. **vectorized streaming reads** (64 B requests matching the channel
//!    interleave) vs narrow 8 B element reads — the end-to-end version of
//!    the Fig. 6 bandwidth argument;
//! 3. **lane scaling** (2/4/8 lanes with matching channel counts).
//!
//! Usage: `cargo run --release -p matraptor-bench --bin ablation_design -- [--scale N] [--seed N]`

use matraptor_bench::{print_table, Options};
use matraptor_core::{Accelerator, MatRaptorConfig};
use matraptor_mem::HbmConfig;
use matraptor_sparse::gen::suite;

fn main() {
    let opts = Options::from_args();
    let a = suite::by_id("az").expect("az").generate(opts.scale, opts.seed);
    println!("Ablation — Section IV design choices (scale 1/{})\n", opts.scale);

    let base = MatRaptorConfig { verify_against_reference: false, ..MatRaptorConfig::default() };

    // 1. Double buffering — visible on a dense matrix where Phase II is a
    // sizeable fraction of Phase I (the paper measures the ratio down to
    // ~2); memory-bound sparse matrices hide the phases behind DRAM.
    let dense = suite::by_id("fb").expect("fb").generate(opts.scale / 2, opts.seed);
    // An idealised low-latency memory exposes the PE datapath: with real
    // HBM timing the loader pipeline buffers across Phase II, so the
    // double buffer's benefit only appears once memory stops being the
    // bottleneck — which is itself a finding worth printing.
    let ideal_mem = HbmConfig { access_latency: 2, row_miss_penalty: 0, ..HbmConfig::default() };
    let mut rows = Vec::new();
    for (label, db, mem) in [
        ("double-buffered, HBM", true, base.mem.clone()),
        ("single set, HBM", false, base.mem.clone()),
        ("double-buffered, ideal mem", true, ideal_mem.clone()),
        ("single set, ideal mem", false, ideal_mem.clone()),
    ] {
        let cfg = MatRaptorConfig { double_buffering: db, mem, ..base.clone() };
        let s = Accelerator::new(cfg).run(&dense, &dense).stats;
        let (busy, merge, _, _) = s.breakdown.fractions();
        rows.push(vec![
            label.into(),
            format!("{}", s.total_cycles),
            format!("{:.1}%", busy * 100.0),
            format!("{:.1}%", merge * 100.0),
        ]);
    }
    println!("double buffering (two queue sets, Fig. 5b), on fb (N={}):", dense.rows());
    print_table(&["configuration", "cycles", "busy", "merge stall"], &rows);
    println!("  -> under real HBM timing the loaders hide Phase II; the duplicated");
    println!("     queue sets pay off as the memory system gets faster\n");

    // 2. Read request width.
    println!(
        "loader read width (C2SR's vectorized streaming vs narrow reads), on az (N={}):",
        a.rows()
    );
    let mut rows = Vec::new();
    for width in [8u32, 16, 32, 64] {
        let cfg = MatRaptorConfig { read_request_bytes: width, ..base.clone() };
        let s = Accelerator::new(cfg).run(&a, &a).stats;
        rows.push(vec![
            format!("{width} B"),
            format!("{}", s.total_cycles),
            format!("{:.1}", s.achieved_bandwidth_gbs()),
            format!("{:.1}", s.useful_bandwidth_gbs()),
        ]);
    }
    print_table(&["request width", "cycles", "pin GB/s", "useful GB/s"], &rows);

    // 3. Lane scaling.
    println!("\nlane scaling (lanes = channels):");
    let mut rows = Vec::new();
    let mut baseline = None;
    for lanes in [2usize, 4, 8] {
        let cfg = MatRaptorConfig { mem: HbmConfig::with_channels(lanes), ..base.clone() };
        let s = Accelerator::new(cfg).run(&a, &a).stats;
        let speedup = match baseline {
            None => {
                baseline = Some(s.total_cycles);
                1.0
            }
            Some(b) => b as f64 / s.total_cycles as f64,
        };
        rows.push(vec![
            format!("{lanes}"),
            format!("{}", s.total_cycles),
            format!("{speedup:.2}x"),
            format!("{:.2}", s.achieved_gops()),
        ]);
    }
    print_table(&["lanes", "cycles", "speedup vs 2", "GOP/s"], &rows);
}
