//! Observability report over the Table II synthetic suite.
//!
//! For every suite matrix this runs A×A through a traced
//! [`Accelerator::start`] run to completion and checks the layer's two
//! contracts:
//!
//! 1. **Attribution totality** — for every lane and every pipeline stage
//!    (SpAL, SpBL, PE, Writer), busy + mem-stall + queue-stall + idle
//!    equals the run's total cycles: no cycle is dropped or double-charged.
//! 2. **Determinism** — the Chrome-trace export of each run and the
//!    machine-readable summary are pure functions of the inputs; with
//!    `--strict` the whole suite is run twice and both must be
//!    byte-identical, and every exported Chrome trace must parse as JSON.
//!
//! The summary is a [`MetricsRegistry`] (per-matrix cycle totals, stage
//! buckets summed over lanes, HBM traffic, queue-depth stats, trace
//! fingerprints) rendered to deterministic JSON and FNV-1a-fingerprinted —
//! the byte-level identity CI pins.
//!
//! Usage: `cargo run --release -p matraptor-bench --bin trace_report --
//! [--scale N] [--seed N] [--window N] [--json] [--strict]
//! [--chrome-dir DIR]`

use std::fmt::Write as _;

use matraptor_bench::{json, load_suite, print_table, Options};
use matraptor_core::{
    Accelerator, MatRaptorConfig, Operands, RunStart, RunTrace, SimError, TraceConfig,
};
use matraptor_sim::trace::{fnv1a64, MetricsRegistry, StageBreakdown};

struct ReportOptions {
    base: Options,
    /// Sampling window in accelerator cycles.
    window: u64,
    /// Run the suite twice and require byte-identical artifacts.
    strict: bool,
    /// Write each matrix's Chrome trace under this directory.
    chrome_dir: Option<String>,
}

fn parse_args() -> ReportOptions {
    let mut opts =
        ReportOptions { base: Options::default(), window: 256, strict: false, chrome_dir: None };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => {
                opts.base.scale = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| panic!("--scale needs a positive integer"));
            }
            "--seed" => {
                opts.base.seed = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| panic!("--seed needs an integer"));
            }
            "--window" => {
                opts.window = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| panic!("--window needs a positive integer"));
            }
            "--json" => opts.base.json = true,
            "--strict" => opts.strict = true,
            "--chrome-dir" => {
                opts.chrome_dir =
                    Some(args.next().unwrap_or_else(|| panic!("--chrome-dir needs a path")));
            }
            other => panic!(
                "unknown argument {other}; supported: --scale N --seed N --window N \
                 --json --strict --chrome-dir DIR"
            ),
        }
    }
    assert!(opts.base.scale > 0, "--scale must be positive");
    assert!(opts.window > 0, "--window must be positive");
    opts
}

/// One matrix's worth of results.
struct MatrixReport {
    id: &'static str,
    total_cycles: u64,
    /// Per-stage buckets summed over lanes, in pipeline order.
    stages: [(&'static str, StageBreakdown); 4],
    chrome_json: String,
    chrome_fingerprint: u64,
    /// Attribution-totality violations (`lane.stage: total != cycles`).
    violations: Vec<String>,
}

/// Everything one pass over the suite produces: the per-matrix reports and
/// the deterministic summary the strict gate compares byte-for-byte.
struct SuiteReport {
    matrices: Vec<MatrixReport>,
    summary_json: String,
    summary_fingerprint: u64,
}

fn check_attribution(
    id: &str,
    trace: &RunTrace,
    stats: &matraptor_core::MatRaptorStats,
) -> Vec<String> {
    let mut violations = Vec::new();
    for (lane, attr) in stats.per_lane_attribution.iter().enumerate() {
        for (stage, b) in attr.stages() {
            if b.total() != stats.total_cycles {
                violations.push(format!(
                    "{id}: lane{lane}.{stage} buckets sum to {} but the run took {} cycles",
                    b.total(),
                    stats.total_cycles
                ));
            }
        }
    }
    // The windowed timeline must reassemble to the same cumulative story:
    // each lane's per-window deltas sum to the run's total cycles per stage.
    for lane in &trace.lanes {
        for (stage, pick) in [("spal", 0usize), ("spbl", 1), ("pe", 2), ("writer", 3)] {
            let windowed: u64 = lane
                .windows
                .iter()
                .map(|w| [w.spal, w.spbl, w.pe, w.writer][pick].iter().sum::<u64>())
                .sum();
            if windowed != trace.total_cycles {
                violations.push(format!(
                    "{id}: lane{}.{stage} windowed deltas sum to {windowed}, \
                     expected {} — the sampler lost cycles",
                    lane.lane, trace.total_cycles
                ));
            }
        }
    }
    violations
}

fn run_suite(opts: &ReportOptions) -> SuiteReport {
    let suite = load_suite(&opts.base);
    let accel = Accelerator::new(MatRaptorConfig::default());
    let trace_cfg = TraceConfig { window: opts.window, ..TraceConfig::default() };

    let mut registry = MetricsRegistry::new();
    registry.set_counter("config.scale", opts.base.scale as u64);
    registry.set_counter("config.seed", opts.base.seed);
    registry.set_counter("config.window", opts.window);

    let mut matrices = Vec::new();
    for m in &suite {
        let id = m.spec.id;
        let start = RunStart::Fresh { plan: None, trace: Some(&trace_cfg) };
        let ops = Operands::new(&m.matrix, &m.matrix).map_err(SimError::InvalidOperands);
        let traced = ops.and_then(|ops| accel.start(ops, start)).and_then(|mut run| {
            run.advance(u64::MAX)?;
            Ok((run.take_trace(), run.finish()?))
        });
        let (trace, outcome) =
            traced.unwrap_or_else(|e| panic!("clean traced run failed on `{id}`: {e}"));
        let trace = trace.unwrap_or_else(|| panic!("traced run on `{id}` returned no trace"));
        let stats = &outcome.stats;
        let violations = check_attribution(id, &trace, stats);

        // Aggregate each stage across lanes for the summary and table.
        let mut stages = [
            ("spal", StageBreakdown::default()),
            ("spbl", StageBreakdown::default()),
            ("pe", StageBreakdown::default()),
            ("writer", StageBreakdown::default()),
        ];
        for attr in &stats.per_lane_attribution {
            for (agg, (_, b)) in stages.iter_mut().zip(attr.stages()) {
                agg.1.merge_from(b);
            }
        }

        registry.set_counter(&format!("{id}.total_cycles"), stats.total_cycles);
        registry.set_counter(&format!("{id}.traffic_read"), stats.traffic_read);
        registry.set_counter(&format!("{id}.traffic_written"), stats.traffic_written);
        for (stage, b) in &stages {
            for (bucket, v) in [
                ("busy", b.busy),
                ("mem_stall", b.mem_stall),
                ("queue_stall", b.queue_stall),
                ("idle", b.idle),
            ] {
                registry.set_counter(&format!("{id}.{stage}.{bucket}"), v.get());
            }
        }
        let queue_depth_max = trace.channels.iter().map(|c| c.queue_depth.max()).max().unwrap_or(0);
        registry.set_counter(&format!("{id}.queue_depth_max"), queue_depth_max);
        registry.set_counter(&format!("{id}.windows"), trace.lanes[0].windows.len() as u64);

        let chrome_json = trace.to_chrome_trace().to_json();
        let chrome_fingerprint = fnv1a64(chrome_json.as_bytes());
        registry.set_counter(&format!("{id}.chrome_fingerprint"), chrome_fingerprint);

        matrices.push(MatrixReport {
            id,
            total_cycles: stats.total_cycles,
            stages,
            chrome_json,
            chrome_fingerprint,
            violations,
        });
    }

    let mut summary_json = String::new();
    let _ = write!(
        summary_json,
        "{{\"suite\":\"table2\",\"matrices\":{},\"metrics\":{}}}",
        matrices.len(),
        registry.to_json()
    );
    let summary_fingerprint = fnv1a64(summary_json.as_bytes());
    SuiteReport { matrices, summary_json, summary_fingerprint }
}

fn main() {
    let opts = parse_args();
    println!(
        "Trace report — Table II suite at scale {}, seed {}, window {} cycles\n",
        opts.base.scale, opts.base.seed, opts.window
    );

    let report = run_suite(&opts);

    let pct = |part: u64, cycles: u64| {
        if cycles == 0 {
            "0%".to_string()
        } else {
            format!("{:.0}%", part as f64 / cycles as f64 * 100.0)
        }
    };
    let rows: Vec<Vec<String>> = report
        .matrices
        .iter()
        .map(|m| {
            // Lanes × stages all total the same cycle count, so the
            // aggregate denominator is cycles × lane-count per stage.
            let denom = m.stages[0].1.total();
            let mut row = vec![m.id.to_string(), format!("{}", m.total_cycles)];
            for (_, b) in &m.stages {
                row.push(format!(
                    "{}/{}/{}/{}",
                    pct(b.busy.get(), denom),
                    pct(b.mem_stall.get(), denom),
                    pct(b.queue_stall.get(), denom),
                    pct(b.idle.get(), denom)
                ));
            }
            row.push(if m.violations.is_empty() { "ok".into() } else { "VIOLATED".into() });
            row
        })
        .collect();
    print_table(
        &[
            "matrix",
            "cycles",
            "spal b/m/q/i",
            "spbl b/m/q/i",
            "pe b/m/q/i",
            "writer b/m/q/i",
            "attribution",
        ],
        &rows,
    );

    let mut failed = false;
    for m in &report.matrices {
        for v in &m.violations {
            eprintln!("ATTRIBUTION: {v}");
            failed = true;
        }
        if let Err((pos, why)) = json::validate(&m.chrome_json) {
            eprintln!("CHROME-JSON: `{}` trace is not valid JSON at byte {pos}: {why}", m.id);
            failed = true;
        }
    }

    if let Some(dir) = &opts.chrome_dir {
        std::fs::create_dir_all(dir).unwrap_or_else(|e| panic!("cannot create {dir}: {e}"));
        for m in &report.matrices {
            let path = format!("{dir}/{}.trace.json", m.id);
            std::fs::write(&path, &m.chrome_json)
                .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        }
        println!(
            "\nwrote {} Chrome traces to {dir}/ (load in chrome://tracing or Perfetto)",
            report.matrices.len()
        );
    }

    if opts.strict {
        // The whole pipeline again, from matrix generation up: the summary
        // bytes and every per-run Chrome trace must be identical.
        let replay = run_suite(&opts);
        if replay.summary_json != report.summary_json {
            eprintln!("STRICT: summary JSON differs between two identical runs");
            failed = true;
        }
        for (a, b) in report.matrices.iter().zip(&replay.matrices) {
            if a.chrome_fingerprint != b.chrome_fingerprint {
                eprintln!("STRICT: Chrome trace for `{}` differs between runs", a.id);
                failed = true;
            }
        }
        if !failed {
            println!(
                "\nstrict: replay byte-identical (summary fingerprint {:#018x})",
                report.summary_fingerprint
            );
        }
    }

    if opts.base.json {
        println!(
            "\n{{\"report\":{},\"summary_fnv1a\":\"{:#018x}\"}}",
            report.summary_json, report.summary_fingerprint
        );
    }

    if failed {
        std::process::exit(1);
    }
}
