//! The repository benchmark.
//!
//! `perfbench --workload <suite_sim|par_slices|wire_mixed> --seed N
//! --seconds S --trace <0|1> [--threads T]`
//!
//! Each workload builds its inputs from `--seed`, sets up (timed apart as
//! `setup_s`, median of several set-ups), measures for `--seconds`, checks
//! every output, prints every metric by name with its unit, writes the run's
//! facts and metrics to `out/` beside this package, and prints as its last
//! line one JSON object: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`. The traced run times each call into
//! a layer's public functions from this package (see `trace`) and keeps the
//! spans in memory until it writes them out at the end.
//!
//! `--threads` changes the worker count of `par_slices` for side runs; it
//! is not part of any workload.

mod layers;
mod par_slices;
mod probe;
mod stats;
mod suite_sim;
mod trace;
mod wire_mixed;

use std::fmt::Write as _;
use std::process::ExitCode;

use stats::Tally;
use trace::Span;

/// End-to-end metrics (`--trace 0`), as listed in `BENCHMARK.json`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("jobs_per_cal_s", "jobs/cal-s"),
    ("sim_mcycles_per_cal_s", "Mcycles/cal-s"),
    ("sim_cycles", "cycles"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`), as listed in `BENCHMARK.json`.
pub const PER_LAYER: [(&str, &str); 48] = [
    ("core.ns_per_cycle", "ns"),
    ("core.fixed_us_per_run", "us"),
    ("core.slices", "count"),
    ("core.slice_overhead_share", "ratio"),
    ("core.checkpoint_bytes", "bytes"),
    ("sparse.validate_us", "us"),
    ("sparse.c2sr_us", "us"),
    ("sparse.abft_us", "us"),
    ("service.fingerprint_us", "us"),
    ("service.submit_us_p50", "us"),
    ("service.step_us_p50", "us"),
    ("service.fleet.overhead_share", "ratio"),
    ("service.parallel.efficiency", "ratio"),
    ("service.parallel.ring_full_backoffs", "count"),
    ("service.parallel.fixed_us_per_run", "us"),
    ("service.wire.encode_us", "us"),
    ("service.wire.decode_us", "us"),
    ("service.wire.submit_bytes", "bytes"),
    ("service.wire.ping_p50_us", "us"),
    ("service.wire.rejects", "count"),
    ("mem.traffic_bytes", "bytes"),
    ("sim.spal.busy", "cycles"),
    ("sim.spal.mem_stall", "cycles"),
    ("sim.spal.queue_stall", "cycles"),
    ("sim.spal.idle", "cycles"),
    ("sim.spbl.busy", "cycles"),
    ("sim.spbl.mem_stall", "cycles"),
    ("sim.spbl.queue_stall", "cycles"),
    ("sim.spbl.idle", "cycles"),
    ("sim.pe.busy", "cycles"),
    ("sim.pe.mem_stall", "cycles"),
    ("sim.pe.queue_stall", "cycles"),
    ("sim.pe.idle", "cycles"),
    ("sim.writer.busy", "cycles"),
    ("sim.writer.mem_stall", "cycles"),
    ("sim.writer.queue_stall", "cycles"),
    ("sim.writer.idle", "cycles"),
    ("self_ms.sparse", "ms"),
    ("self_ms.core", "ms"),
    ("self_ms.service", "ms"),
    ("self_ms.service.parallel", "ms"),
    ("self_ms.service.wire", "ms"),
    ("self_ms.unattributed", "ms"),
    ("trace.wall_ms", "ms"),
    ("trace.overhead_share", "ratio"),
    ("trace.unattributed_share", "ratio"),
    ("trace.spans", "count"),
    ("trace.timelines", "count"),
];

/// Run parameters.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured time, in seconds.
    pub seconds: f64,
    /// Traced (per-layer) run.
    pub trace: bool,
    /// Worker threads for `par_slices` (side runs only).
    pub threads: usize,
}

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Everything one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Jobs or requests attempted and their failures.
    pub tally: Tally,
    /// Named correctness checks.
    pub checks: Vec<(String, bool)>,
    /// Every metric measured, headline or not.
    pub metrics: Vec<Metric>,
    /// Facts the numbers depend on (thread counts, sample counts, ...).
    pub facts: Vec<(String, String)>,
    /// Spans of a traced run, one vector per timeline.
    pub timelines: Vec<Vec<Span>>,
}

impl Outcome {
    /// Records a check.
    pub fn check(&mut self, name: impl Into<String>, ok: bool) {
        self.checks.push((name.into(), ok));
    }

    /// Records a metric.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name: name.into(), value, unit });
    }

    /// Records a fact.
    pub fn fact(&mut self, name: impl Into<String>, value: impl ToString) {
        self.facts.push((name.into(), value.to_string()));
    }

    fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().rev().find(|m| m.name == name)
    }
}

const USAGE: &str = "usage: perfbench --workload <suite_sim|par_slices|wire_mixed> \
--seed N --seconds S --trace <0|1> [--threads T]";

fn parse_u64(s: &str) -> Option<u64> {
    match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args =
        Args { workload: String::new(), seed: 1, seconds: 10.0, trace: false, threads: 2 };
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = parse_u64(&value).ok_or("--seed needs an integer")?,
            "--seconds" => {
                args.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds needs a positive number")?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace is 0 or 1".to_string()),
                }
            }
            "--threads" => {
                args.threads = value
                    .parse::<usize>()
                    .ok()
                    .filter(|&t| t >= 1)
                    .ok_or("--threads needs a positive integer")?
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !["suite_sim", "par_slices", "wire_mixed"].contains(&args.workload.as_str()) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    Ok(args)
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Stolen and total CPU ticks of the machine (`/proc/stat`): time the
/// hypervisor gave this machine's CPUs to someone else.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let ticks: Vec<u64> = line.split_whitespace().skip(1).filter_map(|t| t.parse().ok()).collect();
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

/// First line of a command's standard output, or `unknown`.
fn command_line_of(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The metrics as a JSON object. A non-finite value (which also marks the
/// run incorrect) is written as 0 so the line stays valid JSON.
fn json_metrics(list: &[&Metric]) -> String {
    let body: Vec<String> = list
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!("{}:{{\"value\":{value},\"unit\":{}}}", json_str(&m.name), json_str(m.unit))
        })
        .collect();
    format!("{{{}}}", body.join(","))
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let ticks_before = cpu_ticks();
    let mut out = match args.workload.as_str() {
        "suite_sim" => suite_sim::run(&args),
        "par_slices" => par_slices::run(&args),
        _ => wire_mixed::run(&args),
    };
    if args.trace {
        layers::trace_summary(&mut out);
    }
    out.put("peak_rss_mb", peak_rss_mb(), "MB");
    out.put("failed_ratio", out.tally.failed_ratio(), "ratio");

    let run_facts = std::mem::take(&mut out.facts);
    let wanted: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut selected: Vec<&Metric> = Vec::new();
    let mut missing = Vec::new();
    for &(name, _) in wanted {
        match out.get(name) {
            Some(m) => selected.push(m),
            None => missing.push(name),
        }
    }
    let finite = selected.iter().all(|m| m.value.is_finite());

    let command: Vec<String> = std::env::args().collect();
    let mut facts = vec![
        ("workload".to_string(), args.workload.clone()),
        ("seed".to_string(), args.seed.to_string()),
        ("seconds".to_string(), args.seconds.to_string()),
        ("trace".to_string(), u8::from(args.trace).to_string()),
        (
            "nproc".to_string(),
            std::thread::available_parallelism().map_or(0, |n| n.get()).to_string(),
        ),
        ("git_commit".to_string(), command_line_of("git", &["rev-parse", "HEAD"])),
        ("rustc".to_string(), command_line_of("rustc", &["--version"])),
        ("command".to_string(), command.join(" ")),
    ];
    if let (Some((s0, t0)), Some((s1, t1))) = (ticks_before, cpu_ticks()) {
        let share = (s1 - s0) as f64 / (t1 - t0).max(1) as f64;
        facts.push(("host_steal_share".to_string(), format!("{share:.4}")));
    }
    facts.extend(run_facts);

    for (k, v) in &facts {
        println!("fact {k} = {v}");
    }
    for m in &out.metrics {
        println!("metric {} = {} {}", m.name, m.value, m.unit);
    }
    for (name, ok) in &out.checks {
        println!("check {name}: {}", if *ok { "pass" } else { "FAIL" });
    }
    for name in &missing {
        println!("check metric {name} reported: FAIL");
    }
    let correct = missing.is_empty() && finite && out.checks.iter().all(|(_, ok)| *ok);

    let all: Vec<&Metric> = out.metrics.iter().collect();
    let facts_json: Vec<String> =
        facts.iter().map(|(k, v)| format!("{}:{}", json_str(k), json_str(v))).collect();
    let checks_json: Vec<String> =
        out.checks.iter().map(|(k, ok)| format!("{}:{ok}", json_str(k))).collect();
    let record = format!(
        "{{\"facts\":{{{}}},\"checks\":{{{}}},\"metrics\":{}}}\n",
        facts_json.join(","),
        checks_json.join(","),
        json_metrics(&all)
    );
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let stem = format!("{}-seed{}-trace{}", args.workload, args.seed, u8::from(args.trace));
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(dir.join(format!("{stem}.json")), record))
        .and_then(|()| {
            if args.trace {
                std::fs::write(
                    dir.join(format!("{stem}-spans.jsonl")),
                    trace::to_json_lines(&out.timelines),
                )
            } else {
                Ok(())
            }
        });
    if let Err(e) = written {
        eprintln!("warning: could not write results under {}: {e}", dir.display());
    }

    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        out.tally.attempted.max(1),
        out.tally.unsuccessful(),
        json_metrics(&selected)
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names_in(json: &str, section: &str) -> Vec<String> {
        let start = json.find(&format!("\"{section}\"")).expect("section present");
        let rest = &json[start..];
        let end = rest.find(']').expect("section closes");
        rest[..end]
            .split("\"name\"")
            .skip(1)
            .map(|s| s.split('"').nth(1).expect("quoted name").to_string())
            .collect()
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let e2e: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        let layer: Vec<String> = PER_LAYER.iter().map(|(n, _)| n.to_string()).collect();
        assert_eq!(names_in(&json, "end_to_end"), e2e);
        assert_eq!(names_in(&json, "per_layer"), layer);
        let mut all: Vec<&String> = e2e.iter().chain(&layer).collect();
        all.sort();
        all.dedup();
        assert_eq!(all.len(), e2e.len() + layer.len(), "metric names are unique");
    }

    #[test]
    fn arguments_parse_and_reject() {
        let ok = |v: &[&str]| parse_args(v.iter().map(|s| s.to_string()));
        let a =
            ok(&["--workload", "par_slices", "--seed", "0x10", "--seconds", "3", "--trace", "1"])
                .expect("valid");
        assert_eq!((a.seed, a.seconds, a.trace, a.threads), (16, 3.0, true, 2));
        assert!(ok(&["--workload", "nope"]).is_err());
        assert!(ok(&["--workload", "suite_sim", "--trace", "2"]).is_err());
        assert!(ok(&["--workload", "suite_sim", "--seconds"]).is_err());
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
