//! Fault-injection campaign: survival and detection rates per fault kind.
//!
//! Sweeps every [`FaultKind`] across a range of seeds, runs each plan
//! through a fresh run to completion ([`Accelerator::run_to_end`]), and classifies the
//! outcome: *survived* (the machine tolerated the fault and the verified
//! output is correct), *detected* (the run terminated with a structured
//! `SimError`), or *escaped* (the fault produced neither — a silent
//! wrong answer or an untripped hazard). Escapes are harness bugs; with
//! `--strict` any escape exits nonzero, which is how CI pins the fault
//! model.
//!
//! Output verification uses the ABFT row-checksum + Freivalds path
//! (`abft_verification`), not the full Gustavson reference — `O(nnz)`
//! per run instead of a second SpGEMM, which is what makes sweeping
//! hundreds of seeds cheap. `--no-abft` turns it off to measure how many
//! faults *would* escape without it.
//!
//! `--resume-check` additionally replays one faulted seed from a mid-run
//! checkpoint and verifies bit-identical cycle counts and output values —
//! the replay-determinism invariant of DESIGN.md §9 — and prints the
//! FNV-1a of the checkpoint's bytes (`checkpoint_fnv1a`), which CI pins.
//!
//! Usage: `cargo run --release -p matraptor-bench --bin fault_campaign --
//! [--scale N] [--seed N] [--seeds N] [--json] [--strict] [--no-abft]
//! [--resume-check]`

use matraptor_bench::print_table;
use matraptor_core::{
    classify, Accelerator, Checkpoint, FaultKind, FaultPlan, MatRaptorConfig, Operands, RunOutcome,
    RunStart, SimError, Verdict,
};
use matraptor_sim::trace::fnv1a64;
use matraptor_sparse::{gen, Csr};

struct CampaignOptions {
    /// Divisor applied to the base matrix dimension (matches the other
    /// binaries' `--scale` semantics: bigger divisor, smaller run).
    scale: usize,
    /// Base generator seed for the matrices.
    seed: u64,
    /// Fault seeds swept per kind.
    seeds: u64,
    json: bool,
    strict: bool,
    /// Disable ABFT output verification (to measure the escape rate the
    /// checks exist to eliminate).
    no_abft: bool,
    /// Replay one faulted seed from a mid-run checkpoint and require
    /// bit-identical results.
    resume_check: bool,
}

fn parse_args() -> CampaignOptions {
    let mut opts = CampaignOptions {
        scale: 64,
        seed: 7,
        seeds: 8,
        json: false,
        strict: false,
        no_abft: false,
        resume_check: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut take = |what: &str| {
            args.next()
                .and_then(|v| v.parse::<u64>().ok())
                .unwrap_or_else(|| panic!("{what} needs a non-negative integer"))
        };
        match arg.as_str() {
            "--scale" => opts.scale = take("--scale").max(1) as usize,
            "--seed" => opts.seed = take("--seed"),
            "--seeds" => opts.seeds = take("--seeds").max(1),
            "--json" => opts.json = true,
            "--strict" => opts.strict = true,
            "--no-abft" => opts.no_abft = true,
            "--resume-check" => opts.resume_check = true,
            other => panic!(
                "unknown argument {other}; supported: --scale N --seed N --seeds N --json --strict --no-abft --resume-check"
            ),
        }
    }
    opts
}

/// A fresh run of `a * b` with `plan` armed, to completion.
fn run_faulted(
    accel: &Accelerator,
    a: &Csr<f64>,
    b: &Csr<f64>,
    plan: &FaultPlan,
) -> Result<RunOutcome, SimError> {
    accel.run_to_end(a, b, RunStart::Fresh { plan: Some(plan), trace: None })
}

/// Replays one survivable faulted run (a bounded burst refusal) from a
/// checkpoint taken halfway, round-tripping the checkpoint through its
/// byte serialization, and requires bit-identical cycles and output.
/// Returns true on success.
fn resume_check(accel: &Accelerator, a: &Csr<f64>, b: &Csr<f64>, lanes: usize) -> bool {
    let plan = FaultPlan::sample(FaultKind::BurstRefusal, 1, lanes);
    let full = match run_faulted(accel, a, b, &plan) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("resume-check: baseline faulted run failed: {e}");
            return false;
        }
    };
    let half = full.stats.total_cycles / 2;
    let start = RunStart::Fresh { plan: Some(&plan), trace: None };
    let started = Operands::new(a, b)
        .map_err(SimError::InvalidOperands)
        .and_then(|ops| accel.start(ops, start));
    let ck = match started.and_then(|mut run| Ok((run.advance(half)?, run))) {
        Ok((false, run)) => run.snapshot(),
        // A run that drains before the pause cycle leaves no checkpoint.
        // The baseline above ran past `half`, so this replay cannot drain
        // first unless determinism broke.
        Ok((true, _)) => {
            eprintln!("resume-check: run completed before cycle {half}");
            return false;
        }
        Err(e) => {
            eprintln!("resume-check: checkpointing run failed: {e}");
            return false;
        }
    };
    // Round-trip through the serialized form — the persistence path a
    // real host driver would use.
    let bytes = ck.to_bytes();
    let ck = match Checkpoint::from_bytes(&bytes) {
        Ok(ck) => ck,
        Err(e) => {
            eprintln!("resume-check: serialized checkpoint rejected: {e}");
            return false;
        }
    };
    let resumed = match accel.run_to_end(a, b, RunStart::Resume(&ck)) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("resume-check: resumed run failed: {e}");
            return false;
        }
    };
    if resumed.stats.total_cycles != full.stats.total_cycles {
        eprintln!(
            "resume-check: cycle mismatch — full {} vs resumed {}",
            full.stats.total_cycles, resumed.stats.total_cycles
        );
        return false;
    }
    let full_bits: Vec<u64> = full.c.values().iter().map(|v| v.to_bits()).collect();
    let resumed_bits: Vec<u64> = resumed.c.values().iter().map(|v| v.to_bits()).collect();
    if full.c.row_ptr() != resumed.c.row_ptr()
        || full.c.col_idx() != resumed.c.col_idx()
        || full_bits != resumed_bits
    {
        eprintln!("resume-check: output differs between full and resumed run");
        return false;
    }
    println!(
        "resume-check: checkpoint at cycle {half} ({} bytes, checkpoint_fnv1a {:#018x}) resumed bit-identically ({} total cycles)",
        bytes.len(),
        fnv1a64(&bytes),
        full.stats.total_cycles
    );
    true
}

fn main() {
    let opts = parse_args();
    let n = (4096 / opts.scale).max(32);
    let nnz = n * 8;
    let a = gen::uniform(n, n, nnz, opts.seed);
    let b = gen::uniform(n, n, nnz, opts.seed.wrapping_add(1));

    // Small machine, short watchdog window: deadlock faults are declared
    // in thousands rather than hundreds of thousands of cycles, and the
    // shallow queues keep the overflow path reachable. Silent-corruption
    // detection rides on ABFT (O(nnz) per run) instead of the full
    // Gustavson reference, so the sweep stays cheap at any scale.
    let mut cfg = MatRaptorConfig::small_test();
    cfg.watchdog_window = 5_000;
    cfg.verify_against_reference = false;
    cfg.abft_verification = !opts.no_abft;
    let lanes = cfg.num_lanes;
    let accel = Accelerator::new(cfg);

    println!(
        "Fault campaign — {} kinds x {} seeds on uniform {n}x{n} ({nnz} nnz per operand), abft {}\n",
        FaultKind::ALL.len(),
        opts.seeds,
        if opts.no_abft { "off" } else { "on" }
    );

    let mut rows = Vec::new();
    let mut kind_objects = Vec::new();
    let (mut total_survived, mut total_detected, mut total_escaped) = (0u64, 0u64, 0u64);
    for kind in FaultKind::ALL {
        let mut survived = 0u64;
        let mut detected = 0u64;
        let mut escaped = 0u64;
        for seed in 0..opts.seeds {
            let plan = FaultPlan::sample(kind, opts.seed ^ seed, lanes);
            let result = run_faulted(&accel, &a, &b, &plan);
            match classify(kind, &result) {
                Verdict::Survived => survived += 1,
                Verdict::Detected => detected += 1,
                Verdict::Escaped => escaped += 1,
            }
        }
        total_survived += survived;
        total_detected += detected;
        total_escaped += escaped;
        let total = opts.seeds as f64;
        rows.push(vec![
            kind.name().to_string(),
            format!("{survived}"),
            format!("{detected}"),
            format!("{escaped}"),
            format!("{:.0}%", (survived + detected) as f64 / total * 100.0),
        ]);
        kind_objects.push(format!(
            "{{\"kind\":\"{}\",\"seeds\":{},\"survived\":{survived},\"detected\":{detected},\"escaped\":{escaped}}}",
            kind.name(),
            opts.seeds
        ));
    }
    print_table(&["fault kind", "survived", "detected", "escaped", "covered"], &rows);

    let resume_ok = if opts.resume_check {
        println!();
        Some(resume_check(&accel, &a, &b, lanes))
    } else {
        None
    };

    if opts.json {
        // One top-level object: campaign parameters, aggregate totals,
        // then the per-kind array — a single parseable artifact for CI.
        let runs = opts.seeds * FaultKind::ALL.len() as u64;
        let resume_field = match resume_ok {
            Some(ok) => format!(",\"resume_check\":{ok}"),
            None => String::new(),
        };
        println!(
            "\n{{\"matrix\":{{\"n\":{n},\"nnz\":{nnz}}},\"seeds_per_kind\":{},\"abft\":{},\"runs\":{runs},\"survived\":{total_survived},\"detected\":{total_detected},\"escaped\":{total_escaped}{resume_field},\"kinds\":[\n {}\n]}}",
            opts.seeds,
            !opts.no_abft,
            kind_objects.join(",\n ")
        );
    }
    println!("\nsurvived = fault tolerated, output verified correct;");
    println!("detected = structured SimError (deadlock, overflow, corruption, ...);");
    println!("escaped  = neither - a hole in the fault model.");
    let mut failed = false;
    if opts.strict && total_escaped > 0 {
        eprintln!("STRICT: {total_escaped} undetected escape(s)");
        failed = true;
    }
    if resume_ok == Some(false) {
        eprintln!("RESUME-CHECK: replay from checkpoint was not bit-identical");
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}
