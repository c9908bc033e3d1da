//! `suite_sim`: the 14 Table II stand-ins, each squared (A×A) one at a time
//! on one thread through `Accelerator::try_run` on the paper's 8-lane
//! configuration (ABFT on, in-run reference check off).
//!
//! The per-cycle loop does nearly all the work; nothing is sliced,
//! dispatched or framed. The power-law, banded and regular families vary
//! row length and working-set size, which host time per cycle depends on.

use std::rc::Rc;
use std::time::Instant;

use matraptor_core::{Accelerator, MatRaptorConfig, RunOutcome};
use matraptor_sparse::gen::suite::{table2, Family, MatrixSpec};
use matraptor_sparse::{spgemm, Csr};

use crate::layers::{self, Pair, RcPair};
use crate::probe::{calibrated, Probe};
use crate::stats::{median, process_cpu_s, Tally};
use crate::trace::{Tracer, UNATTRIBUTED};
use crate::{Args, Outcome};

/// Table II size divisor. One pass takes a few seconds of host time, so a
/// run measures several passes and reports their median. At 128 the rate
/// swung more with the shared host: 0.17–0.23 Mcycles/s against
/// 0.205–0.218 at 256, in interleaved runs.
pub const SCALE: usize = 256;
const SETUPS: usize = 9;

fn accel_config() -> MatRaptorConfig {
    MatRaptorConfig { verify_against_reference: false, ..MatRaptorConfig::default() }
}

struct Input {
    spec: MatrixSpec,
    a: Csr<f64>,
}

fn generate(seed: u64) -> Vec<Input> {
    table2()
        .into_iter()
        .enumerate()
        .map(|(i, spec)| {
            let s = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(i as u64);
            Input { a: spec.generate(SCALE, s), spec }
        })
        .collect()
}

fn family(spec: &MatrixSpec) -> &'static str {
    match spec.family {
        Family::PowerLaw(_) => "powerlaw",
        Family::Banded { .. } => "banded",
        Family::Regular => "regular",
    }
}

/// One pass over the suite.
struct Pass {
    run_ns: Vec<u64>,
    results: Vec<Option<RunOutcome>>,
    /// CPU seconds of the `try_run` calls (the probes' time taken out).
    cpu_s: f64,
    /// Probe seconds, one probe before each matrix.
    probe_s: Vec<f64>,
}

impl Pass {
    fn wall_s(&self) -> f64 {
        self.run_ns.iter().sum::<u64>() as f64 / 1e9
    }

    fn cycles(&self) -> Vec<Option<u64>> {
        self.results.iter().map(|r| r.as_ref().map(|o| o.stats.total_cycles)).collect()
    }
}

/// One pass, with the host probed before each matrix. The probe runs on
/// this thread, so its time is taken out of the pass's CPU time.
fn pass(t: &mut Tracer, accel: &Accelerator, inputs: &[Input], probe: &Probe) -> Pass {
    let cpu_start = process_cpu_s();
    let mut probe_wall_s = 0.0;
    let mut probe_s = Vec::with_capacity(inputs.len());
    let mut run_ns = Vec::with_capacity(inputs.len());
    let mut results = Vec::with_capacity(inputs.len());
    for (i, inp) in inputs.iter().enumerate() {
        let start = Instant::now();
        probe_s.push(probe.seconds(1));
        probe_wall_s += start.elapsed().as_secs_f64();
        let (r, ns) = t.timed("core", "Accelerator::try_run", Some(i as u64), || {
            accel.try_run(&inp.a, &inp.a)
        });
        run_ns.push(ns);
        results.push(r.ok());
    }
    let cpu_s = process_cpu_s() - cpu_start - probe_wall_s;
    Pass { run_ns, results, cpu_s, probe_s }
}

/// Checks every output against the software Gustavson product.
fn check_outputs(out: &mut Outcome, inputs: &[Input], pass: &Pass) {
    let matches = inputs.iter().zip(&pass.results).all(|(inp, r)| {
        r.as_ref().is_some_and(|o| o.c.approx_eq(&spgemm::gustavson(&inp.a, &inp.a), 1e-6))
    });
    out.check("every C matches spgemm::gustavson", matches);
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let mut setup = Vec::with_capacity(SETUPS);
    let mut inputs = Vec::new();
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        inputs = generate(args.seed);
        setup.push(t0.elapsed().as_secs_f64());
    }
    out.put("setup_s", median(&setup), "s");
    out.fact("threads", 1);
    out.fact("scale", SCALE);
    out.fact("matrices", inputs.len());
    let accel = Accelerator::new(accel_config());
    let origin = Instant::now();

    if args.trace {
        traced(&mut out, &accel, &inputs, origin);
        return out;
    }

    // Only the first pass keeps its outputs (for the checks); later passes
    // keep their cycle counts, so peak memory does not grow with the pass
    // count.
    let mut quiet = Tracer::new(false, 0, origin);
    let probe = Probe::new();
    let first = pass(&mut quiet, &accel, &inputs, &probe);
    let cycles = first.cycles();
    let mut passes = vec![(first.wall_s(), first.cpu_s)];
    let mut probes = first.probe_s.clone();
    let mut repeats = true;
    while origin.elapsed().as_secs_f64() < args.seconds {
        let p = pass(&mut quiet, &accel, &inputs, &probe);
        repeats &= p.cycles() == cycles;
        passes.push((p.wall_s(), p.cpu_s));
        probes.extend(p.probe_s);
    }
    out.check("simulated cycles repeat exactly across passes", repeats);
    check_outputs(&mut out, &inputs, &first);
    let failed = cycles.iter().filter(|c| c.is_none()).count() as u64;
    out.tally = Tally {
        attempted: (inputs.len() * passes.len()) as u64,
        failed: failed * passes.len() as u64,
        ..Tally::default()
    };
    let pass_cycles: u64 = cycles.iter().flatten().sum();
    let wall = median(&passes.iter().map(|p| p.0).collect::<Vec<_>>());
    out.put("jobs_per_s", inputs.len() as f64 / wall, "jobs/s");
    out.put("sim_mcycles_per_s", pass_cycles as f64 / wall / 1e6, "Mcycles/s");
    let cpu = median(&passes.iter().map(|p| p.1).collect::<Vec<_>>());
    let cal = calibrated(cpu, median(&probes));
    out.put("jobs_per_cal_s", inputs.len() as f64 / cal, "jobs/cal-s");
    out.put("sim_mcycles_per_cal_s", pass_cycles as f64 / cal / 1e6, "Mcycles/cal-s");
    out.put("sim_cycles", pass_cycles as f64, "cycles");
    out.fact("passes", passes.len());
    let each: Vec<String> =
        passes.iter().map(|(wall, cpu)| format!("{wall:.3}/{cpu:.2}")).collect();
    out.fact("pass_wall_s/cpu_s", each.join(" "));
    out.fact("probe_ms_median", format!("{:.3}", median(&probes) * 1e3));
    out
}

fn traced(out: &mut Outcome, accel: &Accelerator, inputs: &[Input], origin: Instant) {
    // Each matrix runs once untraced and once traced, alternating which goes
    // first, so warm-up and drift of the host do not land on one side.
    let mut quiet = Tracer::new(false, 0, origin);
    let mut t = Tracer::new(true, 0, origin);
    let (mut untraced_ns, mut traced_ns) = (0u64, 0u64);
    let mut untraced_cycles = Vec::with_capacity(inputs.len());
    let mut p = Pass { run_ns: Vec::new(), results: Vec::new(), cpu_s: 0.0, probe_s: Vec::new() };
    for (i, inp) in inputs.iter().enumerate() {
        let job = Some(i as u64);
        let mut untraced = || {
            let (r, ns) =
                quiet.timed("core", "Accelerator::try_run", job, || accel.try_run(&inp.a, &inp.a));
            untraced_ns += ns;
            untraced_cycles.push(r.ok().map(|o| o.stats.total_cycles));
        };
        if i % 2 == 0 {
            untraced();
        }
        let start = Instant::now();
        t.open(UNATTRIBUTED, "suite_sim.job", job);
        let (r, ns) =
            t.timed("core", "Accelerator::try_run", job, || accel.try_run(&inp.a, &inp.a));
        t.close();
        traced_ns += u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        p.run_ns.push(ns);
        p.results.push(r.ok());
        if i % 2 == 1 {
            untraced();
        }
    }
    out.put("trace.overhead_share", traced_ns as f64 / untraced_ns as f64 - 1.0, "ratio");
    check_outputs(out, inputs, &p);
    out.check("simulated cycles repeat exactly across passes", p.cycles() == untraced_cycles);

    let cycles: Vec<u64> = p.cycles().iter().map(|c| c.unwrap_or(0)).collect();
    let total_cycles: u64 = cycles.iter().sum();
    let total_ns: u64 = p.run_ns.iter().sum();
    out.put("core.ns_per_cycle", total_ns as f64 / total_cycles.max(1) as f64, "ns");
    for fam in ["powerlaw", "banded", "regular"] {
        let (ns, cy) = inputs
            .iter()
            .zip(p.run_ns.iter().zip(&cycles))
            .filter(|(inp, _)| family(&inp.spec) == fam)
            .fold((0u64, 0u64), |(ns, cy), (_, (&n, &c))| (ns + n, cy + c));
        out.put(format!("core.ns_per_cycle.{fam}"), ns as f64 / cy.max(1) as f64, "ns");
    }
    out.tally = Tally {
        attempted: inputs.len() as u64,
        failed: p.results.iter().filter(|r| r.is_none()).count() as u64,
        ..Tally::default()
    };

    t.open(UNATTRIBUTED, "suite_sim.layers", None);
    let pairs: Vec<Pair<'_>> = inputs.iter().map(|i| (&i.a, &i.a)).collect();
    let cfg = accel_config();
    layers::operand_layers(&mut t, out, &pairs, cfg.mem.num_channels);
    let done: Vec<(Pair<'_>, &Csr<f64>)> = pairs
        .iter()
        .zip(&p.results)
        .filter_map(|(&pair, r)| r.as_ref().map(|o| (pair, &o.c)))
        .collect();
    let (done_pairs, outputs): (Vec<Pair<'_>>, Vec<&Csr<f64>>) = done.into_iter().unzip();
    layers::output_layers(&mut t, out, &done_pairs, &outputs);
    let stream: Vec<RcPair> = inputs
        .iter()
        .map(|i| {
            let a = Rc::new(i.a.clone());
            (Rc::clone(&a), a)
        })
        .collect();
    layers::service_replay(&mut t, out, cfg.clone(), &stream);
    layers::probes(&mut t, out, &cfg);
    t.close();
    layers::sim_counts(out, p.results.iter().flatten().map(|o| &o.stats));
    out.put("sim_cycles", total_cycles as f64, "cycles");
    out.timelines.push(t.into_spans());
}
