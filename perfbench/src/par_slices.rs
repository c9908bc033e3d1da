//! `par_slices`: a clean job stream through the OS-thread executor
//! (`parallel::run`, 2 workers, 4 096-cycle slices, the `par_campaign`
//! accelerator template), then through the `par_campaign`-configured
//! discrete-event `Fleet` as its oracle.
//!
//! Most jobs are tiny (24–48-dim uniform, 6 non-zeros per row, 1–3
//! slices); a few are Table II `wv`/`fb` stand-ins that run dozens of
//! slices. Per-job and per-slice work — validation, C²SR, restore,
//! snapshot, ABFT, fingerprint, dispatch and merge — happens here and
//! nowhere in `suite_sim`; the long jobs leave one worker busy at the end.

use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

use matraptor_core::{Accelerator, Checkpoint, Driver, MtxWrite, SliceRun};
use matraptor_service::{
    fingerprint_output, parallel, BreakerConfig, DeadlinePolicy, Disposition, Fleet, FleetConfig,
    JobSpec, ParJob, ParReport, ParallelConfig, ServiceConfig, TenantConfig, TenantId,
};
use matraptor_sparse::gen::suite::by_id;
use matraptor_sparse::{gen, rng::ChaCha8Rng, Csr};

use crate::layers::{self, two_lane_accel, ArcPair, Pair, RcPair};
use crate::probe::{calibrated, Probe};
use crate::stats::{median, process_cpu_s, Tally};
use crate::trace::{Tracer, UNATTRIBUTED};
use crate::{Args, Outcome};

/// Tiny jobs per stream. The stream is short enough that a run measures
/// ten or so executor runs: one run's time swings by ±25% with how the two
/// workers happen to meet the long jobs, so the median needs many.
const TINY_JOBS: usize = 120;
/// Large power-law jobs per stream: Table II ids at [`LARGE_SCALE`].
const LARGE: [&str; 2] = ["wv", "fb"];
const LARGE_SCALE: usize = 64;
const SLICE_CYCLES: u64 = 4_096;
const SETUPS: usize = 9;

fn par_config(threads: usize) -> ParallelConfig {
    let mut cfg = ParallelConfig::small_test();
    cfg.accel = two_lane_accel();
    cfg.threads = threads;
    cfg.slice_cycles = SLICE_CYCLES;
    cfg.worker_faults = None;
    cfg
}

/// The `par_campaign` oracle fleet: 4 simulated accelerator workers and
/// one CPU worker over the same template.
fn fleet_config() -> FleetConfig {
    FleetConfig {
        service: ServiceConfig {
            accel: two_lane_accel(),
            tenants: vec![TenantConfig {
                name: "par".to_string(),
                weight: 1,
                queue_capacity: 64,
                deadline: DeadlinePolicy { base_cycles: 2_000_000, cycles_per_flop: 400 },
            }],
            quantum_cycles: 200_000,
            breaker: BreakerConfig {
                failure_threshold: 4,
                cooldown_cycles: 600_000,
                max_backoff_doublings: 4,
            },
            quarantine_threshold: 2,
            max_attempts: 2,
            cpu_cycles_per_flop: 64,
        },
        accel_workers: 4,
        cpu_workers: 1,
        slice_cycles: SLICE_CYCLES,
        heartbeat_window: 150_000,
        restart_cycles: 50_000,
        max_restarts: 1,
        max_degraded_restarts: 1,
        worker_faults: None,
        recovery_log_cap: 4_096,
    }
}

/// The job stream: operand pairs in submission order.
struct Stream {
    jobs: Vec<ArcPair>,
    large: Vec<bool>,
}

fn build(seed: u64) -> Stream {
    let mix = |k: u64| seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(k);
    let pool: Vec<Vec<Arc<Csr<f64>>>> = [24usize, 32, 48]
        .iter()
        .enumerate()
        .map(|(c, &n)| {
            (0..4).map(|i| Arc::new(gen::uniform(n, n, n * 6, mix((c * 4 + i) as u64)))).collect()
        })
        .collect();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut jobs: Vec<ArcPair> = (0..TINY_JOBS)
        .map(|_| {
            let class = &pool[rng.gen_range(0..pool.len())];
            let a = Arc::clone(&class[rng.gen_range(0..class.len())]);
            let b = Arc::clone(&class[rng.gen_range(0..class.len())]);
            (a, b)
        })
        .collect();
    // Large jobs sit at fixed fractions of the stream (the last one near
    // its end), so the tail they leave does not vary with the seed.
    let mut large = vec![false; jobs.len()];
    for (k, id) in LARGE.iter().enumerate().rev() {
        let spec = by_id(id).expect("Table II id");
        let m = Arc::new(spec.generate(LARGE_SCALE, mix(100 + k as u64)));
        let at = TINY_JOBS * (2 * k + 1) / (2 * LARGE.len());
        jobs.insert(at, (Arc::clone(&m), m));
        large.insert(at, true);
    }
    Stream { jobs, large }
}

fn par_jobs(stream: &Stream) -> Vec<ParJob> {
    stream
        .jobs
        .iter()
        .enumerate()
        .map(|(j, (a, b))| ParJob {
            id: j as u64,
            a: Arc::clone(a),
            b: Arc::clone(b),
            plan: None,
            deadline_cycles: u64::MAX,
        })
        .collect()
}

/// The `(id, disposition, output fingerprint)` core of the oracle's
/// records, hashed as the executor's report is.
fn run_fleet(t: &mut Tracer, rc_jobs: &[RcPair]) -> Option<u64> {
    const TARGET_BACKLOG: usize = 24;
    let mut fleet = Fleet::new(fleet_config()).ok()?;
    for (j, (a, b)) in rc_jobs.iter().enumerate() {
        let spec = JobSpec { tenant: TenantId(0), a: Rc::clone(a), b: Rc::clone(b), plan: None };
        let id = t.time("service", "Fleet::submit", Some(j as u64), || fleet.submit(spec)).ok()?;
        if id.0 != j as u64 {
            return None;
        }
        while fleet.pending() > TARGET_BACKLOG {
            if !t.time("service", "Fleet::step", None, || fleet.step()) {
                break;
            }
        }
    }
    while t.time("service", "Fleet::step", None, || fleet.step()) {}
    let mut core: Vec<(u64, &'static str, Option<u64>)> = fleet
        .records()
        .iter()
        .map(|r| (r.record.id.0, r.record.disposition.label(), r.output_fingerprint))
        .collect();
    core.sort_unstable_by_key(|&(id, _, _)| id);
    if core.len() != rc_jobs.len() || fleet.pending() != 0 {
        return None;
    }
    Some(parallel::resolution_core_fingerprint(core.into_iter()))
}

/// The stream through the executor once.
struct Round {
    ns: u64,
    /// CPU seconds of the process during the run, workers included.
    cpu_s: f64,
    report: Option<ParReport>,
}

fn round(t: &mut Tracer, threads: usize, stream: &Stream) -> Round {
    let jobs = par_jobs(stream);
    let cpu_start = process_cpu_s();
    let (report, ns) = t.timed("service.parallel", "parallel::run", None, || {
        parallel::run(par_config(threads), jobs)
    });
    Round { ns, cpu_s: process_cpu_s() - cpu_start, report: report.ok() }
}

/// The stream through the oracle once: its resolution fingerprint and wall
/// time.
fn oracle(t: &mut Tracer, rc_jobs: &[RcPair]) -> (Option<u64>, u64) {
    let start = Instant::now();
    let fingerprint = run_fleet(t, rc_jobs);
    (fingerprint, u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX))
}

impl Round {
    fn tally(&self, stream: &Stream) -> Tally {
        let records = self.report.as_ref().map_or(&[][..], |rep| &rep.records[..]);
        let completed =
            records.iter().filter(|rec| rec.disposition == Disposition::Completed).count() as u64;
        let attempted = stream.jobs.len() as u64;
        Tally {
            attempted,
            failed: attempted - records.len() as u64,
            not_completed: records.len() as u64 - completed,
            ..Tally::default()
        }
    }

    fn executed_cycles(&self) -> u64 {
        self.report
            .as_ref()
            .map_or(0, |rep| rep.records.iter().map(|rec| rec.executed_cycles).sum())
    }

    fn fingerprint(&self) -> Option<u64> {
        self.report.as_ref().map(ParReport::resolution_fingerprint)
    }

    fn backoffs(&self) -> u64 {
        self.report.as_ref().map_or(0, |rep| rep.counters.ring_full_backoffs)
    }
}

fn check_rounds(out: &mut Outcome, rounds: &[Round], oracle: Option<u64>) {
    let cycles = rounds[0].executed_cycles();
    out.check(
        "threaded resolution core equals the Fleet oracle",
        oracle.is_some() && rounds.iter().all(|r| r.fingerprint() == oracle),
    );
    out.check(
        "executed cycles repeat exactly across runs",
        rounds.iter().all(|r| r.executed_cycles() == cycles),
    );
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let mut setup = Vec::with_capacity(SETUPS);
    let mut stream = None;
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        stream = Some(build(args.seed));
        setup.push(t0.elapsed().as_secs_f64());
    }
    let stream = stream.expect("at least one set-up");
    let rc_jobs: Vec<RcPair> =
        stream.jobs.iter().map(|(a, b)| (Rc::new((**a).clone()), Rc::new((**b).clone()))).collect();
    out.put("setup_s", median(&setup), "s");
    out.fact("threads", args.threads);
    out.fact("jobs", format!("{} ({} large)", stream.jobs.len(), LARGE.len()));
    out.fact("slice_cycles", SLICE_CYCLES);
    let origin = Instant::now();

    if args.trace {
        traced(args, &mut out, &stream, &rc_jobs, origin);
        return out;
    }

    // The executor runs the stream over and over for the measured time,
    // with the host probed on as many threads as it has workers before and
    // after every run; the oracle runs it once afterwards.
    let mut quiet = Tracer::new(false, 0, origin);
    let probe = Probe::new();
    let mut probes = vec![probe.seconds(args.threads)];
    let mut rounds: Vec<Round> = Vec::new();
    while rounds.is_empty() || origin.elapsed().as_secs_f64() < args.seconds {
        rounds.push(round(&mut quiet, args.threads, &stream));
        probes.push(probe.seconds(args.threads));
    }
    let (fingerprint, fleet_ns) = oracle(&mut quiet, &rc_jobs);
    check_rounds(&mut out, &rounds, fingerprint);
    let mut tally = Tally::default();
    for r in &rounds {
        tally.add(r.tally(&stream));
    }
    out.tally = tally;
    let n = stream.jobs.len() as f64;
    let cycles = rounds[0].executed_cycles();
    let par_s = median(&rounds.iter().map(|r| r.ns as f64 / 1e9).collect::<Vec<_>>());
    out.put("jobs_per_s", n / par_s, "jobs/s");
    out.put("sim_mcycles_per_s", cycles as f64 / par_s / 1e6, "Mcycles/s");
    let cpu = median(&rounds.iter().map(|r| r.cpu_s).collect::<Vec<_>>());
    let cal = calibrated(cpu, median(&probes));
    out.put("jobs_per_cal_s", n / cal, "jobs/cal-s");
    out.put("sim_mcycles_per_cal_s", cycles as f64 / cal / 1e6, "Mcycles/cal-s");
    out.put("sim_cycles", cycles as f64, "cycles");
    out.put("fleet_jobs_per_s", n / (fleet_ns as f64 / 1e9), "jobs/s");
    let backoffs = median(&rounds.iter().map(|r| r.backoffs() as f64).collect::<Vec<_>>());
    out.put("service.parallel.ring_full_backoffs", backoffs, "count");
    out.fact("executor_runs", rounds.len());
    let walls: Vec<String> = rounds.iter().map(|r| format!("{:.3}", r.ns as f64 / 1e9)).collect();
    out.fact("executor_run_seconds", walls.join(" "));
    let cpus: Vec<String> = rounds.iter().map(|r| format!("{:.2}", r.cpu_s)).collect();
    out.fact("executor_run_cpu_seconds", cpus.join(" "));
    out.fact("probe_ms_median", format!("{:.3}", median(&probes) * 1e3));
    out
}

/// Replays every job single-threaded as a chain of `Driver::launch_slice`
/// calls — what each worker does per slice — and again unsliced through
/// `Accelerator::try_run`.
fn traced(args: &Args, out: &mut Outcome, stream: &Stream, rc_jobs: &[RcPair], origin: Instant) {
    // Untraced and traced runs alternate (executor: untraced first; oracle:
    // traced first), and the untraced pair runs again after the serial
    // replay, so warm-up and drift of the host land on neither side.
    let mut quiet = Tracer::new(false, 0, origin);
    let mut t = Tracer::new(true, 0, origin);
    let untraced = round(&mut quiet, args.threads, stream);
    let cycles = untraced.executed_cycles();
    t.open(UNATTRIBUTED, "par_slices.round", None);
    let start = Instant::now();
    let r = round(&mut t, args.threads, stream);
    let (fingerprint, _) = oracle(&mut t, rc_jobs);
    let traced_ns = start.elapsed().as_nanos() as f64;
    t.close();
    let (_, untraced_fleet_ns) = oracle(&mut quiet, rc_jobs);
    out.put(
        "trace.overhead_share",
        traced_ns / (untraced.ns + untraced_fleet_ns) as f64 - 1.0,
        "ratio",
    );
    out.tally = r.tally(stream);
    out.put("service.parallel.ring_full_backoffs", r.backoffs() as f64, "count");

    t.open(UNATTRIBUTED, "par_slices.replay", None);
    let accel = Accelerator::new(two_lane_accel());
    let (mut chain_ns, mut run_ns, mut slices, mut cp_bytes) = (0u64, 0u64, 0u64, 0u64);
    let (mut large_ns, mut replay_cycles) = (0u64, 0u64);
    let mut outcomes = Vec::with_capacity(stream.jobs.len());
    let mut same = true;
    for (j, ((a, b), &large)) in stream.jobs.iter().zip(&stream.large).enumerate() {
        let job = Some(j as u64);
        let mut from: Option<Box<Checkpoint>> = None;
        let mut executed = 0;
        let mut job_ns = 0;
        let outcome = loop {
            let mut driver = Driver::new(&accel);
            driver.mtx(MtxWrite::ARows(a.rows() as u64));
            driver.mtx(MtxWrite::BRows(b.rows() as u64));
            driver.mtx(MtxWrite::X0(1));
            let (res, ns) = t.timed("core", "Driver::launch_slice", job, || {
                driver.launch_slice(a, b, None, from.as_deref(), executed + SLICE_CYCLES)
            });
            job_ns += ns;
            slices += 1;
            match res {
                Ok(SliceRun::Completed(o)) => break Some(o),
                Ok(SliceRun::Paused(cp)) => {
                    executed = cp.cycle();
                    cp_bytes +=
                        t.time("core", "Checkpoint::to_bytes", job, || cp.to_bytes().len()) as u64;
                    from = Some(cp);
                }
                Err(_) => break None,
            }
        };
        chain_ns += job_ns;
        if large {
            large_ns += job_ns;
        }
        let (whole, ns) = t.timed("core", "Accelerator::try_run", job, || accel.try_run(a, b));
        run_ns += ns;
        let threaded_fp = r
            .report
            .as_ref()
            .and_then(|rep| rep.records.get(j))
            .and_then(|rec| rec.output_fingerprint);
        match (&outcome, whole) {
            (Some(o), Ok(w)) => {
                same &= o.stats.total_cycles == w.stats.total_cycles
                    && Some(fingerprint_output(&o.c)) == threaded_fp;
                replay_cycles += o.stats.total_cycles;
            }
            _ => same = false,
        }
        outcomes.push(outcome);
    }
    t.close();
    out.check(
        "slice chains match unsliced runs and the threaded outputs",
        same && replay_cycles == cycles,
    );
    let again = round(&mut quiet, args.threads, stream);
    let (_, fleet_again_ns) = oracle(&mut quiet, rc_jobs);
    let par_ns = (untraced.ns + again.ns) as f64 / 2.0;
    let fleet_ns = (untraced_fleet_ns + fleet_again_ns) as f64 / 2.0;
    check_rounds(out, &[untraced, r, again], fingerprint);
    let serial = chain_ns as f64;
    out.put("core.ns_per_cycle", serial / replay_cycles.max(1) as f64, "ns");
    out.put("core.slices", slices as f64, "count");
    out.put("core.slice_overhead_share", (serial - run_ns as f64) / serial.max(1.0), "ratio");
    out.put("core.checkpoint_bytes", cp_bytes as f64, "bytes");
    out.put("service.parallel.efficiency", serial / (args.threads as f64 * par_ns), "ratio");
    out.put("service.fleet.overhead_share", (fleet_ns - serial) / fleet_ns, "ratio");
    out.put("par.large_job_serial_share", large_ns as f64 / serial.max(1.0), "ratio");
    out.put("sim_cycles", cycles as f64, "cycles");

    t.open(UNATTRIBUTED, "par_slices.layers", None);
    let pairs: Vec<Pair<'_>> = stream.jobs.iter().map(|(a, b)| (&**a, &**b)).collect();
    let cfg = two_lane_accel();
    layers::operand_layers(&mut t, out, &pairs, cfg.mem.num_channels);
    let (done_pairs, outputs): (Vec<Pair<'_>>, Vec<&Csr<f64>>) = pairs
        .iter()
        .zip(&outcomes)
        .filter_map(|(&pair, o)| o.as_ref().map(|o| (pair, &o.c)))
        .unzip();
    layers::output_layers(&mut t, out, &done_pairs, &outputs);
    layers::service_replay(&mut t, out, cfg.clone(), rc_jobs);
    layers::probes(&mut t, out, &cfg);
    t.close();
    layers::sim_counts(out, outcomes.iter().flatten().map(|o| &o.stats));
    out.timelines.push(t.into_spans());
}
