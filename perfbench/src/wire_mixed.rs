//! `wire_mixed`: a `WireServer` on 127.0.0.1 in this process and two
//! closed-loop `WireClient` connections. Each loop submits a tiny job
//! (8–16-dim uniform, ~2 non-zeros per row), polls it until `Resolved`,
//! then polls a few of its already-resolved ids, so reads run beside
//! writes. The service refuses nothing: loose deadlines and deep queues,
//! ABFT on, the reference check off.
//!
//! Here the per-run fixed cost, admission, framing and CSR-frame
//! validation are a large share of the time. Reads need no simulation but
//! queue behind the other client's job on the single engine thread, so a
//! change that speeds up submits by making reads wait shows up.

use std::net::SocketAddr;
use std::rc::Rc;
use std::time::{Duration, Instant};

use matraptor_core::Accelerator;
use matraptor_service::wire::frame::disposition_code;
use matraptor_service::wire::{
    JobState, Response, RetryPolicy, WireClient, WireCountersSnapshot, WireServer, WireServerConfig,
};
use matraptor_service::Disposition;
use matraptor_sparse::{gen, rng::ChaCha8Rng, spgemm, Csr};

use crate::layers::{self, loose_service, two_lane_accel, Pair, RcPair};
use crate::probe::{calibrated, Probe};
use crate::stats::{median, met_limit, process_cpu_s, Summary, Tally, MISSED};
use crate::trace::{Span, Tracer, UNATTRIBUTED};
use crate::{Args, Outcome};

const POOL: usize = 256;
const CLIENTS: usize = 2;
const READS_PER_JOB: usize = 3;
const WARMUP_JOBS: usize = 16;
const SETUPS: usize = 9;
/// Closed loops the measured time is cut into for the throughput medians.
const WINDOWS: usize = 20;
/// Latency limit on a wire job; failed jobs always miss it.
const JOB_LIMIT_NS: u64 = 50_000_000;
/// Cap on the submitted stream replayed through the in-process service.
const REPLAY_CAP: usize = 2_000;

fn pool(seed: u64) -> Vec<(Csr<f64>, Csr<f64>)> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    (0..POOL)
        .map(|_| {
            let n = rng.gen_range(8..17usize);
            let a = gen::uniform(n, n, 2 * n, rng.next_u64());
            let b = gen::uniform(n, n, 2 * n, rng.next_u64());
            (a, b)
        })
        .collect()
}

/// What one client loop saw.
#[derive(Default)]
struct ClientRun {
    /// `(pool index, submit→resolved ns or MISSED)` per job, in order.
    jobs: Vec<(usize, u64)>,
    /// Round trips of polls of already-resolved ids (MISSED on failure).
    reads: Vec<u64>,
    tally: Tally,
    end: Option<Instant>,
    spans: Vec<Span>,
}

fn ns_since(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

fn completed() -> u8 {
    disposition_code(Disposition::Completed)
}

fn client_loop(
    client: &mut WireClient,
    mut t: Tracer,
    tenant: u32,
    jobs: &[(Csr<f64>, Csr<f64>)],
    seed: u64,
    until: Instant,
) -> ClientRun {
    let mut run = ClientRun::default();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut resolved: Vec<u64> = Vec::new();
    t.open(UNATTRIBUTED, "client_loop", None);
    while Instant::now() < until {
        let idx = rng.gen_range(0..jobs.len());
        let (a, b) = &jobs[idx];
        run.tally.attempted += 1;
        let start = Instant::now();
        let id = match t
            .time("service.wire", "WireClient::submit", None, || client.submit(tenant, a, b))
        {
            Ok(Response::Submitted { job }) => job,
            _ => {
                run.tally.refused += 1;
                run.jobs.push((idx, MISSED));
                continue;
            }
        };
        let state = loop {
            match t.time("service.wire", "WireClient::poll", Some(id), || client.poll(id)) {
                Ok(Response::Status { state: JobState::Queued, .. }) => continue,
                Ok(Response::Status { state: JobState::Resolved { disposition, .. }, .. }) => {
                    break Some(disposition)
                }
                _ => break None,
            }
        };
        let ns = ns_since(start);
        match state {
            Some(d) if d == completed() => {
                run.jobs.push((idx, ns));
                resolved.push(id);
            }
            Some(_) => {
                run.tally.not_completed += 1;
                run.jobs.push((idx, MISSED));
            }
            None => {
                run.tally.failed += 1;
                run.jobs.push((idx, MISSED));
            }
        }
        for _ in 0..READS_PER_JOB {
            let Some(&old) = resolved.get(rng.gen_range(0..resolved.len().max(1))) else {
                break;
            };
            run.tally.attempted += 1;
            let (resp, ns) =
                t.timed("service.wire", "WireClient::poll(resolved)", Some(old), || {
                    client.poll(old)
                });
            let ok = matches!(resp, Ok(Response::Status { state: JobState::Resolved { disposition, .. }, .. })
                if disposition == completed());
            if ok {
                run.reads.push(ns);
            } else {
                run.tally.failed += 1;
                run.reads.push(MISSED);
            }
        }
    }
    t.close();
    run.end = Some(Instant::now());
    run.spans = t.into_spans();
    run
}

/// One closed loop: the clients' runs, the wall time from start to the last
/// client's end, and the CPU seconds of the whole process (clients and
/// server) meanwhile.
struct Phase {
    runs: Vec<ClientRun>,
    wall_s: f64,
    cpu_s: f64,
    traced: bool,
}

/// The closed loop of every client for `seconds`, traced on timelines
/// `first_timeline..` when given one.
fn closed_loop(
    clients: &mut [WireClient],
    jobs: &[(Csr<f64>, Csr<f64>)],
    seed: u64,
    seconds: f64,
    first_timeline: Option<usize>,
    origin: Instant,
) -> Phase {
    let cpu_start = process_cpu_s();
    let start = Instant::now();
    let until = start + Duration::from_secs_f64(seconds);
    let runs: Vec<ClientRun> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                let t =
                    Tracer::new(first_timeline.is_some(), first_timeline.unwrap_or(0) + c, origin);
                let client_seed = seed ^ (0xC11E_0000 + c as u64);
                s.spawn(move || client_loop(client, t, c as u32, jobs, client_seed, until))
            })
            .collect();
        // A client that panicked counts as one failed attempt.
        let panicked = || ClientRun {
            tally: Tally { attempted: 1, failed: 1, ..Tally::default() },
            ..ClientRun::default()
        };
        handles.into_iter().map(|h| h.join().unwrap_or_else(|_| panicked())).collect()
    });
    let end = runs.iter().filter_map(|r| r.end).max().unwrap_or(start);
    Phase {
        runs,
        wall_s: end.duration_since(start).as_secs_f64(),
        cpu_s: process_cpu_s() - cpu_start,
        traced: first_timeline.is_some(),
    }
}

/// Starts the server, connects the clients and warms them up.
fn set_up(addr_seed: u64, jobs: &[(Csr<f64>, Csr<f64>)]) -> Option<(WireServer, Vec<WireClient>)> {
    let cfg = WireServerConfig::local(loose_service(two_lane_accel(), CLIENTS));
    let server = WireServer::start(cfg, "127.0.0.1:0").ok()?;
    let addr: SocketAddr = server.addr();
    let mut clients = Vec::with_capacity(CLIENTS);
    for c in 0..CLIENTS {
        let mut client =
            WireClient::connect(addr, RetryPolicy::default_local(), addr_seed + c as u64).ok()?;
        for (a, b) in jobs.iter().take(WARMUP_JOBS) {
            let Ok(Response::Submitted { job }) = client.submit(c as u32, a, b) else {
                return None;
            };
            while matches!(client.poll(job), Ok(Response::Status { state: JobState::Queued, .. })) {
            }
        }
        clients.push(client);
    }
    Some((server, clients))
}

fn rejects(c: &WireCountersSnapshot) -> u64 {
    c.busy_rejected
        + c.drain_rejected
        + c.bad_magic
        + c.bad_version
        + c.bad_checksum
        + c.frame_too_large
        + c.truncated
        + c.timed_out
        + c.idle_closed
        + c.malformed
        + c.unknown_op
        + c.io_errors
}

impl Phase {
    /// Completed jobs and their executed cycles.
    fn completed(&self, cycles: &[u64]) -> (f64, f64) {
        let done = self.runs.iter().flat_map(|r| &r.jobs).filter(|&&(_, ns)| ns != MISSED);
        done.fold((0.0, 0.0), |(n, c), &(i, _)| (n + 1.0, c + cycles[i] as f64))
    }
}

fn tally_all(runs: &[&ClientRun]) -> Tally {
    let mut t = Tally::default();
    for r in runs {
        t.add(r.tally);
    }
    t
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let mut setup = Vec::with_capacity(SETUPS);
    let mut jobs = Vec::new();
    let mut live: Option<(WireServer, Vec<WireClient>)> = None;
    for k in 0..SETUPS {
        if let Some((server, clients)) = live.take() {
            drop(clients);
            server.shutdown();
        }
        let t0 = Instant::now();
        jobs = pool(args.seed);
        live = set_up(args.seed ^ (k as u64) << 32, &jobs);
        setup.push(t0.elapsed().as_secs_f64());
    }
    out.put("setup_s", median(&setup), "s");
    out.fact("clients", CLIENTS);
    out.fact("loop", format!("closed, {READS_PER_JOB} reads of resolved ids per job"));
    let Some((server, mut clients)) = live else {
        out.check("server starts and clients connect", false);
        return out;
    };
    let origin = Instant::now();

    // An untraced run measures [`WINDOWS`] closed loops back to back; a
    // traced run measures four quarters, untraced, traced, traced and
    // untraced, so drift of the host does not land on one side. The host is
    // probed on as many threads as there are clients before the first loop
    // and after each, while the clients wait.
    let plan: Vec<Option<usize>> =
        if args.trace { vec![None, Some(1), Some(1 + CLIENTS), None] } else { vec![None; WINDOWS] };
    let seconds = args.seconds / plan.len() as f64;
    let probe = Probe::new();
    let mut probes = vec![probe.seconds(CLIENTS)];
    let mut phases: Vec<Phase> = Vec::with_capacity(plan.len());
    for (k, &timeline) in plan.iter().enumerate() {
        let seed = args.seed ^ k as u64;
        phases.push(closed_loop(&mut clients, &jobs, seed, seconds, timeline, origin));
        probes.push(probe.seconds(CLIENTS));
    }
    drop(clients);
    let counters = server.counters();
    let shut = server.shutdown();
    out.check("server shuts down without thread panics", shut.thread_panics == 0);
    out.check("server counts no rejects or I/O errors", rejects(&counters) == 0);

    // Reference results for the pool, outside the timed region: executed
    // cycles per job, and every output against Gustavson.
    let accel = Accelerator::new(two_lane_accel());
    let mut t = Tracer::new(args.trace, 0, origin);
    t.open(UNATTRIBUTED, "wire_mixed.pool", None);
    let mut outcomes = Vec::with_capacity(jobs.len());
    let mut run_ns = 0;
    for (j, (a, b)) in jobs.iter().enumerate() {
        let (r, ns) =
            t.timed("core", "Accelerator::try_run", Some(j as u64), || accel.try_run(a, b));
        run_ns += ns;
        outcomes.push(r.ok());
    }
    t.close();
    let cycles: Vec<u64> =
        outcomes.iter().map(|o| o.as_ref().map_or(0, |o| o.stats.total_cycles)).collect();
    let again: Vec<u64> =
        jobs.iter().map(|(a, b)| accel.try_run(a, b).map_or(0, |o| o.stats.total_cycles)).collect();
    out.check("simulated cycles repeat exactly", cycles == again);
    let matches = jobs.iter().zip(&outcomes).all(|((a, b), o)| {
        o.as_ref().is_some_and(|o| o.c.approx_eq(&spgemm::gustavson(a, b), 1e-6))
    });
    out.check("every pool C matches spgemm::gustavson", matches);
    let pool_cycles: u64 = cycles.iter().sum();
    out.put("sim_cycles", pool_cycles as f64, "cycles");

    let done: Vec<(f64, f64)> = phases.iter().map(|p| p.completed(&cycles)).collect();
    let traced_runs: Vec<ClientRun> =
        phases.iter_mut().filter(|p| p.traced).flat_map(|p| std::mem::take(&mut p.runs)).collect();
    let runs: Vec<&ClientRun> = if args.trace {
        traced_runs.iter().collect()
    } else {
        phases.iter().flat_map(|p| &p.runs).collect()
    };
    let tally = tally_all(&runs);
    out.check("every wire job completed", tally.unsuccessful() == 0);
    out.tally = tally;

    if !args.trace {
        // Per closed loop: jobs and Mcycles per wall-second and per
        // CPU-second.
        let window = |k: usize| {
            let (p, (n, c)) = (&phases[k], done[k]);
            [n / p.wall_s, c / p.wall_s / 1e6, n / p.cpu_s, c / p.cpu_s / 1e6]
        };
        let windows: Vec<[f64; 4]> = (0..phases.len()).map(window).collect();
        let med = |i: usize| median(&windows.iter().map(|w| w[i]).collect::<Vec<_>>());
        out.put("jobs_per_s", med(0), "jobs/s");
        out.put("sim_mcycles_per_s", med(1), "Mcycles/s");
        // The CPU-second rates, in calibrated seconds.
        let cal = calibrated(1.0, median(&probes));
        out.put("jobs_per_cal_s", med(2) / cal, "jobs/cal-s");
        out.put("sim_mcycles_per_cal_s", med(3) / cal, "Mcycles/cal-s");
        let wall_s: f64 = phases.iter().map(|p| p.wall_s).sum();
        let cpu_s: f64 = phases.iter().map(|p| p.cpu_s).sum();
        out.fact(
            "rates",
            format!("median over {WINDOWS} closed loops; {wall_s:.2} s measured, {cpu_s:.2} CPU-s"),
        );
        out.fact("probe_ms_median", format!("{:.3}", median(&probes) * 1e3));
        let mut lat: Vec<u64> =
            runs.iter().flat_map(|r| r.jobs.iter().map(|&(_, ns)| ns)).collect();
        let mut reads: Vec<u64> = runs.iter().flat_map(|r| r.reads.iter().copied()).collect();
        out.put("job_within_50ms_share", met_limit(&lat, JOB_LIMIT_NS), "ratio");
        let (lat, reads) = (Summary::of(&mut lat), Summary::of(&mut reads));
        out.put("job_p50_ms", lat.p50 as f64 / 1e6, "ms");
        out.put(format!("job_p{}_ms", lat.tail_pct), lat.tail as f64 / 1e6, "ms");
        out.put("read_p50_us", reads.p50 as f64 / 1e3, "us");
        out.put(format!("read_p{}_us", reads.tail_pct), reads.tail as f64 / 1e3, "us");
        out.fact("job_latency", lat.describe("submit write to Resolved poll"));
        out.fact("read_latency", reads.describe("poll of a resolved id"));
        return out;
    }
    // Quarters 0 and 3 ran untraced, 1 and 2 traced (their runs moved out).
    let rate = |k: usize| done[k].0 / phases[k].wall_s;
    let (untraced_rate, traced_rate) = ((rate(0) + rate(3)) / 2.0, (rate(1) + rate(2)) / 2.0);
    out.put("trace.overhead_share", untraced_rate / traced_rate - 1.0, "ratio");
    out.put("core.ns_per_cycle", run_ns as f64 / pool_cycles.max(1) as f64, "ns");
    out.put("service.wire.rejects", rejects(&counters) as f64, "count");

    t.open(UNATTRIBUTED, "wire_mixed.layers", None);
    let pairs: Vec<Pair<'_>> = jobs.iter().map(|(a, b)| (a, b)).collect();
    let cfg = two_lane_accel();
    layers::operand_layers(&mut t, &mut out, &pairs, cfg.mem.num_channels);
    let (done_pairs, outputs): (Vec<Pair<'_>>, Vec<&Csr<f64>>) = pairs
        .iter()
        .zip(&outcomes)
        .filter_map(|(&pair, o)| o.as_ref().map(|o| (pair, &o.c)))
        .unzip();
    layers::output_layers(&mut t, &mut out, &done_pairs, &outputs);
    let rcs: Vec<RcPair> =
        jobs.iter().map(|(a, b)| (Rc::new(a.clone()), Rc::new(b.clone()))).collect();
    let stream: Vec<RcPair> = traced_runs
        .iter()
        .flat_map(|r| r.jobs.iter().map(|&(i, _)| i))
        .take(REPLAY_CAP)
        .map(|i| (Rc::clone(&rcs[i].0), Rc::clone(&rcs[i].1)))
        .collect();
    layers::service_replay(&mut t, &mut out, cfg.clone(), &stream);
    layers::probes(&mut t, &mut out, &cfg);
    t.close();
    layers::sim_counts(&mut out, outcomes.iter().flatten().map(|o| &o.stats));
    out.timelines.push(t.into_spans());
    out.timelines.extend(traced_runs.into_iter().map(|r| r.spans));
    out
}
