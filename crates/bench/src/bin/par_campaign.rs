//! True-parallel fleet campaign: 10k+ jobs on real OS threads, gated
//! against the discrete-event fleet oracle.
//!
//! Drives [`matraptor_service::parallel`] — N `std::thread` accelerator
//! workers fed from one mutex-guarded job queue (DESIGN.md §15) — over the
//! same seeded job stream at every requested thread count, while a
//! scripted [`WorkerFaultPlan`] injects panics, hangs, a terminal
//! slowdown, and a lost-ack crash into the worker bodies. Every fault
//! must be recovered through the restart ladder at full lane width, so
//! the **resolution core** — the id-sorted `(job id, disposition, output
//! fingerprint)` triples — is byte-identical no matter how many threads
//! ran the campaign or how the OS scheduled them.
//!
//! The oracle is the discrete-event [`Fleet`] (DESIGN.md §13): the same
//! operand stream submitted to a clean simulated fleet, whose resolution
//! core must hash to the same value. The oracle runs in simulated time
//! with zero wall-clock nondeterminism, so agreement pins the threaded
//! executor's merge, at-most-once accounting, and recovery paths all at
//! once.
//!
//! `--strict` additionally requires, per threaded run: at least one
//! injected panic caught (never a process abort), one hang detected by
//! the heartbeat supervisor, one terminal slowdown recycled, one lost-ack
//! duplicate suppressed, zero double-completions, zero degraded-width
//! completions (recovery stayed on the full-width restart rung), and zero
//! retirements; plus zero ABFT escapes and a fully-drained queue on the
//! oracle side.
//!
//! Wall-clock throughput per thread count goes to `BENCH_par.json` —
//! outside the deterministic report, because wall time is not
//! reproducible.
//!
//! Usage: `cargo run --release -p matraptor-bench --bin par_campaign --
//! [--seed N|0xN] [--jobs N] [--threads 1,2,4,8] [--json] [--strict]
//! [--bench-out PATH]`

use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

use matraptor_bench::campaign::pool_matrices;
use matraptor_bench::parse_u64;
use matraptor_core::MatRaptorConfig;
use matraptor_service::{
    parallel, BreakerConfig, DeadlinePolicy, Fleet, FleetConfig, JobSpec, ParJob, ParReport,
    ParallelConfig, ServiceConfig, TenantConfig, TenantId, WorkerFault, WorkerFaultEvent,
    WorkerFaultPlan,
};
use matraptor_sim::trace::fnv1a64;
use matraptor_sparse::{rng::ChaCha8Rng, Csr};

struct Options {
    seed: u64,
    jobs: u64,
    threads: Vec<usize>,
    json: bool,
    strict: bool,
    bench_out: Option<String>,
}

fn parse_args() -> Options {
    let mut opts = Options {
        seed: 0xCAFE,
        jobs: 10_000,
        threads: vec![1, 2, 4, 8],
        json: false,
        strict: false,
        bench_out: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seed" => {
                opts.seed = args
                    .next()
                    .and_then(|v| parse_u64(&v))
                    .expect("--seed needs an integer (decimal or 0x-hex)")
            }
            "--jobs" => {
                opts.jobs = args
                    .next()
                    .and_then(|v| parse_u64(&v))
                    .expect("--jobs needs an integer (decimal or 0x-hex)")
                    .max(1)
            }
            "--threads" => {
                let list = args.next().expect("--threads needs a comma-separated list");
                opts.threads = list
                    .split(',')
                    .map(|t| t.trim().parse::<usize>().expect("--threads entries are integers"))
                    .map(|t| t.max(1))
                    .collect();
                assert!(!opts.threads.is_empty(), "--threads list is empty");
            }
            "--json" => opts.json = true,
            "--strict" => opts.strict = true,
            "--bench-out" => {
                opts.bench_out = Some(args.next().expect("--bench-out needs a path"))
            }
            other => panic!(
                "unknown argument {other}; supported: --seed N --jobs N --threads LIST --json --strict --bench-out PATH"
            ),
        }
    }
    opts
}

/// The accelerator template — identical for the threaded workers and the
/// oracle fleet's simulated workers, because output value bits depend on
/// the lane width (accumulation order).
fn accel_config() -> MatRaptorConfig {
    let mut accel = MatRaptorConfig::small_test();
    accel.watchdog_window = 2_000;
    accel.verify_against_reference = false;
    accel.abft_verification = true;
    accel
}

/// Operand pool: the fleet campaign's matrices, generated once and
/// wrapped separately for the threaded executor (`Arc`) and the
/// single-threaded oracle (`Rc`).
struct Pool {
    arcs: Vec<Vec<Arc<Csr<f64>>>>,
    rcs: Vec<Vec<Rc<Csr<f64>>>>,
}

impl Pool {
    fn build(seed: u64) -> Pool {
        let mats = pool_matrices(seed, &[24, 32, 48]);
        let arcs =
            mats.iter().map(|class| class.iter().map(|m| Arc::new(m.clone())).collect()).collect();
        let rcs = mats.into_iter().map(|class| class.into_iter().map(Rc::new).collect()).collect();
        Pool { arcs, rcs }
    }
}

/// The seeded pick sequence `(class, a, b)` — computed once so the
/// threaded runs and the oracle consume the identical operand stream.
fn pick_stream(pool: &Pool, seed: u64, jobs: u64) -> Vec<(usize, usize, usize)> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    (0..jobs)
        .map(|_| {
            let c = rng.gen_range(0..pool.arcs.len());
            let n = pool.arcs[c].len();
            (c, rng.gen_range(0..n), rng.gen_range(0..n))
        })
        .collect()
}

/// The per-thread-count injection schedule. Every fault must recover on
/// the full-width restart rung (the strict gate asserts zero
/// degraded-width completions), so the budget is generous. Thresholds are
/// cumulative slices per worker slot, spaced so they fire in order even
/// when several land on the same slot (`threads == 1`).
fn fault_script(threads: usize) -> WorkerFaultPlan {
    WorkerFaultPlan::new(vec![
        WorkerFaultEvent { worker: 0, after_slices: 8, kind: WorkerFault::Crash },
        WorkerFaultEvent { worker: 1 % threads, after_slices: 24, kind: WorkerFault::Hang },
        WorkerFaultEvent {
            worker: 2 % threads,
            after_slices: 40,
            kind: WorkerFault::SlowDown { factor: 12 },
        },
        WorkerFaultEvent {
            worker: 3 % threads,
            after_slices: 56,
            kind: WorkerFault::CrashAfterCompletion,
        },
    ])
}

fn par_config(threads: usize) -> ParallelConfig {
    let mut cfg = ParallelConfig::small_test();
    cfg.accel = accel_config();
    cfg.threads = threads;
    cfg.max_restarts = 16;
    cfg.max_degraded_restarts = 1;
    cfg.worker_faults = Some(fault_script(threads));
    cfg
}

fn run_threaded(
    opts: &Options,
    pool: &Pool,
    picks: &[(usize, usize, usize)],
    threads: usize,
) -> ParReport {
    let jobs: Vec<ParJob> = picks
        .iter()
        .enumerate()
        .map(|(j, &(c, ai, bi))| ParJob {
            id: j as u64,
            a: Arc::clone(&pool.arcs[c][ai]),
            b: Arc::clone(&pool.arcs[c][bi]),
            plan: None,
            deadline_cycles: u64::MAX,
        })
        .collect();
    let _ = opts;
    parallel::run(par_config(threads), jobs).expect("threaded campaign run")
}

struct OracleResult {
    fingerprint: u64,
    resolved: u64,
    escapes: u64,
    pending_at_end: usize,
    non_completed: u64,
    final_cycle: u64,
}

/// The discrete-event oracle: the same operand stream through a clean
/// simulated [`Fleet`] (no worker faults, no input faults, loose
/// deadlines), reduced to the same resolution core.
fn run_oracle(pool: &Pool, picks: &[(usize, usize, usize)]) -> OracleResult {
    const TARGET_BACKLOG: usize = 24;
    let service = ServiceConfig {
        accel: accel_config(),
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
    };
    let cfg = FleetConfig {
        service,
        accel_workers: 4,
        cpu_workers: 1,
        slice_cycles: 4_096,
        heartbeat_window: 150_000,
        restart_cycles: 50_000,
        max_restarts: 1,
        max_degraded_restarts: 1,
        worker_faults: None,
        recovery_log_cap: 4_096,
    };
    let mut fleet = Fleet::new(cfg).expect("oracle fleet config is valid");
    for (j, &(c, ai, bi)) in picks.iter().enumerate() {
        let spec = JobSpec {
            tenant: TenantId(0),
            a: Rc::clone(&pool.rcs[c][ai]),
            b: Rc::clone(&pool.rcs[c][bi]),
            plan: None,
        };
        let id = fleet.submit(spec).expect("oracle submission (clean stream, managed backlog)");
        assert_eq!(id.0, j as u64, "oracle ids must align with the threaded stream");
        while fleet.pending() > TARGET_BACKLOG {
            if !fleet.step() {
                break;
            }
        }
    }
    fleet.run_to_idle();

    let mut core: Vec<(u64, &'static str, Option<u64>)> = fleet
        .records()
        .iter()
        .map(|r| (r.record.id.0, r.record.disposition.label(), r.output_fingerprint))
        .collect();
    core.sort_unstable_by_key(|&(id, _, _)| id);
    let non_completed = core.iter().filter(|&&(_, label, _)| label != "completed").count() as u64;
    OracleResult {
        fingerprint: parallel::resolution_core_fingerprint(core.into_iter()),
        resolved: fleet.records().len() as u64,
        escapes: fleet.counters().escapes,
        pending_at_end: fleet.pending(),
        non_completed,
        final_cycle: fleet.now().0,
    }
}

fn counters_json(r: &ParReport) -> String {
    let c = &r.counters;
    format!(
        "{{\"panics_caught\":{},\"injected_panics\":{},\"injected_hangs\":{},\"injected_slowdowns\":{},\"injected_lost_acks\":{},\"hangs_detected\":{},\"slowness_detections\":{},\"worker_restarts\":{},\"worker_degradations\":{},\"worker_retirements\":{},\"redispatches\":{},\"resumed_from_checkpoint\":{},\"restarted_from_scratch\":{},\"duplicates_suppressed\":{},\"duplicate_completions\":{},\"degraded_completions\":{},\"inline_fallbacks\":{},\"wedged_threads\":{},\"recovery_events_dropped\":{},\"panic_census\":{}}}",
        c.panics_caught,
        c.injected_panics,
        c.injected_hangs,
        c.injected_slowdowns,
        c.injected_lost_acks,
        c.hangs_detected,
        c.slowness_detections,
        c.worker_restarts,
        c.worker_degradations,
        c.worker_retirements,
        c.redispatches,
        c.resumed_from_checkpoint,
        c.restarted_from_scratch,
        c.duplicates_suppressed,
        c.duplicate_completions,
        c.degraded_completions,
        c.inline_fallbacks,
        c.wedged_threads,
        r.recovery_events_dropped,
        r.panic_census.len(),
    )
}

fn main() {
    let opts = parse_args();
    println!(
        "Parallel campaign — seed {:#x}, {} jobs, thread counts {:?}\n",
        opts.seed, opts.jobs, opts.threads
    );
    let pool = Pool::build(opts.seed);
    let picks = pick_stream(&pool, opts.seed, opts.jobs);

    println!("running discrete-event oracle fleet ...");
    let oracle_start = Instant::now();
    let oracle = run_oracle(&pool, &picks);
    let oracle_wall = oracle_start.elapsed().as_secs_f64().max(1e-9);
    println!(
        "oracle: {} resolved, fingerprint {:#018x} ({:.1}s, {:.0} jobs/s simulated-fleet)\n",
        oracle.resolved,
        oracle.fingerprint,
        oracle_wall,
        oracle.resolved as f64 / oracle_wall
    );

    let mut runs: Vec<(usize, ParReport, f64)> = Vec::new();
    for &t in &opts.threads {
        println!("running threaded executor at {t} thread(s) ...");
        let start = Instant::now();
        let report = run_threaded(&opts, &pool, &picks, t);
        let wall = start.elapsed().as_secs_f64().max(1e-9);
        println!(
            "  {} resolved, fingerprint {:#018x}, {} panic(s) caught, {} hang(s), {} slowdown(s), {} lost-ack(s) ({:.1}s, {:.0} jobs/s)",
            report.records.len(),
            report.resolution_fingerprint(),
            report.counters.panics_caught,
            report.counters.hangs_detected,
            report.counters.slowness_detections,
            report.counters.duplicates_suppressed,
            wall,
            report.records.len() as f64 / wall
        );
        runs.push((t, report, wall));
    }
    println!();

    let fingerprints: Vec<u64> = runs.iter().map(|(_, r, _)| r.resolution_fingerprint()).collect();
    let all_equal = fingerprints.windows(2).all(|w| w[0] == w[1]);
    let matches_oracle = fingerprints.iter().all(|&f| f == oracle.fingerprint);
    println!(
        "resolution core: {} across thread counts, {} the oracle",
        if all_equal { "IDENTICAL" } else { "DIVERGENT" },
        if matches_oracle { "MATCHES" } else { "DOES NOT MATCH" }
    );

    // ---- deterministic report (no wall-clock fields) ----
    let run_objects: Vec<String> = runs
        .iter()
        .map(|(t, r, _)| {
            format!(
                "{{\"threads\":{t},\"resolved\":{},\"resolution_fingerprint\":\"{:#018x}\",\"counters\":{}}}",
                r.records.len(),
                r.resolution_fingerprint(),
                counters_json(r)
            )
        })
        .collect();
    let body = format!(
        "{{\"campaign\":{{\"seed\":{},\"jobs\":{},\"thread_counts\":[{}]}},\
\"oracle\":{{\"resolved\":{},\"escapes\":{},\"pending_at_end\":{},\"non_completed\":{},\"final_cycle\":{},\"resolution_fingerprint\":\"{:#018x}\"}},\
\"runs\":[{}],\
\"gate\":{{\"cores_identical_across_threads\":{all_equal},\"core_matches_oracle\":{matches_oracle}}}",
        opts.seed,
        opts.jobs,
        opts.threads.iter().map(|t| t.to_string()).collect::<Vec<_>>().join(","),
        oracle.resolved,
        oracle.escapes,
        oracle.pending_at_end,
        oracle.non_completed,
        oracle.final_cycle,
        oracle.fingerprint,
        run_objects.join(","),
    );
    let json = format!("{body},\"report_fnv1a\":\"{:#018x}\"}}", fnv1a64(body.as_bytes()));
    if opts.json {
        println!("\n{json}");
    }

    // Wall-clock scaling goes in its own file, outside the deterministic
    // report.
    let scaling: Vec<String> = runs
        .iter()
        .map(|(t, r, wall)| {
            format!(
                "{{\"threads\":{t},\"wall_seconds\":{wall:.3},\"jobs_per_wall_second\":{:.1}}}",
                r.records.len() as f64 / wall
            )
        })
        .collect();
    let bench_json = format!(
        "{{\"bench\":\"par_campaign\",\"seed\":{},\"jobs\":{},\"oracle_wall_seconds\":{oracle_wall:.3},\"runs\":[{}]}}",
        opts.seed,
        opts.jobs,
        scaling.join(",")
    );
    let bench_path = opts.bench_out.as_deref().unwrap_or("BENCH_par.json");
    if let Err(e) = std::fs::write(bench_path, format!("{bench_json}\n")) {
        eprintln!("warning: could not write {bench_path}: {e}");
    } else {
        println!("wrote {bench_path}");
    }

    if opts.strict {
        let mut failures: Vec<String> = Vec::new();
        if !all_equal {
            failures.push("resolution core differs across thread counts".to_string());
        }
        if !matches_oracle {
            failures.push("resolution core differs from the discrete-event oracle".to_string());
        }
        if oracle.escapes > 0 {
            failures.push(format!("{} ABFT escape(s) in the oracle fleet", oracle.escapes));
        }
        if oracle.pending_at_end != 0 {
            failures.push(format!("{} job(s) stuck in the oracle queue", oracle.pending_at_end));
        }
        if oracle.non_completed != 0 {
            failures
                .push(format!("{} oracle job(s) did not complete cleanly", oracle.non_completed));
        }
        for (t, r, _) in &runs {
            let c = &r.counters;
            let mut need = |cond: bool, what: &str| {
                if !cond {
                    failures.push(format!("threads={t}: {what}"));
                }
            };
            need(r.records.len() as u64 == opts.jobs, "not every job resolved");
            need(c.injected_panics >= 1, "no panic was injected");
            need(c.panics_caught >= 1, "no panic was caught (catch_unwind hole)");
            need(c.injected_hangs >= 1, "no hang was injected");
            need(c.hangs_detected >= 1, "no hang was detected by the heartbeat supervisor");
            need(c.injected_slowdowns >= 1, "no slowdown was injected");
            need(c.slowness_detections >= 1, "no terminal slowdown was recycled");
            need(c.injected_lost_acks >= 1, "the lost-ack race was never injected");
            need(c.duplicates_suppressed >= 1, "the lost-ack duplicate was never suppressed");
            need(c.duplicate_completions == 0, "double-completion: at-most-once broken");
            need(
                c.degraded_completions == 0,
                "a degraded-width completion perturbed the resolution core",
            );
            need(c.worker_retirements == 0, "a worker was retired (restart budget too small)");
            need(c.wedged_threads == 0, "a worker thread wedged past the join budget");
        }
        if !failures.is_empty() {
            for f in &failures {
                eprintln!("STRICT: {f}");
            }
            std::process::exit(1);
        }
        println!("strict: all acceptance checks passed");
    }
}
