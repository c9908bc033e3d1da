//! Fault-tolerant fleet campaign: 10k+ jobs across a multi-worker fleet
//! with scripted worker failures.
//!
//! Drives [`matraptor_service::Fleet`] — N simulated accelerator workers
//! plus a CPU-fallback tier behind the shared admission front end — with a
//! seeded stream of mixed-size SpGEMM jobs while a scripted
//! [`WorkerFaultPlan`] kills, hangs, and degrades workers mid-campaign:
//!
//! * **crashes** at checkpoint boundaries: the in-flight job re-dispatches
//!   from its last checkpoint to a healthy peer, byte-identically;
//! * **hangs**: heartbeat silence past the liveness window recycles the
//!   worker;
//! * a **slowdown** severe enough that its slice wall time breaches the
//!   window — dead-in-practice, treated as dead;
//! * a **lost-ack crash** right after a completion, which the at-most-once
//!   accounting must suppress (zero double-completions);
//! * one worker is failed repeatedly until it walks the whole recovery
//!   ladder — restart, reduced-lanes degradation, retirement — with its
//!   share shed to the CPU tier;
//! * plus the service-layer adversity of the stress campaign: sporadic
//!   fault-plan jobs, a poison pair that must land in fleet-wide
//!   quarantine, and a deadlock burst that trips the circuit breaker
//!   through a full open → half-open → closed cycle.
//!
//! The output is a single JSON SLO report: totals, fleet recovery
//! counters, the recovery log, per-worker utilization (pulled from the
//! metrics registry), latency percentiles, and the breaker transition log.
//! `--strict` re-runs the whole campaign and fails unless the report is
//! byte-identical, plus checks the acceptance invariants (zero escapes,
//! zero double-completions, at least one checkpoint resume and one
//! retirement shed to CPU, queue drained). A separate `BENCH_fleet.json`
//! records wall-clock throughput (jobs/s and simulated cycles/s) — kept
//! out of the strict-compared report because wall time is not
//! deterministic.
//!
//! Usage: `cargo run --release -p matraptor-bench --bin fleet_campaign --
//! [--seed N|0xN] [--jobs N] [--json] [--strict] [--bench-out PATH]`

use std::rc::Rc;
use std::time::Instant;

use matraptor_bench::campaign::{
    breaker_transitions_json, pick_tenant, poison_and_burst_pairs, Pool, SPORADIC_KINDS,
};
use matraptor_bench::harness::percentile;
use matraptor_bench::parse_u64;
use matraptor_core::{FaultKind, FaultPlan, MatRaptorConfig};
use matraptor_service::{
    BreakerConfig, BreakerState, DeadlinePolicy, Fleet, FleetConfig, JobSpec, Rejected,
    ServiceConfig, TenantConfig, TenantId, WorkerClass, WorkerFault, WorkerFaultEvent,
    WorkerFaultPlan,
};
use matraptor_sim::trace::fnv1a64;
use matraptor_sparse::{gen, rng::ChaCha8Rng};

struct Options {
    seed: u64,
    jobs: u64,
    json: bool,
    strict: bool,
    bench_out: Option<String>,
}

fn parse_args() -> Options {
    let mut opts =
        Options { seed: 0xBEEF, jobs: 10_000, json: false, strict: false, bench_out: None };
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
            "--json" => opts.json = true,
            "--strict" => opts.strict = true,
            "--bench-out" => {
                opts.bench_out = Some(args.next().expect("--bench-out needs a path"))
            }
            other => panic!(
                "unknown argument {other}; supported: --seed N --jobs N --json --strict --bench-out PATH"
            ),
        }
    }
    opts
}

/// In-flight depth the submitter maintains — enough to keep every worker
/// of the fleet fed, shallow enough that ordinary traffic never trips the
/// bounded-queue rejection.
const TARGET_BACKLOG: usize = 24;

const ACCEL_WORKERS: usize = 6;
const CPU_WORKERS: usize = 2;

fn fleet_config(seed: u64, jobs: u64) -> FleetConfig {
    let mut accel = MatRaptorConfig::small_test();
    accel.watchdog_window = 2_000;
    accel.verify_against_reference = false;
    accel.abft_verification = true;
    let service = ServiceConfig {
        accel,
        tenants: vec![
            TenantConfig {
                name: "batch".to_string(),
                weight: 4,
                queue_capacity: 64,
                deadline: deadline_loose(),
            },
            TenantConfig {
                name: "interactive".to_string(),
                weight: 2,
                queue_capacity: 48,
                deadline: deadline_loose(),
            },
            TenantConfig {
                name: "analytics".to_string(),
                weight: 1,
                queue_capacity: 48,
                deadline: deadline_loose(),
            },
            // Tight flat budget: oversized free-tier jobs are cancelled at
            // a checkpoint boundary instead of hogging a worker.
            TenantConfig {
                name: "free".to_string(),
                weight: 1,
                queue_capacity: 32,
                deadline: DeadlinePolicy { base_cycles: 12_000, cycles_per_flop: 0 },
            },
        ],
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
    FleetConfig {
        service,
        accel_workers: ACCEL_WORKERS,
        cpu_workers: CPU_WORKERS,
        slice_cycles: 4_096,
        heartbeat_window: 150_000,
        restart_cycles: 50_000,
        max_restarts: 1,
        max_degraded_restarts: 1,
        worker_faults: Some(worker_fault_script(seed, jobs)),
        recovery_log_cap: 4_096,
    }
}

fn deadline_loose() -> DeadlinePolicy {
    DeadlinePolicy { base_cycles: 2_000_000, cycles_per_flop: 400 }
}

/// The scripted worker-failure schedule. Thresholds are slice counts per
/// worker, placed early enough to fire even for small `--jobs` floors; the
/// sampled tail adds seed-varied background failures on top.
fn worker_fault_script(seed: u64, jobs: u64) -> WorkerFaultPlan {
    // Spread a few late events through the campaign for large runs without
    // ever placing one past what a small run reaches.
    let late = (jobs / 4).clamp(60, 2_000);
    let mut events = vec![
        // Crashes at checkpoint boundaries: jobs resume on healthy peers.
        WorkerFaultEvent { worker: 0, after_slices: 15, kind: WorkerFault::Crash },
        WorkerFaultEvent { worker: 2, after_slices: late, kind: WorkerFault::Crash },
        // Hangs: found by the heartbeat window, not by an error return.
        WorkerFaultEvent { worker: 1, after_slices: 30, kind: WorkerFault::Hang },
        WorkerFaultEvent { worker: 3, after_slices: late / 2, kind: WorkerFault::Hang },
        // Slow enough to be indistinguishable from dead (slice wall time
        // 4096 x 60 breaches the 150k window).
        WorkerFaultEvent {
            worker: 4,
            after_slices: 25,
            kind: WorkerFault::SlowDown { factor: 60 },
        },
        // The lost-ack race: completes, then dies before the ack lands.
        WorkerFaultEvent { worker: 4, after_slices: 45, kind: WorkerFault::CrashAfterCompletion },
        // Worker 5 walks the whole ladder: restart, degrade, retire.
        WorkerFaultEvent { worker: 5, after_slices: 10, kind: WorkerFault::Crash },
        WorkerFaultEvent { worker: 5, after_slices: 22, kind: WorkerFault::Crash },
        WorkerFaultEvent { worker: 5, after_slices: 34, kind: WorkerFault::Crash },
    ];
    events.extend(WorkerFaultPlan::sample(seed ^ 0xFA, ACCEL_WORKERS, 8).events().to_vec());
    WorkerFaultPlan::new(events)
}

struct CampaignResult {
    json: String,
    resolved: u64,
    escapes: u64,
    pending_at_end: usize,
    quarantined_inputs: usize,
    breaker_closed: bool,
    full_breaker_cycle: bool,
    duplicate_completions: u64,
    duplicates_suppressed: u64,
    resumed_from_checkpoint: u64,
    worker_crashes: u64,
    worker_hangs: u64,
    worker_retirements: u64,
    completed_cpu: u64,
    final_cycle: u64,
    recovery_events_retained: usize,
    recovery_log_cap: usize,
}

fn run_campaign(opts: &Options) -> CampaignResult {
    let cfg = fleet_config(opts.seed, opts.jobs);
    let lanes = cfg.service.accel.num_lanes();
    let mut fleet = Fleet::new(cfg).expect("fleet config is valid");
    // Smaller than the stress campaign's pool: the fleet runs an order of
    // magnitude more jobs.
    let pool = Pool::build(opts.seed, &[24, 32, 48]);
    let mut rng = ChaCha8Rng::seed_from_u64(opts.seed);

    let (poison, burst_pairs) = poison_and_burst_pairs(opts.seed);
    let poison_plan = FaultPlan::sample(FaultKind::ChannelStall, opts.seed ^ 0x50, lanes);
    let poison_at: Vec<u64> = [8u64, 4, 2].iter().map(|d| opts.jobs / d).collect();
    let breaker_burst_at = opts.jobs * 5 / 8;

    for j in 0..opts.jobs {
        if poison_at.contains(&j) {
            let spec = JobSpec {
                tenant: TenantId(1),
                a: Rc::clone(&poison.0),
                b: Rc::clone(&poison.1),
                plan: Some(poison_plan),
            };
            match fleet.submit(spec) {
                Ok(_) | Err(Rejected::Quarantined { .. }) => {}
                Err(e) => panic!("poison submission unexpectedly rejected: {e}"),
            }
        }
        if j == breaker_burst_at {
            // Drain first so the stall burst's failures land consecutively
            // (a clean completion in between would reset the breaker's
            // consecutive-failure count).
            fleet.run_to_idle();
            for (i, (a, b)) in burst_pairs.iter().enumerate() {
                let plan = FaultPlan::sample(
                    FaultKind::ChannelStall,
                    opts.seed ^ (0x60 + i as u64),
                    lanes,
                );
                let spec = JobSpec {
                    tenant: TenantId(0),
                    a: Rc::clone(a),
                    b: Rc::clone(b),
                    plan: Some(plan),
                };
                fleet.submit(spec).expect("burst submission");
                fleet.run_to_idle();
            }
        }

        let tenant = pick_tenant(&mut rng);
        // Sporadic hazardous jobs use dedicated operand pairs, not pool
        // picks: the fault plan rides the operands (persistent input-borne
        // fault model), so a pool pair that failed twice would be
        // quarantined and bounce every later *clean* use of it.
        let (a, b, plan) = if j > 0 && j % 97 == 0 {
            let kind = SPORADIC_KINDS[(j / 97) as usize % SPORADIC_KINDS.len()];
            let a = Rc::new(gen::uniform(28, 28, 150, opts.seed.wrapping_add(20_000 + 2 * j)));
            let b = Rc::new(gen::uniform(28, 28, 150, opts.seed.wrapping_add(20_001 + 2 * j)));
            (a, b, Some(FaultPlan::sample(kind, opts.seed ^ j, lanes)))
        } else {
            let (a, b) = pool.pick(&mut rng);
            (a, b, None)
        };
        match fleet.submit(JobSpec { tenant, a, b, plan }) {
            Ok(_) => {}
            Err(Rejected::Quarantined { .. }) | Err(Rejected::QueueFull { .. }) => {}
            Err(e) => panic!("background job {j} rejected: {e}"),
        }
        while fleet.pending() > TARGET_BACKLOG {
            if !fleet.step() {
                break;
            }
        }
    }
    fleet.run_to_idle();

    // Cooldown lap: if a late failure left the breaker open, a little
    // clean traffic lets it walk open → half-open → closed (the fleet
    // idle-advances to the reopen cycle when work is waiting). Bounded so
    // a genuinely stuck breaker still shows up as a strict failure.
    for i in 0..16usize {
        if fleet.breaker_state() == BreakerState::Closed {
            break;
        }
        let (a, b) = pool.pick(&mut rng);
        let spec = JobSpec { tenant: TenantId(i % 4), a, b, plan: None };
        if fleet.submit(spec).is_err() {
            break;
        }
        fleet.run_to_idle();
    }

    // ---- report ----
    let c = *fleet.counters();
    let f = *fleet.fleet_counters();
    let records = fleet.records();
    let resolved = records.len() as u64;
    let mut queue_waits: Vec<u64> = records.iter().map(|r| r.record.queue_wait()).collect();
    let mut service_cycles: Vec<u64> = records.iter().map(|r| r.record.service_cycles()).collect();
    queue_waits.sort_unstable();
    service_cycles.sort_unstable();
    let final_cycle = fleet.now().0;
    let jobs_per_gcycle = if final_cycle == 0 {
        0
    } else {
        (resolved as u128 * 1_000_000_000 / final_cycle as u128) as u64
    };

    // Per-worker utilization, pulled from the metrics registry — the same
    // counters any external scraper would see.
    let metrics = fleet.metrics();
    let worker_objects: Vec<String> = fleet
        .workers()
        .iter()
        .map(|w| {
            let i = w.id().0;
            let busy = metrics.counter(&format!("worker.{i}.busy_cycles")).unwrap_or(0);
            let utilization_pct =
                if final_cycle == 0 { 0 } else { (busy as u128 * 100 / final_cycle as u128) as u64 };
            format!(
                "{{\"id\":{i},\"class\":\"{}\",\"status\":\"{}\",\"lanes\":{},\"dispatches\":{},\"completed\":{},\"busy_cycles\":{busy},\"restarts\":{},\"utilization_pct\":{utilization_pct}}}",
                w.class().label(),
                w.status().label(),
                w.lanes(),
                metrics.counter(&format!("worker.{i}.dispatches")).unwrap_or(0),
                metrics.counter(&format!("worker.{i}.completed")).unwrap_or(0),
                metrics.counter(&format!("worker.{i}.restarts")).unwrap_or(0),
            )
        })
        .collect();

    let log = fleet.recovery_log();
    let count_kind = |label: &str| log.iter().filter(|e| e.kind.label() == label).count();
    let recovery_by_kind: Vec<String> = [
        "crash_detected",
        "hang_detected",
        "slowness_detected",
        "restarted",
        "degraded",
        "retired",
        "resumed_from_checkpoint",
        "restarted_from_scratch",
        "duplicate_suppressed",
    ]
    .iter()
    .map(|k| format!("\"{k}\":{}", count_kind(k)))
    .collect();
    let recovery_events: Vec<String> = log
        .iter()
        .take(48)
        .map(|e| {
            format!(
                "{{\"at\":{},\"worker\":{},\"kind\":\"{}\"}}",
                e.at.0,
                e.worker.0,
                e.kind.label()
            )
        })
        .collect();

    let (transitions, full_breaker_cycle) = breaker_transitions_json(fleet.breaker_transitions());
    let breaker_final = fleet.breaker_state();
    let pending_at_end = fleet.pending();
    let quarantined_inputs = fleet.quarantined_inputs();
    let cpu_records = records
        .iter()
        .filter(|r| fleet.workers()[r.worker.0].class() == WorkerClass::CpuFallback)
        .count() as u64;

    let body = format!(
        "{{\"campaign\":{{\"seed\":{},\"jobs_target\":{},\"accel_workers\":{ACCEL_WORKERS},\"cpu_workers\":{CPU_WORKERS},\"slice_cycles\":4096,\"heartbeat_window\":150000}},\
\"totals\":{{\"submitted\":{},\"accepted\":{},\"resolved\":{resolved},\"completed_accel\":{},\"completed_cpu\":{},\"deadline_exceeded\":{},\"failed\":{},\"retries\":{},\"escapes\":{},\"rejected_queue_full\":{},\"rejected_quarantined\":{},\"rejected_invalid\":{},\"quarantined_inputs\":{quarantined_inputs},\"pending_at_end\":{pending_at_end},\"resolved_on_cpu_workers\":{cpu_records}}},\
\"fleet\":{{\"worker_crashes\":{},\"worker_hangs\":{},\"worker_slowdowns\":{},\"slowness_detections\":{},\"worker_restarts\":{},\"worker_degradations\":{},\"worker_retirements\":{},\"redispatches\":{},\"resumed_from_checkpoint\":{},\"restarted_from_scratch\":{},\"duplicates_suppressed\":{},\"duplicate_completions\":{}}},\
\"recovery\":{{\"events\":{},\"dropped\":{},\"cap\":{},\"by_kind\":{{{}}},\"log\":[{}]}},\
\"workers\":[{}],\
\"slo\":{{\"final_cycle\":{final_cycle},\"jobs_per_gcycle\":{jobs_per_gcycle},\"queue_wait\":{{\"p50\":{},\"p99\":{}}},\"service_cycles\":{{\"p50\":{},\"p99\":{}}}}},\
\"breaker\":{{\"final\":\"{}\",\"full_cycle\":{full_breaker_cycle},\"transitions\":[{}]}},\
\"metrics_fingerprint\":\"{:#018x}\"",
        opts.seed,
        opts.jobs,
        c.submitted,
        c.accepted,
        c.completed_accel,
        c.completed_cpu,
        c.deadline_exceeded,
        c.failed,
        c.retries,
        c.escapes,
        c.rejected_queue_full,
        c.rejected_quarantined,
        c.rejected_invalid,
        f.worker_crashes,
        f.worker_hangs,
        f.worker_slowdowns,
        f.slowness_detections,
        f.worker_restarts,
        f.worker_degradations,
        f.worker_retirements,
        f.redispatches,
        f.resumed_from_checkpoint,
        f.restarted_from_scratch,
        f.duplicates_suppressed,
        f.duplicate_completions,
        log.len(),
        fleet.recovery_events_dropped(),
        fleet.recovery_log_cap(),
        recovery_by_kind.join(","),
        recovery_events.join(","),
        worker_objects.join(","),
        percentile(&queue_waits, 50),
        percentile(&queue_waits, 99),
        percentile(&service_cycles, 50),
        percentile(&service_cycles, 99),
        breaker_final.label(),
        transitions,
        metrics.fingerprint(),
    );
    let json = format!("{body},\"report_fnv1a\":\"{:#018x}\"}}", fnv1a64(body.as_bytes()));

    CampaignResult {
        json,
        resolved,
        escapes: c.escapes,
        pending_at_end,
        quarantined_inputs,
        breaker_closed: breaker_final == BreakerState::Closed,
        full_breaker_cycle,
        duplicate_completions: f.duplicate_completions,
        duplicates_suppressed: f.duplicates_suppressed,
        resumed_from_checkpoint: f.resumed_from_checkpoint,
        worker_crashes: f.worker_crashes,
        worker_hangs: f.worker_hangs,
        worker_retirements: f.worker_retirements,
        completed_cpu: c.completed_cpu,
        final_cycle,
        recovery_events_retained: fleet.recovery_log().len(),
        recovery_log_cap: fleet.recovery_log_cap(),
    }
}

fn main() {
    let opts = parse_args();
    println!(
        "Fleet campaign — seed {:#x}, {} jobs across {} accel + {} CPU workers\n",
        opts.seed, opts.jobs, ACCEL_WORKERS, CPU_WORKERS
    );
    let wall_start = Instant::now();
    let result = run_campaign(&opts);
    let wall = wall_start.elapsed().as_secs_f64().max(1e-9);

    println!("resolved jobs          {}", result.resolved);
    println!("abft escapes           {}", result.escapes);
    println!("worker crashes         {}", result.worker_crashes);
    println!("worker hangs           {}", result.worker_hangs);
    println!("worker retirements     {}", result.worker_retirements);
    println!("checkpoint resumes     {}", result.resumed_from_checkpoint);
    println!("double completions     {}", result.duplicate_completions);
    println!("lost-acks suppressed   {}", result.duplicates_suppressed);
    println!("completed on CPU tier  {}", result.completed_cpu);
    println!("quarantined inputs     {}", result.quarantined_inputs);
    println!(
        "breaker                {} (full cycle: {})",
        if result.breaker_closed { "closed" } else { "NOT CLOSED" },
        result.full_breaker_cycle
    );
    println!("pending at end         {}", result.pending_at_end);
    println!("wall time              {wall:.2}s ({:.0} jobs/s)", result.resolved as f64 / wall);

    // Wall-clock throughput goes in its own file, outside the
    // deterministic report.
    let bench_json = format!(
        "{{\"bench\":\"fleet_campaign\",\"seed\":{},\"jobs_resolved\":{},\"sim_cycles\":{},\"wall_seconds\":{:.3},\"jobs_per_wall_second\":{:.1},\"sim_cycles_per_wall_second\":{:.0}}}",
        opts.seed,
        result.resolved,
        result.final_cycle,
        wall,
        result.resolved as f64 / wall,
        result.final_cycle as f64 / wall,
    );
    let bench_path = opts.bench_out.as_deref().unwrap_or("BENCH_fleet.json");
    if let Err(e) = std::fs::write(bench_path, format!("{bench_json}\n")) {
        eprintln!("warning: could not write {bench_path}: {e}");
    } else {
        println!("wrote {bench_path}");
    }

    if opts.json {
        println!("\n{}", result.json);
    }

    if opts.strict {
        let mut failures: Vec<String> = Vec::new();
        if result.escapes > 0 {
            failures.push(format!("{} ABFT escape(s)", result.escapes));
        }
        if result.duplicate_completions > 0 {
            failures.push(format!(
                "{} double-completion(s): at-most-once accounting broken",
                result.duplicate_completions
            ));
        }
        if result.resolved < opts.jobs {
            failures.push(format!("only {} of {} jobs resolved", result.resolved, opts.jobs));
        }
        if result.pending_at_end != 0 {
            failures.push(format!("{} job(s) stuck in queue", result.pending_at_end));
        }
        if result.resumed_from_checkpoint == 0 {
            failures.push("no job ever resumed from a checkpoint".to_string());
        }
        if result.worker_crashes == 0 || result.worker_hangs == 0 {
            failures.push("the fault script failed to kill/hang any worker".to_string());
        }
        if result.worker_retirements == 0 {
            failures.push("no worker walked the full ladder to retirement".to_string());
        }
        if result.completed_cpu == 0 {
            failures.push("nothing was shed to the CPU tier".to_string());
        }
        if result.duplicates_suppressed == 0 {
            failures.push("the lost-ack race was never exercised".to_string());
        }
        if !result.breaker_closed {
            failures.push("breaker stuck open at campaign end".to_string());
        }
        if !result.full_breaker_cycle {
            failures.push("no full breaker cycle observed".to_string());
        }
        if result.quarantined_inputs == 0 {
            failures.push("no input was quarantined".to_string());
        }
        if result.recovery_events_retained > result.recovery_log_cap {
            failures.push(format!(
                "recovery log breached its cap: {} retained > {}",
                result.recovery_events_retained, result.recovery_log_cap
            ));
        }
        // Replay determinism: the whole campaign, byte for byte —
        // including the recovery log and every worker's failure history.
        let replay = run_campaign(&opts);
        if replay.json != result.json {
            failures.push("report is not byte-identical across two runs".to_string());
        } else {
            println!("\nstrict: replay report byte-identical ({} bytes)", result.json.len());
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
