//! Overload/stress campaign for the multi-job service layer.
//!
//! Drives [`matraptor_service::Service`] with a seeded stream of ≥1000
//! mixed-size SpGEMM jobs across four weighted tenants, with scripted
//! adversity layered on top:
//!
//! * sporadic fault-plan jobs (ABFT-detectable corruption, dropped writes,
//!   survivable burst refusals) sprinkled through the stream;
//! * a **poison pair** submitted repeatedly — it must fail, strike, and
//!   land in quarantine, with later submissions refused at admission;
//! * a mid-campaign **deadlock burst** (channel-stall plans back to back)
//!   that trips the circuit breaker: subsequent jobs shed to the CPU
//!   fallback, the cooldown lapses in simulated time, a half-open probe
//!   closes the breaker again — one full breaker cycle;
//! * a late **admission burst** against the smallest tenant's bounded
//!   queue, demonstrating explicit `QueueFull` backpressure;
//! * a tight free-tier deadline policy, so some oversized free-tier jobs
//!   are cancelled mid-flight at their cycle deadline.
//!
//! The output is a single JSON SLO report: throughput, p50/p99 queue-wait
//! and service-cycle percentiles, rejection/shed/quarantine counts, the
//! breaker transition log, and the ABFT escape count (which must be 0).
//! `--strict` re-runs the whole campaign and fails unless the two reports
//! are byte-identical (replay determinism), plus checks the acceptance
//! invariants: zero escapes, queue drained, breaker closed after a full
//! cycle, at least one quarantined input, and the job-count floor.
//!
//! Usage: `cargo run --release -p matraptor-bench --bin stress_campaign --
//! [--seed N|0xN] [--jobs N] [--json] [--strict]`

use std::rc::Rc;

use matraptor_bench::campaign::{
    breaker_transitions_json, pick_tenant, poison_and_burst_pairs, Pool, SPORADIC_KINDS,
};
use matraptor_bench::harness::percentile;
use matraptor_bench::parse_u64;
use matraptor_core::{FaultKind, FaultPlan, MatRaptorConfig};
use matraptor_service::{
    BreakerConfig, BreakerState, Disposition, JobRecord, JobSpec, Rejected, Service, ServiceConfig,
    TenantConfig, TenantId,
};
use matraptor_sim::trace::fnv1a64;
use matraptor_sparse::rng::ChaCha8Rng;

struct Options {
    seed: u64,
    jobs: u64,
    json: bool,
    strict: bool,
}

fn parse_args() -> Options {
    let mut opts = Options { seed: 0xA4, jobs: 1000, json: false, strict: false };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut take = |what: &str| {
            args.next()
                .and_then(|v| parse_u64(&v))
                .unwrap_or_else(|| panic!("{what} needs an integer (decimal or 0x-hex)"))
        };
        match arg.as_str() {
            "--seed" => opts.seed = take("--seed"),
            "--jobs" => opts.jobs = take("--jobs").max(1),
            "--json" => opts.json = true,
            "--strict" => opts.strict = true,
            other => {
                panic!("unknown argument {other}; supported: --seed N --jobs N --json --strict")
            }
        }
    }
    opts
}

/// The number of in-flight jobs the submitter tries to keep queued — deep
/// enough that queue-wait percentiles are meaningful, shallow enough that
/// ordinary traffic never trips the bounded-queue rejection (the scripted
/// admission burst does that deliberately).
const TARGET_BACKLOG: usize = 4;

/// Scripted campaign moments, as indices into the main job stream.
const POISON_AT: [u64; 5] = [150, 350, 550, 750, 950];
const BREAKER_BURST_AT: u64 = 500;
const ADMISSION_BURST_AT: u64 = 900;

fn service_config() -> ServiceConfig {
    let mut accel = MatRaptorConfig::small_test();
    // Short watchdog window: injected deadlocks are declared in thousands
    // of cycles, keeping faulty jobs cheap relative to clean ones.
    accel.watchdog_window = 2_000;
    accel.verify_against_reference = false;
    accel.abft_verification = true;
    ServiceConfig {
        accel,
        tenants: vec![
            TenantConfig {
                name: "batch".to_string(),
                weight: 4,
                queue_capacity: 32,
                deadline: deadline_loose(),
            },
            TenantConfig {
                name: "interactive".to_string(),
                weight: 2,
                queue_capacity: 16,
                deadline: deadline_loose(),
            },
            TenantConfig {
                name: "analytics".to_string(),
                weight: 1,
                queue_capacity: 16,
                deadline: deadline_loose(),
            },
            // The free tier gets a tight flat budget (no per-flop slack):
            // small jobs fit, oversized ones are cancelled at the deadline
            // instead of hogging the array.
            TenantConfig {
                name: "free".to_string(),
                weight: 1,
                queue_capacity: 8,
                deadline: matraptor_service::DeadlinePolicy {
                    base_cycles: 12_000,
                    cycles_per_flop: 0,
                },
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
    }
}

fn deadline_loose() -> matraptor_service::DeadlinePolicy {
    matraptor_service::DeadlinePolicy { base_cycles: 2_000_000, cycles_per_flop: 400 }
}

#[derive(Default)]
struct TenantTally {
    resolved: u64,
    completed: u64,
    on_cpu: u64,
    deadline_exceeded: u64,
    failed: u64,
    queue_waits: Vec<u64>,
}

struct CampaignResult {
    json: String,
    resolved: u64,
    escapes: u64,
    pending_at_end: usize,
    quarantined_inputs: usize,
    breaker_closed: bool,
    full_breaker_cycle: bool,
    rejected_queue_full: u64,
    deadline_exceeded: u64,
}

fn run_campaign(opts: &Options) -> CampaignResult {
    let cfg = service_config();
    let lanes = cfg.accel.num_lanes();
    let mut service = Service::new(cfg).expect("stress config is valid");
    let pool = Pool::build(opts.seed, &[32, 48, 64]);
    let mut rng = ChaCha8Rng::seed_from_u64(opts.seed);

    let (poison, burst_pairs) = poison_and_burst_pairs(opts.seed);
    let poison_plan = FaultPlan::sample(FaultKind::ChannelStall, opts.seed ^ 0x50, lanes);

    for j in 0..opts.jobs {
        // Scripted moments ride alongside the numbered stream.
        if POISON_AT.contains(&j) {
            let spec = JobSpec {
                tenant: TenantId(1),
                a: Rc::clone(&poison.0),
                b: Rc::clone(&poison.1),
                plan: Some(poison_plan),
            };
            match service.submit(spec) {
                Ok(_) | Err(Rejected::Quarantined { .. }) => {}
                Err(e) => panic!("poison submission unexpectedly rejected: {e}"),
            }
        }
        if j == BREAKER_BURST_AT {
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
                service.submit(spec).expect("burst submission");
                // Resolve immediately so the consecutive-failure window is
                // not diluted by queued clean jobs.
                while service.fleet().pending() > 0 {
                    service.step();
                }
            }
        }
        if j == ADMISSION_BURST_AT {
            // Slam the free tier's bounded queue (capacity 8) with a burst
            // and let the tail bounce — explicit backpressure, not buffering.
            let mut bounced = 0u64;
            for i in 0..12u64 {
                let class = &pool.classes[0];
                let a = Rc::clone(&class[(i % 4) as usize]);
                let b = Rc::clone(&class[((i + 1) % 4) as usize]);
                match service.submit(JobSpec { tenant: TenantId(3), a, b, plan: None }) {
                    Ok(_) => {}
                    Err(Rejected::QueueFull { .. }) => bounced += 1,
                    Err(Rejected::Quarantined { .. }) => {}
                    Err(e) => panic!("admission burst: unexpected rejection {e}"),
                }
            }
            assert!(bounced > 0, "the admission burst must overflow the free tier queue");
        }

        // One background job per index.
        let tenant = pick_tenant(&mut rng);
        let (a, b) = pool.pick(&mut rng);
        let plan = if j > 0 && j % 53 == 0 {
            let kind = SPORADIC_KINDS[(j / 53) as usize % SPORADIC_KINDS.len()];
            Some(FaultPlan::sample(kind, opts.seed ^ j, lanes))
        } else {
            None
        };
        match service.submit(JobSpec { tenant, a, b, plan }) {
            Ok(_) => {}
            // Quarantine fallout from sporadic faults, or a still-full
            // queue: both are the service doing its job.
            Err(Rejected::Quarantined { .. }) | Err(Rejected::QueueFull { .. }) => {}
            Err(e) => panic!("background job {j} rejected: {e}"),
        }
        while service.fleet().pending() > TARGET_BACKLOG {
            service.step();
        }
    }
    while service.step().is_some() {}

    // ---- report ----
    let fleet = service.fleet();
    let c = *fleet.counters();
    let records: Vec<JobRecord> = fleet.records().iter().map(|r| r.record).collect();
    let resolved = records.len() as u64;
    let mut queue_waits: Vec<u64> = records.iter().map(|r| r.queue_wait()).collect();
    let mut service_cycles: Vec<u64> = records.iter().map(|r| r.service_cycles()).collect();
    queue_waits.sort_unstable();
    service_cycles.sort_unstable();
    let final_cycle = fleet.now().0;
    let flops_done: u64 = records
        .iter()
        .filter(|r| matches!(r.disposition, Disposition::Completed | Disposition::CompletedOnCpu))
        .map(|r| r.estimated_flops)
        .sum();
    let jobs_per_gcycle = if final_cycle == 0 {
        0
    } else {
        (resolved as u128 * 1_000_000_000 / final_cycle as u128) as u64
    };
    let flops_per_kcycle = if final_cycle == 0 {
        0
    } else {
        (flops_done as u128 * 1_000 / final_cycle as u128) as u64
    };

    let mut tallies: Vec<TenantTally> = (0..4).map(|_| TenantTally::default()).collect();
    for r in &records {
        let t = &mut tallies[r.tenant.0];
        t.resolved += 1;
        t.queue_waits.push(r.queue_wait());
        match r.disposition {
            Disposition::Completed => t.completed += 1,
            Disposition::CompletedOnCpu => t.on_cpu += 1,
            Disposition::DeadlineExceeded => t.deadline_exceeded += 1,
            Disposition::Failed => t.failed += 1,
            // The stress campaign never cancels or drains; these arms are
            // unreachable here but keep the match total.
            Disposition::Cancelled | Disposition::CheckpointedAtDrain => {}
        }
    }
    let tenant_names = ["batch", "interactive", "analytics", "free"];
    let tenant_objects: Vec<String> = tallies
        .iter_mut()
        .zip(tenant_names)
        .map(|(t, name)| {
            t.queue_waits.sort_unstable();
            format!(
                "{{\"name\":\"{name}\",\"resolved\":{},\"completed\":{},\"on_cpu\":{},\"deadline_exceeded\":{},\"failed\":{},\"queue_wait_p50\":{}}}",
                t.resolved,
                t.completed,
                t.on_cpu,
                t.deadline_exceeded,
                t.failed,
                percentile(&t.queue_waits, 50)
            )
        })
        .collect();

    let (transitions, full_breaker_cycle) = breaker_transitions_json(fleet.breaker_transitions());
    let breaker_final = fleet.breaker_state();
    let pending_at_end = fleet.pending();
    let quarantined_inputs = fleet.quarantined_inputs();

    let body = format!(
        "{{\"campaign\":{{\"seed\":{},\"jobs_target\":{},\"tenants\":4}},\
\"totals\":{{\"submitted\":{},\"accepted\":{},\"resolved\":{resolved},\"completed_accel\":{},\"completed_cpu\":{},\"deadline_exceeded\":{},\"failed\":{},\"retries\":{},\"escapes\":{},\"rejected_queue_full\":{},\"rejected_quarantined\":{},\"rejected_invalid\":{},\"quarantined_inputs\":{quarantined_inputs},\"pending_at_end\":{pending_at_end}}},\
\"slo\":{{\"final_cycle\":{final_cycle},\"jobs_per_gcycle\":{jobs_per_gcycle},\"flops_per_kcycle\":{flops_per_kcycle},\"queue_wait\":{{\"p50\":{},\"p99\":{}}},\"service_cycles\":{{\"p50\":{},\"p99\":{}}}}},\
\"tenants\":[{}],\
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
        percentile(&queue_waits, 50),
        percentile(&queue_waits, 99),
        percentile(&service_cycles, 50),
        percentile(&service_cycles, 99),
        tenant_objects.join(","),
        breaker_final.label(),
        transitions,
        fleet.metrics().fingerprint(),
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
        rejected_queue_full: c.rejected_queue_full,
        deadline_exceeded: c.deadline_exceeded,
    }
}

fn main() {
    let opts = parse_args();
    println!(
        "Stress campaign — seed {:#x}, {} background jobs across 4 tenants\n",
        opts.seed, opts.jobs
    );
    let result = run_campaign(&opts);

    println!("resolved jobs        {}", result.resolved);
    println!("abft escapes         {}", result.escapes);
    println!("deadline kills       {}", result.deadline_exceeded);
    println!("queue-full bounces   {}", result.rejected_queue_full);
    println!("quarantined inputs   {}", result.quarantined_inputs);
    println!(
        "breaker              {} (full open/half-open/closed cycle: {})",
        if result.breaker_closed { "closed" } else { "NOT CLOSED" },
        result.full_breaker_cycle
    );
    println!("pending at end       {}", result.pending_at_end);

    if opts.json {
        println!("\n{}", result.json);
    }

    if opts.strict {
        let mut failures: Vec<String> = Vec::new();
        if result.escapes > 0 {
            failures.push(format!("{} ABFT escape(s)", result.escapes));
        }
        if result.resolved < opts.jobs {
            failures.push(format!("only {} of {} jobs resolved", result.resolved, opts.jobs));
        }
        if result.pending_at_end != 0 {
            failures.push(format!("{} job(s) stuck in queue", result.pending_at_end));
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
        if result.rejected_queue_full == 0 {
            failures.push("no QueueFull backpressure observed".to_string());
        }
        if result.deadline_exceeded == 0 {
            failures.push("no deadline cancellation observed".to_string());
        }
        // Replay determinism: the whole campaign, byte for byte.
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
