//! Hostile-wire campaign: a real loopback TCP server under a scripted
//! wire-fault schedule interleaved with clean traffic.
//!
//! The campaign starts a [`WireServer`] on `127.0.0.1:0`, then runs
//! `--rounds` passes over the full fault repertoire
//! ([`WireFaultKind::ALL`]): each pass interleaves one clean job
//! (submit → poll to resolution) with one injected fault and a
//! fresh-connection liveness probe, so every hostile act is bracketed by
//! proof the server still serves. Scripted taxonomy probes (invalid
//! shapes, unknown tenants/jobs, cancellation, queue-full backpressure)
//! pin the admission mapping, and the run ends with a graceful shutdown
//! whose drain must finish or checkpoint every job still queued.
//!
//! The JSON report has two sections. `deterministic` is a pure function
//! of the seed and schedule — per-fault-kind survival/reject/escape
//! counts, clean-traffic resolution fingerprint, taxonomy tallies, drain
//! accounting with checkpoint fingerprints — and `--strict` re-runs the
//! whole campaign requiring that section byte-identical, plus zero
//! server panics and zero protocol escapes. `wall_clock` holds what real
//! TCP cannot make deterministic (latency percentiles, raw wire
//! counters) and is exempt from the byte-identity gate.
//!
//! Usage: `cargo run --release -p matraptor-bench --bin wire_campaign --
//! [--seed N|0xN] [--rounds N] [--json] [--strict] [--out PATH]`

use std::time::Instant;

use matraptor_bench::harness::percentile;
use matraptor_bench::parse_u64;
use matraptor_service::wire::{
    fault, InjectorConfig, JobState, Response, RetryPolicy, WireClient, WireFaultKind, WireServer,
    WireServerConfig,
};
use matraptor_service::ServiceConfig;
use matraptor_sim::trace::fnv1a64;
use matraptor_sparse::gen;
use matraptor_sparse::rng::ChaCha8Rng;

struct Options {
    seed: u64,
    rounds: u64,
    json: bool,
    strict: bool,
    out: Option<String>,
}

fn parse_args() -> Options {
    let mut opts = Options { seed: 0xA7, rounds: 3, json: false, strict: false, out: None };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut take = |what: &str| {
            args.next()
                .and_then(|v| parse_u64(&v))
                .unwrap_or_else(|| panic!("{what} needs an integer (decimal or 0x-hex)"))
        };
        match arg.as_str() {
            "--seed" => opts.seed = take("--seed"),
            "--rounds" => opts.rounds = take("--rounds").max(1),
            "--json" => opts.json = true,
            "--strict" => opts.strict = true,
            "--out" => opts.out = args.next(),
            other => {
                panic!("unknown argument {other}; supported: --seed N --rounds N --json --strict --out PATH")
            }
        }
    }
    opts
}

/// Per-fault-kind tallies (deterministic under a fixed schedule).
#[derive(Debug, Clone, Copy, Default)]
struct KindTally {
    injected: u64,
    contract_ok: u64,
    escapes: u64,
}

struct CampaignResult {
    /// The deterministic section, exactly as emitted (strict compares it).
    core_json: String,
    /// The full report.
    json: String,
    escapes: u64,
    panics: u64,
    queued_at_shutdown: u64,
    drained_total: u64,
    drained_checkpointed: u64,
    queue_full: u64,
    clean_completed: u64,
    clean_submitted: u64,
}

/// Campaign server posture: fast read deadlines so stall/loris cases
/// resolve in milliseconds, and a drain slice small enough to force the
/// checkpoint pause path on the jobs left queued at shutdown.
fn campaign_server(seed: u64) -> WireServer {
    let _ = seed;
    let mut cfg = WireServerConfig::local(ServiceConfig::small_test());
    cfg.read_timeout_ms = 5;
    cfg.idle_reads = 30; // 150 ms idle timeout
    cfg.frame_reads = 64; // split writes fit, slow loris does not
    cfg.drain_slice_cycles = 300;
    WireServer::start(cfg, "127.0.0.1:0").expect("bind loopback server")
}

fn expect_submitted(resp: Result<Response, matraptor_service::wire::ClientError>) -> Option<u64> {
    match resp {
        Ok(Response::Submitted { job }) => Some(job),
        _ => None,
    }
}

fn run_campaign(opts: &Options) -> CampaignResult {
    let server = campaign_server(opts.seed);
    let addr = server.addr();
    let mut rng = ChaCha8Rng::seed_from_u64(opts.seed);
    let mut client = WireClient::connect(addr, RetryPolicy::default_local(), opts.seed ^ 0xC11E)
        .expect("connect campaign client");

    let mut inj_cfg = InjectorConfig::default_local();
    inj_cfg.read_timeout_ms = 5;
    inj_cfg.observe_reads = 400;
    inj_cfg.loris_pace_ms = 12;

    let mut tallies = [KindTally::default(); WireFaultKind::ALL.len()];
    let mut escapes = 0u64;
    let mut clean_submitted = 0u64;
    let mut clean_completed = 0u64;
    let mut resolution_hash: Vec<u8> = Vec::new();
    let mut ping_us: Vec<u64> = Vec::new();
    let mut submit_us: Vec<u64> = Vec::new();
    let mut poll_us: Vec<u64> = Vec::new();

    // Phase 1: clean traffic interleaved with the hostile schedule.
    for round in 0..opts.rounds {
        for (ki, kind) in WireFaultKind::ALL.iter().enumerate() {
            // One clean job, submitted and polled to resolution.
            let n = 16 + (rng.next_u64() % 16) as usize;
            let nnz = n * 4;
            let a = gen::uniform(n, n, nnz, rng.next_u64());
            let b = gen::uniform(n, n, nnz, rng.next_u64());
            let tenant = (round % 2) as u32;
            clean_submitted += 1;
            // Heal the connection first: the previous fault may have taken
            // longer than the server's idle timeout, closing our stream.
            // Ping retries (and reconnects) — submit deliberately does not.
            if !matches!(client.ping(), Ok(Response::Pong)) {
                escapes += 1;
            }
            let t0 = Instant::now();
            let submitted = expect_submitted(client.submit(tenant, &a, &b));
            submit_us.push(t0.elapsed().as_micros() as u64);
            match submitted {
                Some(job) => {
                    let t1 = Instant::now();
                    match client.poll(job) {
                        Ok(Response::Status {
                            state: JobState::Resolved { disposition, attempts, finished_at },
                            ..
                        }) => {
                            clean_completed += 1;
                            resolution_hash.extend_from_slice(&job.to_le_bytes());
                            resolution_hash.push(disposition);
                            resolution_hash.extend_from_slice(&attempts.to_le_bytes());
                            resolution_hash.extend_from_slice(&finished_at.to_le_bytes());
                        }
                        _ => escapes += 1,
                    }
                    poll_us.push(t1.elapsed().as_micros() as u64);
                }
                None => escapes += 1,
            }

            // One hostile act.
            let obs = fault::inject(addr, *kind, &inj_cfg, &mut rng);
            tallies[ki].injected += 1;
            if obs.matches_contract() {
                tallies[ki].contract_ok += 1;
            } else {
                tallies[ki].escapes += 1;
                escapes += 1;
            }

            // Liveness probe on a fresh connection.
            let t2 = Instant::now();
            let probe = WireClient::connect(addr, RetryPolicy::default_local(), rng.next_u64())
                .and_then(|mut c| c.ping());
            ping_us.push(t2.elapsed().as_micros() as u64);
            if !matches!(probe, Ok(Response::Pong)) {
                escapes += 1;
            }
        }
    }

    // Phase 2: scripted taxonomy probes over the wire.
    let mut tax_invalid_shape = 0u64;
    let mut tax_unknown_tenant = 0u64;
    let mut tax_unknown_job = 0u64;
    let mut tax_cancelled = 0u64;
    {
        use matraptor_service::wire::RejectCode;
        // Heal after the last fault of phase 1 (idle timeout, as above).
        if !matches!(client.ping(), Ok(Response::Pong)) {
            escapes += 1;
        }
        let a = gen::uniform(8, 9, 20, rng.next_u64());
        let b = gen::uniform(10, 8, 20, rng.next_u64());
        match client.submit(0, &a, &b) {
            Ok(Response::Error { code: RejectCode::InvalidShape, .. }) => tax_invalid_shape += 1,
            _ => escapes += 1,
        }
        let a = gen::uniform(8, 8, 20, rng.next_u64());
        let b = gen::uniform(8, 8, 20, rng.next_u64());
        match client.submit(99, &a, &b) {
            Ok(Response::Error { code: RejectCode::UnknownTenant, .. }) => tax_unknown_tenant += 1,
            _ => escapes += 1,
        }
        match client.poll(1_000_000_007) {
            Ok(Response::Error { code: RejectCode::UnknownJob, .. }) => tax_unknown_job += 1,
            _ => escapes += 1,
        }
        // Cancel a queued job, then confirm its disposition over the wire.
        if let Some(job) = expect_submitted(client.submit(0, &a, &b)) {
            match client.cancel(job) {
                Ok(Response::CancelResult { ok: true, .. }) => {}
                _ => escapes += 1,
            }
            match client.poll(job) {
                Ok(Response::Status {
                    state: JobState::Resolved { disposition: 4, .. }, ..
                }) => tax_cancelled += 1,
                _ => escapes += 1,
            }
        } else {
            escapes += 1;
        }
    }

    // Phase 3: backpressure — oversubmit one tenant until QueueFull, then
    // leave the queue loaded so shutdown has real work to drain.
    let mut queue_full = 0u64;
    let mut queued_jobs = 0u64;
    {
        use matraptor_service::wire::RejectCode;
        for _ in 0..64 {
            let n = 24 + (rng.next_u64() % 8) as usize;
            let a = gen::uniform(n, n, n * 6, rng.next_u64());
            let b = gen::uniform(n, n, n * 6, rng.next_u64());
            match client.submit(1, &a, &b) {
                Ok(Response::Submitted { .. }) => queued_jobs += 1,
                Ok(Response::Error { code: RejectCode::QueueFull, .. }) => {
                    queue_full += 1;
                    if queue_full >= 3 {
                        break;
                    }
                }
                _ => {
                    escapes += 1;
                    break;
                }
            }
        }
    }

    // Phase 4: graceful shutdown — the drain must finish or checkpoint
    // every job still queued, reply-flushed, zero panics.
    let down = server.shutdown();
    let drained_total = down
        .drained_completed
        .saturating_add(down.drained_checkpointed)
        .saturating_add(down.drained_deadline_exceeded)
        .saturating_add(down.drained_failed);
    if down.jobs_accepted != down.jobs_resolved {
        escapes += 1; // a job vanished without a disposition
    }

    // ---- report ----
    let fault_objects: Vec<String> = WireFaultKind::ALL
        .iter()
        .zip(tallies.iter())
        .map(|(kind, t)| {
            format!(
                "{{\"kind\":\"{}\",\"injected\":{},\"contract_ok\":{},\"escapes\":{}}}",
                kind.label(),
                t.injected,
                t.contract_ok,
                t.escapes
            )
        })
        .collect();
    let fingerprint_objects: Vec<String> =
        down.checkpoint_fingerprints.iter().map(|f| format!("\"{f:#018x}\"")).collect();

    let core_body = format!(
        "{{\"faults\":[{}],\
\"clean\":{{\"submitted\":{clean_submitted},\"resolved\":{clean_completed},\"resolution_fnv1a\":\"{:#018x}\"}},\
\"taxonomy\":{{\"invalid_shape\":{tax_invalid_shape},\"unknown_tenant\":{tax_unknown_tenant},\"unknown_job\":{tax_unknown_job},\"cancelled\":{tax_cancelled},\"queue_full\":{queue_full}}},\
\"drain\":{{\"queued_at_shutdown\":{queued_jobs},\"completed\":{},\"checkpointed\":{},\"deadline_exceeded\":{},\"failed\":{},\"checkpoint_fingerprints\":[{}]}},\
\"accounting\":{{\"jobs_accepted\":{},\"jobs_resolved\":{},\"thread_panics\":{},\"escapes_total\":{escapes}}}",
        fault_objects.join(","),
        fnv1a64(&resolution_hash),
        down.drained_completed,
        down.drained_checkpointed,
        down.drained_deadline_exceeded,
        down.drained_failed,
        fingerprint_objects.join(","),
        down.jobs_accepted,
        down.jobs_resolved,
        down.thread_panics,
    );
    let core_json =
        format!("{core_body},\"core_fnv1a\":\"{:#018x}\"}}", fnv1a64(core_body.as_bytes()));

    submit_us.sort_unstable();
    poll_us.sort_unstable();
    ping_us.sort_unstable();
    let c = down.counters;
    let wall = format!(
        "{{\"latency_us\":{{\"submit\":{{\"p50\":{},\"p99\":{}}},\"poll\":{{\"p50\":{},\"p99\":{}}},\"ping\":{{\"p50\":{},\"p99\":{}}}}},\
\"wire_counters\":{{\"accepted\":{},\"busy_rejected\":{},\"drain_rejected\":{},\"frames_ok\":{},\"replies_sent\":{},\"bad_magic\":{},\"bad_version\":{},\"bad_checksum\":{},\"frame_too_large\":{},\"truncated\":{},\"timed_out\":{},\"idle_closed\":{},\"malformed\":{},\"unknown_op\":{},\"clean_closed\":{},\"io_errors\":{}}}}}",
        percentile(&submit_us, 50),
        percentile(&submit_us, 99),
        percentile(&poll_us, 50),
        percentile(&poll_us, 99),
        percentile(&ping_us, 50),
        percentile(&ping_us, 99),
        c.accepted,
        c.busy_rejected,
        c.drain_rejected,
        c.frames_ok,
        c.replies_sent,
        c.bad_magic,
        c.bad_version,
        c.bad_checksum,
        c.frame_too_large,
        c.truncated,
        c.timed_out,
        c.idle_closed,
        c.malformed,
        c.unknown_op,
        c.clean_closed,
        c.io_errors,
    );
    let body = format!(
        "{{\"campaign\":{{\"seed\":{},\"rounds\":{},\"fault_kinds\":{}}},\"deterministic\":{core_json},\"wall_clock\":{wall}",
        opts.seed,
        opts.rounds,
        WireFaultKind::ALL.len(),
    );
    let json = format!("{body},\"report_fnv1a\":\"{:#018x}\"}}", fnv1a64(body.as_bytes()));

    CampaignResult {
        core_json,
        json,
        escapes,
        panics: down.thread_panics,
        queued_at_shutdown: queued_jobs,
        drained_total,
        drained_checkpointed: down.drained_checkpointed,
        queue_full,
        clean_completed,
        clean_submitted,
    }
}

fn main() {
    let opts = parse_args();
    println!(
        "Wire campaign — seed {:#x}, {} round(s) over {} fault kinds on loopback TCP\n",
        opts.seed,
        opts.rounds,
        WireFaultKind::ALL.len()
    );
    let result = run_campaign(&opts);

    println!("clean jobs           {}/{} resolved", result.clean_completed, result.clean_submitted);
    println!("protocol escapes     {}", result.escapes);
    println!("server panics        {}", result.panics);
    println!("queue-full bounces   {}", result.queue_full);
    println!(
        "drain                {} queued -> {} drained ({} checkpointed)",
        result.queued_at_shutdown, result.drained_total, result.drained_checkpointed
    );

    // The report must itself be well-formed JSON (same gate CI applies
    // through json_lint).
    if let Err((at, why)) = matraptor_bench::json::validate(&result.json) {
        eprintln!("report JSON invalid at byte {at}: {why}");
        std::process::exit(1);
    }

    if let Some(path) = &opts.out {
        if let Err(e) = std::fs::write(path, format!("{}\n", result.json)) {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        }
        println!("report written to {path}");
    }
    if opts.json {
        println!("\n{}", result.json);
    }

    if opts.strict {
        let mut failures: Vec<String> = Vec::new();
        if result.escapes > 0 {
            failures.push(format!("{} protocol escape(s)", result.escapes));
        }
        if result.panics > 0 {
            failures.push(format!("{} server thread panic(s)", result.panics));
        }
        if result.queued_at_shutdown != result.drained_total {
            failures.push(format!(
                "drain accounting mismatch: {} queued but {} drained",
                result.queued_at_shutdown, result.drained_total
            ));
        }
        if result.drained_checkpointed == 0 {
            failures.push("drain exercised no checkpoint (slice budget too generous)".to_string());
        }
        if result.queue_full == 0 {
            failures.push("no QueueFull backpressure observed over the wire".to_string());
        }
        if result.clean_completed < result.clean_submitted {
            failures.push(format!(
                "only {} of {} clean jobs resolved",
                result.clean_completed, result.clean_submitted
            ));
        }
        // Replay determinism: the deterministic core, byte for byte, from
        // a fresh server on a fresh port.
        let replay = run_campaign(&opts);
        if replay.core_json != result.core_json {
            failures.push("deterministic core not byte-identical across two runs".to_string());
        } else {
            println!(
                "\nstrict: deterministic core byte-identical ({} bytes)",
                result.core_json.len()
            );
        }
        if replay.escapes > 0 || replay.panics > 0 {
            failures.push("replay run observed escapes or panics".to_string());
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
