//! Per-layer measurements shared by the workloads' traced runs. Each one
//! times a layer's public function, from outside, on the workload's own
//! inputs and outputs; the probes time a layer's fixed cost per call.

use std::rc::Rc;
use std::sync::Arc;

use matraptor_core::{Accelerator, MatRaptorConfig, MatRaptorStats};
use matraptor_service::wire::frame::{
    decode_request, encode_frame, encode_request, read_frame, ReadBudget,
};
use matraptor_service::wire::{Request, RetryPolicy, WireClient, WireServer, WireServerConfig};
use matraptor_service::{
    fingerprint_output, parallel, BreakerConfig, DeadlinePolicy, Disposition, JobSpec, ParJob,
    ParallelConfig, Service, ServiceConfig, TenantConfig, TenantId,
};
use matraptor_sparse::{abft, C2sr, Csr};

use crate::stats::Summary;
use crate::trace::{self, Tracer, LAYERS, UNATTRIBUTED};
use crate::Outcome;

/// A job as a pair of operands.
pub type Pair<'a> = (&'a Csr<f64>, &'a Csr<f64>);

/// A job's operands shared within one thread (the service front ends).
pub type RcPair = (Rc<Csr<f64>>, Rc<Csr<f64>>);

/// A job's operands shared across threads (the threaded executor).
pub type ArcPair = (Arc<Csr<f64>>, Arc<Csr<f64>>);

/// Mean in microseconds of `ns` spread over `n` calls.
fn mean_us(ns: u64, n: usize) -> f64 {
    if n == 0 {
        0.0
    } else {
        ns as f64 / n as f64 / 1e3
    }
}

/// The `par_campaign` accelerator template that `par_slices` and
/// `wire_mixed` run on: 2 lanes, ABFT on, in-run reference check off.
pub fn two_lane_accel() -> MatRaptorConfig {
    MatRaptorConfig {
        watchdog_window: 2_000,
        verify_against_reference: false,
        abft_verification: true,
        ..MatRaptorConfig::small_test()
    }
}

/// A service configuration that refuses nothing: `tenants` tenants with
/// deep queues and deadlines far beyond any job the benchmark submits.
pub fn loose_service(accel: MatRaptorConfig, tenants: usize) -> ServiceConfig {
    ServiceConfig {
        accel,
        tenants: (0..tenants)
            .map(|i| TenantConfig {
                name: format!("t{i}"),
                weight: 1,
                queue_capacity: 1 << 20,
                deadline: DeadlinePolicy { base_cycles: 1 << 40, cycles_per_flop: 1 << 10 },
            })
            .collect(),
        quantum_cycles: 200_000,
        breaker: BreakerConfig::default(),
        quarantine_threshold: 2,
        max_attempts: 2,
        cpu_cycles_per_flop: 64,
    }
}

/// Input-side layer costs on `pairs`: CSR validation and C²SR conversion
/// per operand (what every launch and every slice repeats), and the wire
/// encoding and decoding of each job as a submit frame.
pub fn operand_layers(t: &mut Tracer, out: &mut Outcome, pairs: &[Pair<'_>], channels: usize) {
    let (mut validate_ns, mut c2sr_ns, mut enc_ns, mut dec_ns, mut bytes) = (0, 0, 0, 0, 0);
    let mut ok = true;
    let budget = ReadBudget { idle_reads: 4, frame_reads: 4 };
    for (j, &(a, b)) in pairs.iter().enumerate() {
        let job = Some(j as u64);
        for m in [a, b] {
            let (valid, ns) = t.timed("sparse", "Csr::validate", job, || m.validate());
            ok &= valid.is_ok();
            validate_ns += ns;
            let (c, ns) = t.timed("sparse", "C2sr::from_csr", job, || C2sr::from_csr(m, channels));
            c2sr_ns += ns;
            std::hint::black_box(c);
        }
        let req = Request::Submit { tenant: 0, a: a.clone(), b: b.clone() };
        let (frame, ns) = t.timed("service.wire", "encode_request+encode_frame", job, || {
            encode_request(&req).map(|(op, payload)| encode_frame(op, j as u64, &payload))
        });
        enc_ns += ns;
        let Ok(frame) = frame else {
            ok = false;
            continue;
        };
        bytes += frame.len();
        let (decoded, ns) = t.timed("service.wire", "read_frame+decode_request", job, || {
            read_frame(&mut frame.as_slice(), u32::MAX, budget)
                .map_err(|(_, e)| e)
                .and_then(|raw| decode_request(&raw))
        });
        dec_ns += ns;
        ok &= matches!(decoded, Ok(Request::Submit { a: da, b: db, .. })
            if da.nnz() == a.nnz() && db.nnz() == b.nnz());
    }
    let n = pairs.len();
    out.check("operands validate and round-trip through submit frames", ok);
    out.put("sparse.validate_us", mean_us(validate_ns, 2 * n), "us");
    out.put("sparse.c2sr_us", mean_us(c2sr_ns, 2 * n), "us");
    out.put("service.wire.encode_us", mean_us(enc_ns, n), "us");
    out.put("service.wire.decode_us", mean_us(dec_ns, n), "us");
    out.put("service.wire.submit_bytes", bytes as f64 / n.max(1) as f64, "bytes");
}

/// Output-side layer costs: the ABFT check and the output fingerprint per
/// completed job.
pub fn output_layers(t: &mut Tracer, out: &mut Outcome, pairs: &[Pair<'_>], outputs: &[&Csr<f64>]) {
    let (mut abft_ns, mut fp_ns) = (0, 0);
    let mut ok = true;
    let opts = abft::AbftOptions::default();
    for (j, (&(a, b), &c)) in pairs.iter().zip(outputs).enumerate() {
        let job = Some(j as u64);
        let (report, ns) = t.timed("sparse", "abft::verify", job, || abft::verify(a, b, c, &opts));
        ok &= report.is_ok();
        abft_ns += ns;
        let (fp, ns) = t.timed("service", "fingerprint_output", job, || fingerprint_output(c));
        fp_ns += ns;
        std::hint::black_box(fp);
    }
    out.check("every output passes ABFT", ok && outputs.len() == pairs.len());
    out.put("sparse.abft_us", mean_us(abft_ns, outputs.len()), "us");
    out.put("service.fingerprint_us", mean_us(fp_ns, outputs.len()), "us");
}

/// The workload's stream through an in-process [`Service`]: each job is
/// submitted, then stepped until it resolves.
pub fn service_replay(
    t: &mut Tracer,
    out: &mut Outcome,
    accel: MatRaptorConfig,
    stream: &[RcPair],
) {
    let Ok(mut svc) = Service::new(loose_service(accel, 1)) else {
        out.check("service replay config is valid", false);
        return;
    };
    let (mut submit, mut step) = (Vec::new(), Vec::new());
    let mut completed = 0;
    for (j, (a, b)) in stream.iter().enumerate() {
        let job = Some(j as u64);
        let spec = JobSpec { tenant: TenantId(0), a: Rc::clone(a), b: Rc::clone(b), plan: None };
        let (admitted, ns) = t.timed("service", "Service::submit", job, || svc.submit(spec));
        submit.push(ns);
        if admitted.is_err() {
            continue;
        }
        loop {
            let (done, ns) = t.timed("service", "Service::step", job, || {
                svc.step().map(|r| r.disposition == Disposition::Completed)
            });
            match done {
                Some(ok) => {
                    step.push(ns);
                    completed += usize::from(ok);
                }
                None => break,
            }
        }
    }
    out.check("service replay completes every job", completed == stream.len());
    let (s, p) = (Summary::of(&mut submit), Summary::of(&mut step));
    out.put("service.submit_us_p50", s.p50 as f64 / 1e3, "us");
    out.put("service.step_us_p50", p.p50 as f64 / 1e3, "us");
    out.fact("service_replay", format!("{} submits, {} steps", s.n, p.n));
}

fn median_us(
    t: &mut Tracer,
    layer: &'static str,
    name: &'static str,
    reps: usize,
    mut f: impl FnMut() -> bool,
) -> (f64, bool) {
    let mut samples = Vec::with_capacity(reps);
    let mut ok = true;
    for _ in 0..reps {
        let (good, ns) = t.timed(layer, name, None, &mut f);
        ok &= good;
        samples.push(ns);
    }
    (Summary::of(&mut samples).p50 as f64 / 1e3, ok)
}

/// Fixed cost per call of the core run path, the threaded executor and a
/// wire round trip, each on a one-non-zero job or an empty request.
pub fn probes(t: &mut Tracer, out: &mut Outcome, accel_cfg: &MatRaptorConfig) {
    let one = Csr::<f64>::identity(1);
    let accel = Accelerator::new(accel_cfg.clone());
    let (core_us, core_ok) =
        median_us(t, "core", "Accelerator::try_run", 51, || accel.try_run(&one, &one).is_ok());
    out.put("core.fixed_us_per_run", core_us, "us");

    let arc = Arc::new(one);
    let mut cfg = ParallelConfig::small_test();
    cfg.accel = accel_cfg.clone();
    let (par_us, par_ok) = median_us(t, "service.parallel", "parallel::run", 11, || {
        let job = ParJob {
            id: 0,
            a: Arc::clone(&arc),
            b: Arc::clone(&arc),
            plan: None,
            deadline_cycles: u64::MAX,
        };
        parallel::run(cfg.clone(), vec![job]).is_ok_and(|r| r.records.len() == 1)
    });
    out.put("service.parallel.fixed_us_per_run", par_us, "us");

    let server_cfg = WireServerConfig::local(loose_service(accel_cfg.clone(), 1));
    let server = t.time("service.wire", "WireServer::start", None, || {
        WireServer::start(server_cfg, "127.0.0.1:0")
    });
    let mut wire_ok = false;
    if let Ok(server) = server {
        let addr = server.addr();
        let client = t.time("service.wire", "WireClient::connect", None, || {
            WireClient::connect(addr, RetryPolicy::default_local(), 1)
        });
        if let Ok(mut client) = client {
            let (ping_us, ok) =
                median_us(t, "service.wire", "WireClient::ping", 201, || client.ping().is_ok());
            out.put("service.wire.ping_p50_us", ping_us, "us");
            wire_ok = ok;
        }
        let shut = t.time("service.wire", "WireServer::shutdown", None, || server.shutdown());
        wire_ok &= shut.thread_panics == 0;
    }
    out.check("layer probes run clean", core_ok && par_ok && wire_ok);
}

/// Simulated memory traffic and the per-stage cycle attribution summed
/// over lanes and runs. Deterministic for a seed.
pub fn sim_counts<'a>(out: &mut Outcome, stats: impl Iterator<Item = &'a MatRaptorStats>) {
    let mut traffic = 0u64;
    let mut buckets = [[0u64; 4]; 4];
    for s in stats {
        traffic += s.traffic_read + s.traffic_written;
        for lane in &s.per_lane_attribution {
            for (acc, (_, b)) in buckets.iter_mut().zip(lane.stages()) {
                let add = [b.busy.get(), b.mem_stall.get(), b.queue_stall.get(), b.idle.get()];
                for (x, v) in acc.iter_mut().zip(add) {
                    *x += v;
                }
            }
        }
    }
    out.put("mem.traffic_bytes", traffic as f64, "bytes");
    for (stage, acc) in ["spal", "spbl", "pe", "writer"].iter().zip(buckets) {
        for (bucket, v) in ["busy", "mem_stall", "queue_stall", "idle"].iter().zip(acc) {
            out.put(format!("sim.{stage}.{bucket}"), v as f64, "cycles");
        }
    }
}

/// Per-layer self times and the trace's own accounting, from the spans.
/// Count and ratio metrics of layers a workload does not exercise (slices,
/// the fleet, the executor's counters) are reported as 0.
pub fn trace_summary(out: &mut Outcome) {
    let by_layer = trace::self_time_by_layer(&out.timelines);
    let wall = trace::root_ns(&out.timelines);
    for layer in LAYERS {
        let ns = by_layer.get(layer).copied().unwrap_or(0);
        out.put(format!("self_ms.{layer}"), ns as f64 / 1e6, "ms");
    }
    let attributed: u64 = by_layer.values().sum();
    out.check("layer self times add up to the traced wall time", attributed == wall);
    out.check(
        "every span belongs to a reported layer",
        by_layer.keys().all(|l| LAYERS.contains(l)),
    );
    let unattributed = by_layer.get(UNATTRIBUTED).copied().unwrap_or(0);
    out.put("trace.wall_ms", wall as f64 / 1e6, "ms");
    out.put("trace.unattributed_share", unattributed as f64 / wall.max(1) as f64, "ratio");
    out.put("trace.spans", out.timelines.iter().map(Vec::len).sum::<usize>() as f64, "count");
    out.put("trace.timelines", out.timelines.len() as f64, "count");
    for (name, unit) in crate::PER_LAYER {
        if out.get(name).is_none() && !matches!(unit, "ms" | "us" | "ns") {
            out.put(name, 0.0, unit);
        }
    }
}
