//! The TCP server: accept loop, per-connection framing threads, and the
//! engine thread that owns the deterministic [`Service`].
//!
//! ## Threading model
//!
//! [`Service`] is `!Send` (operands are `Rc`-shared), so the server never
//! moves it: a dedicated **engine thread** *constructs and owns* the
//! service and applies requests strictly in arrival order off an mpsc
//! channel. Connection threads do only transport work — framing,
//! checksums, taxonomy replies — and matrices cross the channel as plain
//! [`Csr`](matraptor_sparse::Csr) buffers (which are `Send`); the engine
//! wraps them in `Rc` at admission. A client that serializes its
//! operations therefore replays the simulated-time core bit-identically,
//! no matter how hostile the wire in between was.
//!
//! ## Hostile-wire posture
//!
//! * Per-read deadlines (`read_timeout_ms`) plus bounded *read budgets*
//!   ([`ReadBudget`]): a peer that stalls mid-frame or trickles one byte
//!   per deadline (slow-loris) exhausts its budget and is closed — no
//!   wall-clock state ever enters the service.
//! * Frame-size cap before allocation, connection cap at accept; both are
//!   explicit backpressure ([`RejectCode::FrameTooLarge`],
//!   [`RejectCode::Busy`]), not silent drops.
//! * Recoverable frame errors (checksum mismatch with the payload fully
//!   consumed, malformed payloads, unknown ops) get an error reply and
//!   the connection keeps serving; desynchronizing errors (bad magic,
//!   bad version, truncation, stalls) reply when addressable and close.
//! * [`shutdown`](WireServer::shutdown) drains gracefully: stop
//!   accepting, route a final drain through the engine (ordered after
//!   every in-flight request) so queued jobs finish or checkpoint via the
//!   core pause path, flush replies, then join every thread — counting
//!   panicked joins so a campaign can assert zero.

use std::io::Write;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::service::{DrainSummary, Service, ServiceConfig};
use crate::{JobRecord, JobSpec, Rejected, TenantId};

use super::frame::{
    decode_request, disposition_code, encode_frame, encode_response, read_frame, JobState, Op,
    RawFrame, ReadBudget, RejectCode, Request, Response, WireError,
};

/// Server tunables.
#[derive(Debug, Clone)]
pub struct WireServerConfig {
    /// The deterministic service the wire fronts.
    pub service: ServiceConfig,
    /// Hard cap on a frame's declared payload length, in bytes.
    pub max_frame_len: u32,
    /// Hard cap on concurrently served connections; excess connections
    /// get an explicit [`RejectCode::Busy`] reply and are closed.
    pub max_connections: u64,
    /// Per-`read(2)` deadline in milliseconds (clamped to ≥ 1).
    pub read_timeout_ms: u64,
    /// Read budget while waiting for a frame's first byte; the idle
    /// timeout is `idle_reads × read_timeout_ms`.
    pub idle_reads: u32,
    /// Read budget for the remainder of a frame once started; bounds
    /// stalls and slow-loris trickle.
    pub frame_reads: u32,
    /// Slice budget (cycles) each queued job gets at drain before being
    /// checkpointed through the core pause path.
    pub drain_slice_cycles: u64,
}

impl WireServerConfig {
    /// A loopback-friendly configuration over the given service config:
    /// 16 MiB frames, 32 connections, 25 ms read deadline, 40 idle reads
    /// (1 s idle timeout), 200 frame reads, 50k-cycle drain slices.
    pub fn local(service: ServiceConfig) -> Self {
        WireServerConfig {
            service,
            max_frame_len: super::frame::DEFAULT_MAX_FRAME_LEN,
            max_connections: 32,
            read_timeout_ms: 25,
            idle_reads: 40,
            frame_reads: 200,
            drain_slice_cycles: 50_000,
        }
    }
}

/// Monotonic wire counters, updated lock-free by connection threads.
#[derive(Debug, Default)]
struct WireCounters {
    accepted: AtomicU64,
    busy_rejected: AtomicU64,
    drain_rejected: AtomicU64,
    frames_ok: AtomicU64,
    replies_sent: AtomicU64,
    bad_magic: AtomicU64,
    bad_version: AtomicU64,
    bad_checksum: AtomicU64,
    frame_too_large: AtomicU64,
    truncated: AtomicU64,
    timed_out: AtomicU64,
    idle_closed: AtomicU64,
    malformed: AtomicU64,
    unknown_op: AtomicU64,
    clean_closed: AtomicU64,
    io_errors: AtomicU64,
}

/// A plain-data snapshot of the wire counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WireCountersSnapshot {
    /// Connections accepted and served.
    pub accepted: u64,
    /// Connections refused at the cap with [`RejectCode::Busy`].
    pub busy_rejected: u64,
    /// Connections refused with [`RejectCode::Draining`] because the
    /// server was draining when they arrived.
    pub drain_rejected: u64,
    /// Frames that passed every header/checksum check.
    pub frames_ok: u64,
    /// Reply frames successfully written.
    pub replies_sent: u64,
    /// Frames refused for bad magic.
    pub bad_magic: u64,
    /// Frames refused for a version mismatch.
    pub bad_version: u64,
    /// Frames refused for a checksum mismatch (connection kept).
    pub bad_checksum: u64,
    /// Frames refused for an over-cap declared length.
    pub frame_too_large: u64,
    /// Connections closed mid-frame by the peer.
    pub truncated: u64,
    /// Connections closed for exhausting the mid-frame read budget.
    pub timed_out: u64,
    /// Connections closed for exhausting the idle budget.
    pub idle_closed: u64,
    /// Payloads that failed to decode (connection kept).
    pub malformed: u64,
    /// Frames with unknown or reply-range ops (connection kept).
    pub unknown_op: u64,
    /// Connections the peer closed cleanly between frames.
    pub clean_closed: u64,
    /// Connections dropped on other I/O errors.
    pub io_errors: u64,
}

impl WireCounters {
    fn snapshot(&self) -> WireCountersSnapshot {
        WireCountersSnapshot {
            accepted: self.accepted.load(Ordering::Relaxed),
            busy_rejected: self.busy_rejected.load(Ordering::Relaxed),
            drain_rejected: self.drain_rejected.load(Ordering::Relaxed),
            frames_ok: self.frames_ok.load(Ordering::Relaxed),
            replies_sent: self.replies_sent.load(Ordering::Relaxed),
            bad_magic: self.bad_magic.load(Ordering::Relaxed),
            bad_version: self.bad_version.load(Ordering::Relaxed),
            bad_checksum: self.bad_checksum.load(Ordering::Relaxed),
            frame_too_large: self.frame_too_large.load(Ordering::Relaxed),
            truncated: self.truncated.load(Ordering::Relaxed),
            timed_out: self.timed_out.load(Ordering::Relaxed),
            idle_closed: self.idle_closed.load(Ordering::Relaxed),
            malformed: self.malformed.load(Ordering::Relaxed),
            unknown_op: self.unknown_op.load(Ordering::Relaxed),
            clean_closed: self.clean_closed.load(Ordering::Relaxed),
            io_errors: self.io_errors.load(Ordering::Relaxed),
        }
    }
}

/// What [`WireServer::shutdown`] hands back: the graceful-drain outcome,
/// the join census, and the final wire counters.
#[derive(Debug, Clone)]
pub struct WireShutdown {
    /// Jobs the final drain ran to completion (accelerator + CPU).
    pub drained_completed: u64,
    /// Jobs the final drain checkpointed through the core pause path.
    pub drained_checkpointed: u64,
    /// Jobs whose drain slice hit their deadline.
    pub drained_deadline_exceeded: u64,
    /// Jobs whose drain attempt faulted.
    pub drained_failed: u64,
    /// FNV-1a-64 fingerprints of the serialized drain checkpoints, in
    /// dispatch order — a strict campaign pins these across re-runs.
    pub checkpoint_fingerprints: Vec<u64>,
    /// Jobs accepted over the connection's lifetime.
    pub jobs_accepted: u64,
    /// Jobs resolved (any disposition) by engine exit.
    pub jobs_resolved: u64,
    /// Threads whose join reported a panic. The campaign gate requires 0.
    pub thread_panics: u64,
    /// Final wire counters.
    pub counters: WireCountersSnapshot,
}

/// One request crossing from a connection thread to the engine thread.
struct EngineCall {
    req: Request,
    reply: mpsc::Sender<Response>,
}

impl std::fmt::Debug for EngineCall {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineCall").finish_non_exhaustive()
    }
}

/// What the engine thread reports when its channel closes.
#[derive(Debug, Clone, Default)]
struct EngineFinal {
    drain: Option<DrainLite>,
    jobs_accepted: u64,
    jobs_resolved: u64,
}

/// Plain-data drain outcome (the engine caches it so repeat drain ops
/// answer consistently).
#[derive(Debug, Clone, Default)]
struct DrainLite {
    completed: u64,
    checkpointed: u64,
    deadline_exceeded: u64,
    failed: u64,
    fingerprints: Vec<u64>,
}

impl DrainLite {
    fn from_summary(s: &DrainSummary) -> Self {
        DrainLite {
            completed: s.completed_accel.saturating_add(s.completed_cpu),
            checkpointed: s.checkpoints.len() as u64,
            deadline_exceeded: s.deadline_exceeded,
            failed: s.failed,
            fingerprints: s.checkpoints.iter().map(|c| c.fingerprint).collect(),
        }
    }

    fn report(&self) -> Response {
        Response::DrainReport {
            completed: self.completed,
            checkpointed: self.checkpointed,
            deadline_exceeded: self.deadline_exceeded,
            failed: self.failed,
        }
    }
}

/// [`Engine::record_at`] entry of a job that has not resolved.
const UNRESOLVED: usize = usize::MAX;

/// The engine: the single owner of the deterministic service.
struct Engine {
    service: Service,
    drain_slice_cycles: u64,
    /// Position in `service.records()` of each issued job's record,
    /// indexed by job id ([`UNRESOLVED`] until it resolves). The service
    /// numbers accepted jobs consecutively from 0, so the ids this engine
    /// issued are exactly `0..record_at.len()`. One word per job, where
    /// id-keyed ordered maps cost several: the table grows with every job
    /// a long-lived server has served.
    record_at: Vec<usize>,
    /// Issued jobs that have resolved.
    resolved: u64,
    /// Cursor into `service.records()` for incremental absorption.
    records_seen: usize,
    /// Set once a drain has run; submissions after it are refused.
    drained: Option<DrainLite>,
}

impl Engine {
    fn new(cfg: ServiceConfig, drain_slice_cycles: u64) -> Option<Engine> {
        let service = Service::new(cfg).ok()?;
        Some(Engine {
            service,
            drain_slice_cycles,
            record_at: Vec::new(),
            resolved: 0,
            records_seen: 0,
            drained: None,
        })
    }

    /// Indexes newly resolved records by job id.
    fn absorb(&mut self) {
        let records = self.service.records();
        for (at, r) in records.iter().enumerate().skip(self.records_seen) {
            let slot = usize::try_from(r.id.0).ok().and_then(|id| self.record_at.get_mut(id));
            if let Some(slot) = slot {
                if *slot == UNRESOLVED {
                    self.resolved += 1;
                }
                *slot = at;
            }
        }
        self.records_seen = records.len();
    }

    /// Whether this engine issued `job`.
    fn issued(&self, job: u64) -> bool {
        usize::try_from(job).is_ok_and(|id| id < self.record_at.len())
    }

    /// The record of `job`, once it has resolved.
    fn record(&self, job: u64) -> Option<&JobRecord> {
        let at = *self.record_at.get(usize::try_from(job).ok()?)?;
        self.service.records().get(at)
    }

    fn map_rejection(r: Rejected) -> Response {
        let code = match r {
            Rejected::QueueFull { .. } => RejectCode::QueueFull,
            Rejected::Quarantined { .. } => RejectCode::Quarantined,
            Rejected::InvalidShape { .. } => RejectCode::InvalidShape,
            Rejected::UnknownTenant { .. } => RejectCode::UnknownTenant,
        };
        Response::Error { code, detail: r.to_string() }
    }

    fn handle(&mut self, req: Request) -> Response {
        match req {
            Request::Submit { tenant, a, b } => {
                if self.drained.is_some() {
                    return Response::Error {
                        code: RejectCode::Draining,
                        detail: "server is draining; no new submissions".to_string(),
                    };
                }
                let spec = JobSpec {
                    tenant: TenantId(tenant as usize),
                    a: Rc::new(a),
                    b: Rc::new(b),
                    plan: None,
                };
                match self.service.submit(spec) {
                    Ok(id) => {
                        debug_assert_eq!(id.0, self.record_at.len() as u64, "job ids are dense");
                        self.record_at.push(UNRESOLVED);
                        Response::Submitted { job: id.0 }
                    }
                    Err(r) => Self::map_rejection(r),
                }
            }
            Request::Poll { job } => {
                self.absorb();
                if !self.issued(job) {
                    return Response::Error {
                        code: RejectCode::UnknownJob,
                        detail: format!("job {job} was never issued"),
                    };
                }
                // Drive the service forward (in submission-stream order)
                // until the polled job resolves or the queue empties; every
                // record absorbed along the way answers later polls.
                while self.record(job).is_none() {
                    if self.service.step().is_none() {
                        break;
                    }
                    self.absorb();
                }
                match self.record(job) {
                    Some(r) => Response::Status {
                        job,
                        state: JobState::Resolved {
                            disposition: disposition_code(r.disposition),
                            attempts: r.attempts,
                            finished_at: r.finished_at.0,
                        },
                    },
                    None => Response::Status { job, state: JobState::Queued },
                }
            }
            Request::Cancel { job } => {
                self.absorb();
                if !self.issued(job) {
                    return Response::Error {
                        code: RejectCode::UnknownJob,
                        detail: format!("job {job} was never issued"),
                    };
                }
                let ok = self.service.cancel(crate::JobId(job)).is_some();
                self.absorb();
                Response::CancelResult { job, ok }
            }
            Request::Drain => {
                if let Some(d) = &self.drained {
                    return d.report();
                }
                let summary = self.service.drain(self.drain_slice_cycles);
                self.absorb();
                let lite = DrainLite::from_summary(&summary);
                let report = lite.report();
                self.drained = Some(lite);
                report
            }
            Request::Ping => Response::Pong,
        }
    }

    fn finish(mut self) -> EngineFinal {
        self.absorb();
        EngineFinal {
            drain: self.drained,
            jobs_accepted: self.record_at.len() as u64,
            jobs_resolved: self.resolved,
        }
    }
}

/// Shared state between the accept loop, connection threads, and the
/// owning [`WireServer`].
#[derive(Debug)]
struct Shared {
    stop: AtomicBool,
    /// Raised by [`WireServer::begin_drain`] (and shutdown): the engine
    /// refuses new submissions, and the accept loop answers every new
    /// connection with an explicit [`RejectCode::Draining`] reply instead
    /// of serving (or silently dropping) it.
    draining: AtomicBool,
    live: AtomicU64,
    counters: WireCounters,
    /// Clones of every served stream, so shutdown can unblock reads.
    streams: Mutex<Vec<TcpStream>>,
    /// Join handles of every connection thread.
    conn_handles: Mutex<Vec<JoinHandle<()>>>,
}

/// The running server. Dropping it without [`shutdown`](Self::shutdown)
/// leaks the listener thread; campaigns and tests should always shut
/// down.
#[derive(Debug)]
pub struct WireServer {
    addr: SocketAddr,
    shared: Arc<Shared>,
    cfg_max_frame_len: u32,
    accept_handle: Option<JoinHandle<()>>,
    engine_handle: Option<JoinHandle<EngineFinal>>,
    engine_tx: mpsc::Sender<EngineCall>,
}

impl WireServer {
    /// Binds `addr` (e.g. `"127.0.0.1:0"`) and starts serving.
    pub fn start(cfg: WireServerConfig, addr: &str) -> std::io::Result<WireServer> {
        if cfg.service.tenants.is_empty() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "service config has no tenants",
            ));
        }
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let shared = Arc::new(Shared {
            stop: AtomicBool::new(false),
            draining: AtomicBool::new(false),
            live: AtomicU64::new(0),
            counters: WireCounters::default(),
            streams: Mutex::new(Vec::new()),
            conn_handles: Mutex::new(Vec::new()),
        });

        let (engine_tx, engine_rx) = mpsc::channel::<EngineCall>();
        let service_cfg = cfg.service.clone();
        let drain_slice = cfg.drain_slice_cycles;
        let engine_handle = std::thread::Builder::new()
            .name("wire-engine".to_string())
            .spawn(move || engine_main(service_cfg, drain_slice, engine_rx))?;

        let accept_shared = Arc::clone(&shared);
        let accept_tx = engine_tx.clone();
        let accept_cfg = ConnLimits {
            max_frame_len: cfg.max_frame_len,
            max_connections: cfg.max_connections.max(1),
            read_timeout_ms: cfg.read_timeout_ms.max(1),
            budget: ReadBudget {
                idle_reads: cfg.idle_reads.max(1),
                frame_reads: cfg.frame_reads.max(1),
            },
        };
        let accept_handle = std::thread::Builder::new()
            .name("wire-accept".to_string())
            .spawn(move || accept_main(listener, accept_shared, accept_tx, accept_cfg))?;

        Ok(WireServer {
            addr: local,
            shared,
            cfg_max_frame_len: cfg.max_frame_len,
            accept_handle: Some(accept_handle),
            engine_handle: Some(engine_handle),
            engine_tx,
        })
    }

    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A live snapshot of the wire counters.
    pub fn counters(&self) -> WireCountersSnapshot {
        self.shared.counters.snapshot()
    }

    /// Enters the draining state without tearing the server down: routes
    /// a drain through the engine (ordered after every in-flight request;
    /// queued jobs finish or checkpoint through the core pause path) and
    /// flips the accept loop into refusal mode, so every connection
    /// arriving from here on gets an explicit [`RejectCode::Draining`]
    /// reply — a retrying client sees the taxonomy, not a hang, a
    /// silent drop, or [`RejectCode::Busy`]. Idempotent: the engine
    /// caches the first drain's report. Returns the drain report, or
    /// `None` if the engine is already gone.
    pub fn begin_drain(&self) -> Option<Response> {
        self.shared.draining.store(true, Ordering::SeqCst);
        let (reply_tx, reply_rx) = mpsc::channel();
        self.engine_tx.send(EngineCall { req: Request::Drain, reply: reply_tx }).ok()?;
        reply_rx.recv().ok()
    }

    /// Graceful drain and teardown: stop accepting, run the core drain
    /// (finishing or checkpointing every queued job), flush replies, join
    /// every thread, and report the census.
    pub fn shutdown(mut self) -> WireShutdown {
        self.shared.draining.store(true, Ordering::SeqCst);
        self.shared.stop.store(true, Ordering::SeqCst);

        // Wake the accept loop with a throwaway connection; it observes
        // the stop flag and exits, closing the listener.
        if let Ok(s) = TcpStream::connect(self.addr) {
            drop(s);
        }
        let mut thread_panics = 0u64;
        if let Some(h) = self.accept_handle.take() {
            if h.join().is_err() {
                thread_panics = thread_panics.saturating_add(1);
            }
        }

        // Route the final drain through the engine channel so it is
        // ordered after every request already in flight; replies to those
        // requests flush before the drain runs.
        let (reply_tx, reply_rx) = mpsc::channel();
        let mut drain_report = None;
        if self.engine_tx.send(EngineCall { req: Request::Drain, reply: reply_tx }).is_ok() {
            if let Ok(resp) = reply_rx.recv() {
                drain_report = Some(resp);
            }
        }

        // Unblock every connection thread and join them.
        if let Ok(streams) = self.shared.streams.lock() {
            for s in streams.iter() {
                let _ = s.shutdown(Shutdown::Both);
            }
        }
        let handles = match self.shared.conn_handles.lock() {
            Ok(mut guard) => std::mem::take(&mut *guard),
            Err(_) => Vec::new(),
        };
        for h in handles {
            if h.join().is_err() {
                thread_panics = thread_panics.saturating_add(1);
            }
        }

        // All senders dropped → the engine drains its queue and exits.
        drop(self.engine_tx);
        let engine_final = match self.engine_handle.take() {
            Some(h) => match h.join() {
                Ok(f) => f,
                Err(_) => {
                    thread_panics = thread_panics.saturating_add(1);
                    EngineFinal::default()
                }
            },
            None => EngineFinal::default(),
        };

        let drain = engine_final.drain.unwrap_or_default();
        let _ = (drain_report, self.cfg_max_frame_len);
        WireShutdown {
            drained_completed: drain.completed,
            drained_checkpointed: drain.checkpointed,
            drained_deadline_exceeded: drain.deadline_exceeded,
            drained_failed: drain.failed,
            checkpoint_fingerprints: drain.fingerprints,
            jobs_accepted: engine_final.jobs_accepted,
            jobs_resolved: engine_final.jobs_resolved,
            thread_panics,
            counters: self.shared.counters.snapshot(),
        }
    }
}

/// Connection-level limits handed to each serving thread.
#[derive(Debug, Clone, Copy)]
struct ConnLimits {
    max_frame_len: u32,
    max_connections: u64,
    read_timeout_ms: u64,
    budget: ReadBudget,
}

/// Runs the engine thread: builds the service in place (it is `!Send`)
/// and applies calls in arrival order.
fn engine_main(
    cfg: ServiceConfig,
    drain_slice_cycles: u64,
    rx: mpsc::Receiver<EngineCall>,
) -> EngineFinal {
    let Some(mut engine) = Engine::new(cfg, drain_slice_cycles) else {
        // Pre-validated in `start`; if construction still fails, refuse
        // every call explicitly rather than going dark.
        while let Ok(call) = rx.recv() {
            let _ = call.reply.send(Response::Error {
                code: RejectCode::Busy,
                detail: "engine failed to construct service".to_string(),
            });
        }
        return EngineFinal::default();
    };
    while let Ok(call) = rx.recv() {
        let resp = engine.handle(call.req);
        let _ = call.reply.send(resp);
    }
    engine.finish()
}

/// Runs the accept loop until the stop flag is raised.
fn accept_main(
    listener: TcpListener,
    shared: Arc<Shared>,
    engine_tx: mpsc::Sender<EngineCall>,
    limits: ConnLimits,
) {
    loop {
        let (mut stream, _) = match listener.accept() {
            Ok(pair) => pair,
            Err(_) => {
                if shared.stop.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
        };
        if shared.stop.load(Ordering::SeqCst) {
            // Teardown in progress: answer the taxonomy before closing so
            // a peer that raced the shutdown sees Draining, not a silent
            // drop it would misread as a transport fault and retry. No
            // loitering — shutdown must stay prompt.
            reject_draining(&mut stream, &shared, false);
            return;
        }
        if shared.draining.load(Ordering::SeqCst) {
            // Draining but still alive: keep accepting so every retrying
            // peer gets the explicit refusal, and loiter long enough for
            // the reply to land before the close.
            reject_draining(&mut stream, &shared, true);
            continue;
        }
        if shared.live.load(Ordering::SeqCst) >= limits.max_connections {
            shared.counters.busy_rejected.fetch_add(1, Ordering::Relaxed);
            let resp = Response::Error {
                code: RejectCode::Busy,
                detail: "connection cap reached".to_string(),
            };
            let bytes = encode_frame(Op::Error, 0, &encode_response(&resp));
            let _ = stream.write_all(&bytes);
            let _ = stream.shutdown(Shutdown::Both);
            continue;
        }
        shared.live.fetch_add(1, Ordering::SeqCst);
        shared.counters.accepted.fetch_add(1, Ordering::Relaxed);
        if let Ok(clone) = stream.try_clone() {
            if let Ok(mut streams) = shared.streams.lock() {
                streams.push(clone);
            }
        }
        let conn_shared = Arc::clone(&shared);
        let conn_tx = engine_tx.clone();
        let spawned = std::thread::Builder::new().name("wire-conn".to_string()).spawn(move || {
            serve_connection(stream, &conn_shared, &conn_tx, limits);
            conn_shared.live.fetch_sub(1, Ordering::SeqCst);
        });
        match spawned {
            Ok(handle) => {
                if let Ok(mut handles) = shared.conn_handles.lock() {
                    handles.push(handle);
                }
            }
            Err(_) => {
                shared.live.fetch_sub(1, Ordering::SeqCst);
            }
        }
    }
}

/// Writes an unsolicited (frame id 0) `Draining` reply and closes the
/// connection — the accept loop's refusal path while draining. With
/// `loiter`, the peer's pending bytes are consumed (bounded) before the
/// close: closing a socket with unread received data sends an RST, which
/// can destroy the reply still sitting in the peer's receive buffer.
fn reject_draining(stream: &mut TcpStream, shared: &Shared, loiter: bool) {
    shared.counters.drain_rejected.fetch_add(1, Ordering::Relaxed);
    let resp = Response::Error {
        code: RejectCode::Draining,
        detail: "server is draining; no new connections".to_string(),
    };
    let bytes = encode_frame(Op::Error, 0, &encode_response(&resp));
    let _ = stream.write_all(&bytes);
    let _ = stream.flush();
    if loiter {
        let _ = stream.set_read_timeout(Some(Duration::from_millis(50)));
        let mut sink = [0u8; 1024];
        for _ in 0..8 {
            match std::io::Read::read(stream, &mut sink) {
                Ok(0) => break,    // peer closed cleanly
                Ok(_) => continue, // discard whatever it sent
                Err(_) => break,   // timeout or reset — the peer had its window
            }
        }
    }
    let _ = stream.shutdown(Shutdown::Both);
}

/// Serves one connection until the peer closes, a desynchronizing error
/// occurs, or shutdown unblocks the read.
fn serve_connection(
    mut stream: TcpStream,
    shared: &Shared,
    engine_tx: &mpsc::Sender<EngineCall>,
    limits: ConnLimits,
) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(limits.read_timeout_ms)));
    let _ = stream.set_nodelay(true);
    let counters = &shared.counters;
    loop {
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        match read_frame(&mut stream, limits.max_frame_len, limits.budget) {
            Ok(raw) => {
                counters.frames_ok.fetch_add(1, Ordering::Relaxed);
                if !handle_frame(&mut stream, shared, engine_tx, &raw) {
                    return;
                }
            }
            Err((frame_id, err)) => {
                let keep = classify_and_reply(&mut stream, counters, frame_id, &err);
                if !keep {
                    let _ = stream.shutdown(Shutdown::Both);
                    return;
                }
            }
        }
    }
}

/// Decodes and executes one verified frame; returns `false` when the
/// connection should close.
fn handle_frame(
    stream: &mut TcpStream,
    shared: &Shared,
    engine_tx: &mpsc::Sender<EngineCall>,
    raw: &RawFrame,
) -> bool {
    let counters = &shared.counters;
    let req = match decode_request(raw) {
        Ok(req) => req,
        Err(err) => {
            // The frame was fully consumed and checksum-verified, so the
            // stream stays in sync: reply and keep serving.
            match err {
                WireError::UnknownOp { .. } => counters.unknown_op.fetch_add(1, Ordering::Relaxed),
                _ => counters.malformed.fetch_add(1, Ordering::Relaxed),
            };
            let code = err.reject_code().unwrap_or(RejectCode::Malformed);
            return write_reply(
                stream,
                counters,
                raw.frame_id,
                &Response::Error { code, detail: err.to_string() },
            );
        }
    };
    let (reply_tx, reply_rx) = mpsc::channel();
    if engine_tx.send(EngineCall { req, reply: reply_tx }).is_err() {
        // Engine gone: the server is past drain — refuse explicitly,
        // then close.
        let resp =
            Response::Error { code: RejectCode::Draining, detail: "engine stopped".to_string() };
        let _ = write_reply(stream, counters, raw.frame_id, &resp);
        return false;
    }
    let Ok(resp) = reply_rx.recv() else {
        return false;
    };
    write_reply(stream, counters, raw.frame_id, &resp)
}

/// Maps a read error onto the taxonomy: bumps its counter, writes the
/// reply when one is addressable, and decides whether the stream is still
/// usable. Only a checksum mismatch keeps the connection (its payload was
/// fully consumed, so framing is still in sync).
fn classify_and_reply(
    stream: &mut TcpStream,
    counters: &WireCounters,
    frame_id: Option<u64>,
    err: &WireError,
) -> bool {
    let counter = match err {
        WireError::BadMagic { .. } => &counters.bad_magic,
        WireError::BadVersion { .. } => &counters.bad_version,
        WireError::ChecksumMismatch { .. } => &counters.bad_checksum,
        WireError::FrameTooLarge { .. } => &counters.frame_too_large,
        WireError::Truncated { .. } => &counters.truncated,
        WireError::TimedOut => &counters.timed_out,
        WireError::IdleExpired => &counters.idle_closed,
        WireError::Closed => &counters.clean_closed,
        WireError::Malformed { .. } | WireError::UnknownOp { .. } => &counters.malformed,
        WireError::Io(_) => &counters.io_errors,
    };
    counter.fetch_add(1, Ordering::Relaxed);
    if let Some(code) = err.reject_code() {
        let resp = Response::Error { code, detail: err.to_string() };
        let _ = write_reply(stream, counters, frame_id.unwrap_or(0), &resp);
    }
    matches!(err, WireError::ChecksumMismatch { .. })
}

/// Writes one reply frame; returns `false` when the write failed (the
/// connection is unusable).
fn write_reply(
    stream: &mut TcpStream,
    counters: &WireCounters,
    frame_id: u64,
    resp: &Response,
) -> bool {
    let bytes = encode_frame(resp.op(), frame_id, &encode_response(resp));
    match stream.write_all(&bytes).and_then(|()| stream.flush()) {
        Ok(()) => {
            counters.replies_sent.fetch_add(1, Ordering::Relaxed);
            true
        }
        Err(_) => {
            counters.io_errors.fetch_add(1, Ordering::Relaxed);
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::client::{RetryPolicy, WireClient};
    use matraptor_sparse::gen;

    fn local_server() -> WireServer {
        let cfg = WireServerConfig::local(ServiceConfig::small_test());
        WireServer::start(cfg, "127.0.0.1:0").expect("bind loopback")
    }

    #[test]
    fn submit_poll_roundtrip_over_loopback() {
        let server = local_server();
        let mut client =
            WireClient::connect(server.addr(), RetryPolicy::default_local(), 7).expect("connect");
        let a = gen::uniform(24, 24, 120, 11);
        let b = gen::uniform(24, 24, 120, 12);
        let job = match client.submit(0, &a, &b).expect("submit") {
            Response::Submitted { job } => job,
            other => panic!("expected Submitted, got {other:?}"),
        };
        match client.poll(job).expect("poll") {
            Response::Status { job: j, state: JobState::Resolved { disposition, .. } } => {
                assert_eq!(j, job);
                assert_eq!(disposition, 0, "small clean job completes on the accelerator");
            }
            other => panic!("expected resolved status, got {other:?}"),
        }
        let down = server.shutdown();
        assert_eq!(down.thread_panics, 0);
        assert_eq!(down.jobs_accepted, 1);
        assert_eq!(down.jobs_resolved, 1);
    }

    #[test]
    fn unknown_job_and_cancel_taxonomy() {
        let server = local_server();
        let mut client =
            WireClient::connect(server.addr(), RetryPolicy::default_local(), 8).expect("connect");
        match client.poll(999).expect("poll") {
            Response::Error { code, .. } => assert_eq!(code, RejectCode::UnknownJob),
            other => panic!("expected UnknownJob, got {other:?}"),
        }
        let a = gen::uniform(16, 16, 60, 21);
        let b = gen::uniform(16, 16, 60, 22);
        let job = match client.submit(1, &a, &b).expect("submit") {
            Response::Submitted { job } => job,
            other => panic!("expected Submitted, got {other:?}"),
        };
        // Issued ids are exactly 0..=job: the next id and the largest are
        // unknown.
        for never in [job + 1, u64::MAX] {
            match client.poll(never).expect("poll") {
                Response::Error { code, .. } => assert_eq!(code, RejectCode::UnknownJob),
                other => panic!("expected UnknownJob for {never}, got {other:?}"),
            }
        }
        match client.cancel(job).expect("cancel") {
            Response::CancelResult { ok, .. } => assert!(ok, "queued job cancels"),
            other => panic!("expected CancelResult, got {other:?}"),
        }
        match client.cancel(job).expect("cancel again") {
            Response::CancelResult { ok, .. } => assert!(!ok, "already-resolved job cannot"),
            other => panic!("expected CancelResult, got {other:?}"),
        }
        assert_eq!(server.shutdown().thread_panics, 0);
    }

    #[test]
    fn drain_refuses_later_submissions_and_shutdown_reports_it() {
        let server = local_server();
        let mut client =
            WireClient::connect(server.addr(), RetryPolicy::default_local(), 9).expect("connect");
        let a = gen::uniform(16, 16, 60, 31);
        let b = gen::uniform(16, 16, 60, 32);
        for _ in 0..3 {
            match client.submit(0, &a, &b).expect("submit") {
                Response::Submitted { .. } => {}
                other => panic!("expected Submitted, got {other:?}"),
            }
        }
        let report = client.drain().expect("drain");
        let drained = match report {
            Response::DrainReport { completed, checkpointed, deadline_exceeded, failed } => {
                completed + checkpointed + deadline_exceeded + failed
            }
            other => panic!("expected DrainReport, got {other:?}"),
        };
        assert_eq!(drained, 3, "every queued job is accounted for at drain");
        match client.submit(0, &a, &b).expect("submit after drain") {
            Response::Error { code, .. } => assert_eq!(code, RejectCode::Draining),
            other => panic!("expected Draining, got {other:?}"),
        }
        let down = server.shutdown();
        assert_eq!(down.thread_panics, 0);
        assert_eq!(
            down.drained_completed
                + down.drained_checkpointed
                + down.drained_deadline_exceeded
                + down.drained_failed,
            3
        );
    }

    #[test]
    fn reconnecting_into_a_draining_server_receives_draining_not_busy() {
        let server = local_server();
        let mut live =
            WireClient::connect(server.addr(), RetryPolicy::default_local(), 14).expect("connect");
        let a = gen::uniform(16, 16, 60, 51);
        let b = gen::uniform(16, 16, 60, 52);
        match live.submit(0, &a, &b).expect("submit") {
            Response::Submitted { .. } => {}
            other => panic!("expected Submitted, got {other:?}"),
        }
        let report = server.begin_drain().expect("engine alive");
        assert!(matches!(report, Response::DrainReport { .. }), "got {report:?}");
        // A client reconnecting into the drain window must see the
        // Draining taxonomy on its first retried op — not Busy, and not
        // a silent drop it would grind into Exhausted.
        let mut retrying =
            WireClient::connect(server.addr(), RetryPolicy::default_local(), 15).expect("connect");
        match retrying.ping() {
            Ok(Response::Error { code, .. }) => assert_eq!(code, RejectCode::Draining),
            other => panic!("expected Draining, got {other:?}"),
        }
        // The already-connected client's next submit sees it too, via the
        // engine rather than the accept loop.
        match live.submit(0, &a, &b).expect("submit after drain") {
            Response::Error { code, .. } => assert_eq!(code, RejectCode::Draining),
            other => panic!("expected Draining, got {other:?}"),
        }
        let down = server.shutdown();
        assert_eq!(down.thread_panics, 0);
        assert!(down.counters.drain_rejected >= 1, "refusals are counted");
    }

    #[test]
    fn connection_cap_maps_to_busy_backpressure() {
        let mut cfg = WireServerConfig::local(ServiceConfig::small_test());
        cfg.max_connections = 1;
        let server = WireServer::start(cfg, "127.0.0.1:0").expect("bind");
        let mut first =
            WireClient::connect(server.addr(), RetryPolicy::default_local(), 1).expect("connect");
        assert!(matches!(first.ping().expect("ping"), Response::Pong));
        // The second connection must be refused with an explicit Busy
        // reply, not a silent drop.
        if let Ok(mut second) = WireClient::connect(server.addr(), RetryPolicy::no_retry(), 2) {
            match second.ping() {
                Ok(Response::Error { code, .. }) => assert_eq!(code, RejectCode::Busy),
                Err(_) => {}
                Ok(other) => panic!("expected Busy, got {other:?}"),
            }
        }
        assert_eq!(server.shutdown().thread_panics, 0);
    }
}
