//! The TCP server: accept loop and per-connection framing threads that
//! run their requests on the deterministic [`Service`] under one lock.
//!
//! ## Threading model
//!
//! The server's service is a `Service<Arc<Csr<f64>>>`, which is `Send`:
//! one [`Mutex`] holds it, and each connection thread decodes its frame,
//! takes the lock, applies the request, releases the lock, and only then
//! writes the reply — no socket I/O happens under the lock. Requests
//! apply strictly in lock order, so a client that serializes its
//! operations replays the simulated-time core bit-identically, no matter
//! how hostile the wire in between was. A request that panics inside the
//! service poisons the lock; from then on the engine is gone, and every
//! request gets an explicit [`RejectCode::Draining`] reply and a close.
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
//! * A finished connection gives back its descriptor and thread at once:
//!   its thread drops its stream clone on exit, and the accept loop joins
//!   finished threads, so a long-lived server holds only live peers.
//! * [`shutdown`](WireServer::shutdown) drains gracefully: stop
//!   accepting, run a final drain under the lock (ordered after every
//!   request that took it first) so queued jobs finish or checkpoint via
//!   the core pause path, flush replies, then join every thread —
//!   counting panicked joins so a campaign can assert zero.

use std::io::Write;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use matraptor_sparse::Csr;

use crate::service::{DrainSummary, Service, ServiceConfig};
use crate::{JobId, JobSpec, Rejected, Resolution, TenantId};

use super::frame::{
    begin_frame, decode_request, disposition_code, encode_frame, encode_response,
    encode_response_into, finish_frame, read_frame_into, JobState, Op, RawFrame, ReadBudget,
    RejectCode, Request, Response, WireError, DEFAULT_MAX_FRAME_LEN,
};

/// Server tunables.
#[derive(Debug, Clone)]
pub struct WireServerConfig {
    /// The deterministic service the wire fronts.
    pub service: ServiceConfig,
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
    /// 32 connections, 25 ms read deadline, 40 idle reads
    /// (1 s idle timeout), 200 frame reads, 50k-cycle drain slices.
    pub fn local(service: ServiceConfig) -> Self {
        WireServerConfig {
            service,
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
    /// Jobs resolved (any disposition) by shutdown.
    pub jobs_resolved: u64,
    /// Threads whose join reported a panic. The campaign gate requires 0.
    pub thread_panics: u64,
    /// Final wire counters.
    pub counters: WireCountersSnapshot,
}

/// The wire reply for a drain's outcome.
fn drain_report(s: &DrainSummary) -> Response {
    Response::DrainReport {
        completed: s.completed_accel.saturating_add(s.completed_cpu),
        checkpointed: s.checkpoints.len() as u64,
        deadline_exceeded: s.deadline_exceeded,
        failed: s.failed,
    }
}

/// The engine: the deterministic service and the wire's drain state,
/// shared by every connection thread behind [`Shared::engine`].
#[derive(Debug)]
struct Engine {
    service: Service<Arc<Csr<f64>>>,
    drain_slice_cycles: u64,
    /// The first drain's outcome, which repeat drains report; once it is
    /// set, submissions are refused.
    drained: Option<DrainSummary>,
}

/// Connection threads take turns running the engine, so its service must
/// be `Send`: an `Rc` creeping back into it fails the build here.
const _: fn() = || {
    fn send<T: Send>() {}
    send::<Service<Arc<Csr<f64>>>>();
};

impl Engine {
    /// Whether this engine issued `job`: the service numbers accepted
    /// jobs consecutively from 0.
    fn issued(&self, job: u64) -> bool {
        job < self.service.fleet().counters().accepted
    }

    /// How `job` resolved, once it has.
    fn resolution(&self, job: u64) -> Option<Resolution> {
        self.service.fleet().resolution(JobId(job))
    }

    fn map_rejection(r: Rejected) -> Response {
        let code = match r {
            Rejected::QueueFull { .. } => RejectCode::QueueFull,
            Rejected::Quarantined { .. } => RejectCode::Quarantined,
            Rejected::InvalidShape { .. } => RejectCode::InvalidShape,
            Rejected::UnknownTenant { .. } => RejectCode::UnknownTenant,
            Rejected::InvalidOperand { .. } => RejectCode::Malformed,
        };
        Response::Error { code, detail: r.to_string() }
    }

    /// Applies `req`, then drops the records it resolved: a Poll answers
    /// from the fleet's resolution table, so the engine keeps 16 bytes of
    /// every job it has served and no full record.
    fn handle(&mut self, req: Request) -> Response {
        let resp = self.apply(req);
        drop(self.service.fleet_mut().take_records());
        resp
    }

    fn apply(&mut self, req: Request) -> Response {
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
                    a: Arc::new(a),
                    b: Arc::new(b),
                    plan: None,
                };
                match self.service.submit(spec) {
                    Ok(id) => Response::Submitted { job: id.0 },
                    Err(r) => Self::map_rejection(r),
                }
            }
            Request::Poll { job } => {
                if !self.issued(job) {
                    return Response::Error {
                        code: RejectCode::UnknownJob,
                        detail: format!("job {job} was never issued"),
                    };
                }
                // Drive the service forward (in submission-stream order)
                // until the polled job resolves or the queue empties; every
                // job resolved along the way answers later polls from the
                // resolution table.
                while self.resolution(job).is_none() {
                    if self.service.step().is_none() {
                        break;
                    }
                }
                match self.resolution(job) {
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
                if !self.issued(job) {
                    return Response::Error {
                        code: RejectCode::UnknownJob,
                        detail: format!("job {job} was never issued"),
                    };
                }
                let ok = self.service.fleet_mut().cancel(JobId(job)).is_some();
                Response::CancelResult { job, ok }
            }
            Request::Drain => {
                let (service, slice) = (&mut self.service, self.drain_slice_cycles);
                drain_report(self.drained.get_or_insert_with(|| service.fleet_mut().drain(slice)))
            }
            Request::Ping => Response::Pong,
        }
    }
}

/// Shared state between the accept loop, connection threads, and the
/// owning [`WireServer`].
#[derive(Debug)]
struct Shared {
    stop: AtomicBool,
    /// Raised by [`WireServer::begin_drain`] (and shutdown): the accept
    /// loop answers every new connection with an explicit
    /// [`RejectCode::Draining`] reply instead of serving (or silently
    /// dropping) it.
    draining: AtomicBool,
    live: AtomicU64,
    counters: WireCounters,
    /// The engine. Poisoned once a request panicked inside it: the engine
    /// is gone.
    engine: Mutex<Engine>,
    /// A clone of every live served stream, keyed by connection id, so
    /// shutdown can unblock reads. A connection thread removes its own on
    /// exit.
    streams: Mutex<Vec<(u64, TcpStream)>>,
    /// Join handles of connection threads the accept loop has not yet
    /// found finished.
    conn_handles: Mutex<Vec<JoinHandle<()>>>,
}

impl Shared {
    /// Gives back connection `conn`'s stream clone and its live slot.
    fn release(&self, conn: u64) {
        if let Ok(mut streams) = self.streams.lock() {
            streams.retain(|(id, _)| *id != conn);
        }
        self.live.fetch_sub(1, Ordering::SeqCst);
    }
}

/// The running server. Dropping it without [`shutdown`](Self::shutdown)
/// leaks the listener thread; campaigns and tests should always shut
/// down.
#[derive(Debug)]
pub struct WireServer {
    addr: SocketAddr,
    shared: Arc<Shared>,
    /// The accept loop; it returns how many connection threads it joined
    /// that had panicked.
    accept_handle: Option<JoinHandle<u64>>,
}

impl WireServer {
    /// Binds `addr` (e.g. `"127.0.0.1:0"`) and starts serving. Fails with
    /// [`InvalidInput`](std::io::ErrorKind::InvalidInput) when the service
    /// configuration is refused (no tenants, invalid accelerator).
    pub fn start(cfg: WireServerConfig, addr: &str) -> std::io::Result<WireServer> {
        let service = Service::new(cfg.service)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidInput, e))?;
        let engine = Engine { service, drain_slice_cycles: cfg.drain_slice_cycles, drained: None };
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let shared = Arc::new(Shared {
            stop: AtomicBool::new(false),
            draining: AtomicBool::new(false),
            live: AtomicU64::new(0),
            counters: WireCounters::default(),
            engine: Mutex::new(engine),
            streams: Mutex::new(Vec::new()),
            conn_handles: Mutex::new(Vec::new()),
        });

        let accept_shared = Arc::clone(&shared);
        let accept_cfg = ConnLimits {
            max_connections: cfg.max_connections.max(1),
            read_timeout_ms: cfg.read_timeout_ms.max(1),
            budget: ReadBudget {
                idle_reads: cfg.idle_reads.max(1),
                frame_reads: cfg.frame_reads.max(1),
            },
        };
        let accept_handle = std::thread::Builder::new()
            .name("wire-accept".to_string())
            .spawn(move || accept_main(listener, &accept_shared, accept_cfg))?;

        Ok(WireServer { addr: local, shared, accept_handle: Some(accept_handle) })
    }

    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A live snapshot of the wire counters.
    pub fn counters(&self) -> WireCountersSnapshot {
        self.shared.counters.snapshot()
    }

    /// Enters the draining state without tearing the server down: runs a
    /// drain under the engine lock (ordered after every request that took
    /// the lock first; queued jobs finish or checkpoint through the core
    /// pause path, and later submissions are refused) and flips the
    /// accept loop into refusal mode, so every connection arriving from
    /// here on gets an explicit [`RejectCode::Draining`] reply — a
    /// retrying client sees the taxonomy, not a hang, a silent drop, or
    /// [`RejectCode::Busy`]. Idempotent: the engine caches the first
    /// drain's report. Returns the drain report, or `None` if the engine
    /// is gone.
    pub fn begin_drain(&self) -> Option<Response> {
        self.shared.draining.store(true, Ordering::SeqCst);
        self.shared.engine.lock().ok().map(|mut engine| engine.handle(Request::Drain))
    }

    /// Graceful drain and teardown: stop accepting, run the core drain
    /// (finishing or checkpointing every queued job), flush replies, join
    /// every thread, and report the census.
    pub fn shutdown(mut self) -> WireShutdown {
        self.shared.stop.store(true, Ordering::SeqCst);

        // Wake the accept loop with a throwaway connection; it observes
        // the stop flag and exits, closing the listener.
        if let Ok(s) = TcpStream::connect(self.addr) {
            drop(s);
        }
        let mut thread_panics = 0u64;
        if let Some(h) = self.accept_handle.take() {
            thread_panics = thread_panics.saturating_add(h.join().unwrap_or(1));
        }

        // The final drain; replies to requests already past the lock
        // flush on their own threads.
        let _ = self.begin_drain();

        // Unblock every connection thread and join them.
        if let Ok(streams) = self.shared.streams.lock() {
            for (_, s) in streams.iter() {
                let _ = s.shutdown(Shutdown::Both);
            }
        }
        let handles = self.shared.conn_handles.lock().map(|mut h| std::mem::take(&mut *h));
        let joined = join_counting_panics(handles.unwrap_or_default().into_iter());
        thread_panics = thread_panics.saturating_add(joined);

        let (drain, jobs_accepted, jobs_resolved) = match self.shared.engine.lock() {
            Ok(engine) => {
                let fleet = engine.service.fleet();
                (
                    engine.drained.clone().unwrap_or_default(),
                    fleet.counters().accepted,
                    fleet.resolved(),
                )
            }
            Err(_) => (DrainSummary::default(), 0, 0),
        };
        WireShutdown {
            drained_completed: drain.completed_accel.saturating_add(drain.completed_cpu),
            drained_checkpointed: drain.checkpoints.len() as u64,
            drained_deadline_exceeded: drain.deadline_exceeded,
            drained_failed: drain.failed,
            checkpoint_fingerprints: drain.checkpoints.iter().map(|c| c.fingerprint).collect(),
            jobs_accepted,
            jobs_resolved,
            thread_panics,
            counters: self.shared.counters.snapshot(),
        }
    }
}

/// Connection-level limits handed to each serving thread.
#[derive(Debug, Clone, Copy)]
struct ConnLimits {
    max_connections: u64,
    read_timeout_ms: u64,
    budget: ReadBudget,
}

/// Joins `handles` and returns how many of their threads had panicked.
fn join_counting_panics(handles: impl Iterator<Item = JoinHandle<()>>) -> u64 {
    handles.map(JoinHandle::join).filter(Result::is_err).count() as u64
}

/// Runs the accept loop until the stop flag is raised; returns how many
/// of the connection threads it joined had panicked.
fn accept_main(listener: TcpListener, shared: &Arc<Shared>, limits: ConnLimits) -> u64 {
    let mut panics = 0u64;
    loop {
        let (mut stream, _) = match listener.accept() {
            Ok(pair) => pair,
            Err(_) => {
                if shared.stop.load(Ordering::SeqCst) {
                    return panics;
                }
                continue;
            }
        };
        if shared.stop.load(Ordering::SeqCst) {
            // Teardown in progress: answer the taxonomy before closing so
            // a peer that raced the shutdown sees Draining, not a silent
            // drop it would misread as a transport fault and retry. No
            // loitering — shutdown must stay prompt.
            reject_draining(&mut stream, shared, false);
            return panics;
        }
        if shared.draining.load(Ordering::SeqCst) {
            // Draining but still alive: keep accepting so every retrying
            // peer gets the explicit refusal, and loiter long enough for
            // the reply to land before the close.
            reject_draining(&mut stream, shared, true);
            continue;
        }
        if let Ok(mut handles) = shared.conn_handles.lock() {
            let finished = handles.extract_if(.., |h| h.is_finished());
            panics = panics.saturating_add(join_counting_panics(finished));
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
        let conn = shared.counters.accepted.fetch_add(1, Ordering::Relaxed);
        if let Ok(clone) = stream.try_clone() {
            if let Ok(mut streams) = shared.streams.lock() {
                streams.push((conn, clone));
            }
        }
        let conn_shared = Arc::clone(shared);
        let spawned = std::thread::Builder::new().name("wire-conn".to_string()).spawn(move || {
            serve_connection(stream, &conn_shared, limits);
            conn_shared.release(conn);
        });
        match spawned {
            Ok(handle) => {
                if let Ok(mut handles) = shared.conn_handles.lock() {
                    handles.push(handle);
                }
            }
            Err(_) => shared.release(conn),
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
/// occurs, or shutdown unblocks the read. Every frame is read into one
/// frame buffer and every reply encoded into one output buffer, both kept
/// for the life of the connection.
fn serve_connection(mut stream: TcpStream, shared: &Shared, limits: ConnLimits) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(limits.read_timeout_ms)));
    let _ = stream.set_nodelay(true);
    let counters = &shared.counters;
    let (mut raw, mut out) = (RawFrame::default(), Vec::new());
    loop {
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        match read_frame_into(&mut stream, DEFAULT_MAX_FRAME_LEN, limits.budget, &mut raw) {
            Ok(()) => {
                counters.frames_ok.fetch_add(1, Ordering::Relaxed);
                if !handle_frame(&mut stream, shared, &raw, &mut out) {
                    return;
                }
            }
            Err((frame_id, err)) => {
                let keep = classify_and_reply(&mut stream, counters, frame_id, &err, &mut out);
                if !keep {
                    let _ = stream.shutdown(Shutdown::Both);
                    return;
                }
            }
        }
    }
}

/// Decodes one verified frame, runs it on the engine under the lock, and
/// writes the reply once the lock is released; returns `false` when the
/// connection should close.
fn handle_frame(
    stream: &mut TcpStream,
    shared: &Shared,
    raw: &RawFrame,
    out: &mut Vec<u8>,
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
                out,
            );
        }
    };
    let Ok(resp) = shared.engine.lock().map(|mut engine| engine.handle(req)) else {
        // A request panicked inside the engine: it is gone — refuse
        // explicitly, then close.
        let resp =
            Response::Error { code: RejectCode::Draining, detail: "engine stopped".to_string() };
        let _ = write_reply(stream, counters, raw.frame_id, &resp, out);
        return false;
    };
    write_reply(stream, counters, raw.frame_id, &resp, out)
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
    out: &mut Vec<u8>,
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
        let _ = write_reply(stream, counters, frame_id.unwrap_or(0), &resp, out);
    }
    matches!(err, WireError::ChecksumMismatch { .. })
}

/// Writes one reply frame, encoded into the connection's buffer `out`;
/// returns `false` when the write failed (the connection is unusable).
fn write_reply(
    stream: &mut TcpStream,
    counters: &WireCounters,
    frame_id: u64,
    resp: &Response,
    out: &mut Vec<u8>,
) -> bool {
    begin_frame(out);
    encode_response_into(resp, out);
    finish_frame(out, resp.op(), frame_id);
    match stream.write_all(out).and_then(|()| stream.flush()) {
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
    use crate::wire::client::{ClientError, RetryPolicy, WireClient};
    use crate::Disposition;
    use matraptor_sparse::gen;
    use std::time::Instant;

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
    fn non_finite_values_are_refused_at_admission() {
        let server = local_server();
        let mut client =
            WireClient::connect(server.addr(), RetryPolicy::default_local(), 15).expect("connect");
        let a = gen::uniform(4, 4, 6, 5);
        let b = gen::uniform(4, 4, 6, 6);
        let mut values = b.values().to_vec();
        values[0] = f64::NAN;
        let b = Csr::from_parts(4, 4, b.row_ptr().to_vec(), b.col_idx().to_vec(), values)
            .expect("the structure is valid");
        match client.submit(0, &a, &b).expect("submit") {
            Response::Error { code, .. } => assert_eq!(code, RejectCode::Malformed),
            other => panic!("expected Malformed, got {other:?}"),
        }
        // The frame decoded; admission refused the operand.
        assert_eq!(server.counters().malformed, 0);
        let engine = server.shared.engine.lock().expect("engine");
        assert_eq!(engine.service.fleet().counters().rejected_invalid, 1);
        drop(engine);
        assert_eq!(server.shutdown().thread_panics, 0);
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

    #[test]
    fn finished_connections_release_their_stream_and_thread() {
        let server = local_server();
        for seed in 0..200 {
            let mut client =
                WireClient::connect(server.addr(), RetryPolicy::no_retry(), seed).expect("connect");
            assert!(matches!(client.ping(), Ok(Response::Pong)));
        }
        let shared = &server.shared;
        let all_finished = || {
            shared.live.load(Ordering::SeqCst) == 0
                && shared.conn_handles.lock().unwrap().iter().all(JoinHandle::is_finished)
        };
        let deadline = Instant::now() + Duration::from_secs(10);
        while !all_finished() {
            assert!(Instant::now() < deadline, "churned connections never finished");
            std::thread::sleep(Duration::from_millis(5));
        }
        // Accepting the probe joins every finished thread; the streams of
        // closed connections are already gone.
        let mut probe =
            WireClient::connect(server.addr(), RetryPolicy::no_retry(), 200).expect("connect");
        assert!(matches!(probe.ping(), Ok(Response::Pong)));
        assert_eq!(shared.streams.lock().unwrap().len(), 1, "only the probe's stream is held");
        assert!(shared.conn_handles.lock().unwrap().len() <= 1, "finished threads are joined");
        drop(probe);
        let down = server.shutdown();
        assert_eq!(down.thread_panics, 0);
        assert_eq!(down.counters.accepted, 201);
    }

    #[test]
    fn concurrent_clients_resolve_every_job_completed_exactly_once() {
        const CLIENTS: u64 = 3;
        const JOBS: u64 = 30;
        let server = local_server();
        let addr = server.addr();
        let completed = disposition_code(Disposition::Completed);
        let start = Arc::new(std::sync::Barrier::new(CLIENTS as usize));
        let clients: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let start = Arc::clone(&start);
                std::thread::spawn(move || {
                    let mut client = WireClient::connect(addr, RetryPolicy::no_retry(), 40 + c)
                        .expect("connect");
                    start.wait();
                    // No retries, so any error fails the test — a
                    // `FrameIdMismatch` included.
                    let expect = |resp: Result<Response, ClientError>| match resp {
                        Err(ClientError::FrameIdMismatch { sent, got }) => {
                            panic!("client {c}: reply {got} answered request {sent}")
                        }
                        other => other.expect("clean loopback exchange"),
                    };
                    // (job, its first resolved state), in submission order.
                    let mut seen: Vec<(u64, JobState)> = Vec::new();
                    for k in 0..JOBS {
                        let a = gen::uniform(12, 12, 24, 1_000 * c + 2 * k);
                        let b = gen::uniform(12, 12, 24, 1_000 * c + 2 * k + 1);
                        let job = match expect(client.submit((c % 2) as u32, &a, &b)) {
                            Response::Submitted { job } => job,
                            other => panic!("client {c}: expected Submitted, got {other:?}"),
                        };
                        let state = match expect(client.poll(job)) {
                            Response::Status {
                                job: j,
                                state: state @ JobState::Resolved { disposition, .. },
                            } if j == job && disposition == completed => state,
                            other => panic!("client {c}: job {job} not Completed: {other:?}"),
                        };
                        seen.push((job, state));
                        // Re-poll an earlier job: its resolution never moves.
                        let (old, first) = seen[(k / 2) as usize];
                        match expect(client.poll(old)) {
                            Response::Status { job: j, state } if j == old => {
                                assert_eq!(state, first, "client {c} job {old} re-resolved");
                            }
                            other => panic!("client {c}: expected status of {old}, got {other:?}"),
                        }
                    }
                    seen.into_iter().map(|(job, _)| job).collect::<Vec<u64>>()
                })
            })
            .collect();
        let mut ids: Vec<u64> =
            clients.into_iter().flat_map(|h| h.join().expect("client thread")).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..CLIENTS * JOBS).collect::<Vec<u64>>(), "each id issued once");
        let down = server.shutdown();
        assert_eq!(down.jobs_accepted, CLIENTS * JOBS);
        assert_eq!(down.jobs_accepted, down.jobs_resolved);
        assert_eq!(down.thread_panics, 0);
    }

    #[test]
    fn old_ids_answer_byte_identically_once_their_records_are_taken() {
        const CLIENTS: u64 = 2;
        const JOBS: u64 = 1_000;
        assert!(std::mem::size_of::<Option<Resolution>>() <= 16, "one table entry per job");
        let server = local_server();
        let addr = server.addr();
        // Every request takes the records it resolved under the lock, so
        // whenever the lock is free the fleet retains none.
        let retained =
            |shared: &Shared| shared.engine.lock().expect("engine").service.fleet().records().len();
        let resolved_state = |client: &mut WireClient, job: u64| loop {
            match client.poll(job).expect("clean loopback poll") {
                Response::Status { job: j, state: JobState::Queued } if j == job => {}
                Response::Status { job: j, state } if j == job => break state,
                other => panic!("expected the status of {job}, got {other:?}"),
            }
        };
        let clients: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let shared = Arc::clone(&server.shared);
                std::thread::spawn(move || {
                    let mut client = WireClient::connect(addr, RetryPolicy::no_retry(), 60 + c)
                        .expect("connect");
                    let mut first: Vec<(u64, JobState)> = Vec::new();
                    for k in 0..JOBS {
                        let a = gen::uniform(6, 6, 8, 10_000 * c + 2 * k);
                        let b = gen::uniform(6, 6, 8, 10_000 * c + 2 * k + 1);
                        let job = match client.submit((c % 2) as u32, &a, &b).expect("submit") {
                            Response::Submitted { job } => job,
                            other => panic!("client {c}: expected Submitted, got {other:?}"),
                        };
                        first.push((job, resolved_state(&mut client, job)));
                        assert_eq!(retained(&shared), 0, "a record outlived its request");
                    }
                    first
                })
            })
            .collect();
        let first: Vec<(u64, JobState)> =
            clients.into_iter().flat_map(|h| h.join().expect("client thread")).collect();
        assert_eq!(first.len() as u64, CLIENTS * JOBS);
        // A later poll of every id, from a fresh connection, answers what
        // the first resolved poll did.
        let mut late = WireClient::connect(addr, RetryPolicy::no_retry(), 70).expect("connect");
        for &(job, state) in &first {
            assert_eq!(resolved_state(&mut late, job), state, "job {job} answers differently");
        }
        assert_eq!(retained(&server.shared), 0);
        drop(late);
        let down = server.shutdown();
        assert_eq!((down.jobs_accepted, down.jobs_resolved), (CLIENTS * JOBS, CLIENTS * JOBS));
        assert_eq!(down.thread_panics, 0);
    }
}
