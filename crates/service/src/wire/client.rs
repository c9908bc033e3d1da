//! The wire client: framed requests over a [`TcpStream`] with
//! deterministic retry.
//!
//! Retries are **transport-level and deliberately conservative**:
//! connection establishment and idempotent operations (ping, poll,
//! cancel, drain) retry with exponential backoff and seeded ChaCha8
//! jitter; a submit is written **at most once** — if the transport fails
//! after the request bytes may have left, the error surfaces instead of
//! risking a duplicate job. The jitter source is the workspace's in-tree
//! [`ChaCha8Rng`], so a seeded client produces the identical backoff
//! schedule on every run — wall-clock sleeps happen, but no wall-clock
//! *reads* ever influence behavior.

use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use matraptor_sparse::rng::ChaCha8Rng;
use matraptor_sparse::Csr;

use super::frame::{
    begin_frame, decode_response, encode_request_into, encode_submit_into, finish_frame,
    read_frame_into, Op, RawFrame, ReadBudget, Request, Response, WireError, DEFAULT_MAX_FRAME_LEN,
};

/// Retry/backoff tunables.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Total attempts per retryable operation (clamped to ≥ 1).
    pub max_attempts: u32,
    /// First backoff, in milliseconds; doubles per attempt.
    pub base_backoff_ms: u64,
    /// Backoff ceiling, in milliseconds.
    pub max_backoff_ms: u64,
    /// Add seeded jitter in `[0, base_backoff_ms)` to each backoff.
    pub jitter: bool,
    /// Per-`read(2)` deadline on replies, in milliseconds (clamped ≥ 1).
    pub read_timeout_ms: u64,
    /// Read budget while waiting for a reply's first byte.
    pub idle_reads: u32,
    /// Read budget for the rest of a reply frame.
    pub frame_reads: u32,
}

impl RetryPolicy {
    /// Loopback defaults: 3 attempts, 10 ms base / 200 ms cap with
    /// jitter, 25 ms read deadline, generous reply budgets.
    pub fn default_local() -> Self {
        RetryPolicy {
            max_attempts: 3,
            base_backoff_ms: 10,
            max_backoff_ms: 200,
            jitter: true,
            read_timeout_ms: 25,
            idle_reads: 400,
            frame_reads: 400,
        }
    }

    /// Single-attempt policy for tests that assert on first-try behavior.
    pub fn no_retry() -> Self {
        RetryPolicy { max_attempts: 1, ..Self::default_local() }
    }

    /// The backoff before retry `attempt` (0-based), with deterministic
    /// jitter drawn from `rng`.
    fn backoff_ms(&self, attempt: u32, rng: &mut ChaCha8Rng) -> u64 {
        let shift = attempt.min(16);
        let base = self
            .base_backoff_ms
            .saturating_mul(1u64.checked_shl(shift).unwrap_or(u64::MAX))
            .min(self.max_backoff_ms);
        if self.jitter && self.base_backoff_ms > 0 {
            base.saturating_add(rng.next_u64() % self.base_backoff_ms.max(1))
        } else {
            base
        }
    }
}

/// Client-side failures. Server-side refusals are **not** errors — they
/// arrive as [`Response::Error`] values so callers can assert on the
/// taxonomy.
#[derive(Debug, Clone, PartialEq, Eq)]
#[must_use = "a client error says whether the operation may have executed; ignoring it loses that"]
pub enum ClientError {
    /// Could not establish (or re-establish) the connection.
    Connect(std::io::ErrorKind),
    /// Writing the request failed.
    Write(std::io::ErrorKind),
    /// The reply failed to arrive or to parse.
    Reply(WireError),
    /// The reply's frame id matched neither the request nor the
    /// unsolicited id 0.
    FrameIdMismatch {
        /// Frame id sent with the request.
        sent: u64,
        /// Frame id received.
        got: u64,
    },
    /// All permitted attempts failed; holds the last failure.
    Exhausted {
        /// Attempts made.
        attempts: u32,
        /// The final error, boxed to keep the variant small.
        last: Box<ClientError>,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Connect(k) => write!(f, "connect failed: {k:?}"),
            ClientError::Write(k) => write!(f, "request write failed: {k:?}"),
            ClientError::Reply(e) => write!(f, "reply failed: {e}"),
            ClientError::FrameIdMismatch { sent, got } => {
                write!(f, "reply frame id {got} does not match request {sent}")
            }
            ClientError::Exhausted { attempts, last } => {
                write!(f, "gave up after {attempts} attempts: {last}")
            }
        }
    }
}

impl std::error::Error for ClientError {}

/// A connected client. Operations are synchronous: write one frame, read
/// one reply.
#[derive(Debug)]
pub struct WireClient {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    policy: RetryPolicy,
    rng: ChaCha8Rng,
    next_frame_id: u64,
    /// The buffer every request frame is encoded into.
    out: Vec<u8>,
    /// The frame every reply is read into.
    reply: RawFrame,
}

impl WireClient {
    /// Connects to `addr`, retrying per `policy`. `seed` drives the
    /// jitter stream, so equal seeds give equal backoff schedules.
    pub fn connect(
        addr: SocketAddr,
        policy: RetryPolicy,
        seed: u64,
    ) -> Result<WireClient, ClientError> {
        let mut client = WireClient {
            addr,
            stream: None,
            policy,
            rng: ChaCha8Rng::seed_from_u64(seed),
            next_frame_id: 1,
            out: Vec::new(),
            reply: RawFrame::default(),
        };
        client.ensure_connected()?;
        Ok(client)
    }

    fn sleep_backoff(&mut self, attempt: u32) {
        let ms = self.policy.backoff_ms(attempt, &mut self.rng);
        std::thread::sleep(Duration::from_millis(ms));
    }

    fn ensure_connected(&mut self) -> Result<(), ClientError> {
        if self.stream.is_some() {
            return Ok(());
        }
        let attempts = self.policy.max_attempts.max(1);
        let mut last = ClientError::Connect(std::io::ErrorKind::NotConnected);
        for attempt in 0..attempts {
            match TcpStream::connect(self.addr) {
                Ok(stream) => {
                    let _ = stream.set_read_timeout(Some(Duration::from_millis(
                        self.policy.read_timeout_ms.max(1),
                    )));
                    let _ = stream.set_nodelay(true);
                    self.stream = Some(stream);
                    return Ok(());
                }
                Err(e) => {
                    last = ClientError::Connect(e.kind());
                    if attempt.saturating_add(1) < attempts {
                        self.sleep_backoff(attempt);
                    }
                }
            }
        }
        Err(ClientError::Exhausted { attempts, last: Box::new(last) })
    }

    /// One request/reply exchange on the current connection: `encode`
    /// appends the request's payload and names its op. Any failure drops
    /// the connection (the stream may be desynchronized).
    fn exchange_once(
        &mut self,
        encode: impl FnOnce(&mut Vec<u8>) -> Result<Op, WireError>,
    ) -> Result<Response, ClientError> {
        self.ensure_connected()?;
        let sent_id = self.next_frame_id;
        self.next_frame_id = self.next_frame_id.saturating_add(1);
        begin_frame(&mut self.out);
        let op = encode(&mut self.out).map_err(ClientError::Reply)?;
        finish_frame(&mut self.out, op, sent_id);
        let Some(stream) = self.stream.as_mut() else {
            return Err(ClientError::Connect(std::io::ErrorKind::NotConnected));
        };
        if let Err(e) = std::io::Write::write_all(stream, &self.out) {
            self.stream = None;
            return Err(ClientError::Write(e.kind()));
        }
        let budget = ReadBudget {
            idle_reads: self.policy.idle_reads.max(1),
            frame_reads: self.policy.frame_reads.max(1),
        };
        let raw = &mut self.reply;
        if let Err((_, e)) = read_frame_into(stream, DEFAULT_MAX_FRAME_LEN, budget, raw) {
            self.stream = None;
            return Err(ClientError::Reply(e));
        }
        // Frame id 0 is the server's unsolicited-error id (e.g. Busy at
        // the connection cap, sent before any request was read).
        if raw.frame_id != sent_id && raw.frame_id != 0 {
            self.stream = None;
            return Err(ClientError::FrameIdMismatch { sent: sent_id, got: raw.frame_id });
        }
        match decode_response(raw) {
            Ok(resp) => Ok(resp),
            Err(e) => {
                self.stream = None;
                Err(ClientError::Reply(e))
            }
        }
    }

    /// One exchange with retry — only for idempotent requests.
    fn exchange_retry(&mut self, req: &Request) -> Result<Response, ClientError> {
        let attempts = self.policy.max_attempts.max(1);
        let mut last = ClientError::Connect(std::io::ErrorKind::NotConnected);
        for attempt in 0..attempts {
            match self.exchange_once(|out| encode_request_into(req, out)) {
                Ok(resp) => return Ok(resp),
                Err(e) => {
                    last = e;
                    if attempt.saturating_add(1) < attempts {
                        self.sleep_backoff(attempt);
                    }
                }
            }
        }
        Err(ClientError::Exhausted { attempts, last: Box::new(last) })
    }

    /// Submits a job. **At most once**: the request is written on a
    /// freshly ensured connection and never blindly re-sent, so a
    /// transport failure surfaces instead of risking a duplicate job.
    pub fn submit(
        &mut self,
        tenant: u32,
        a: &Csr<f64>,
        b: &Csr<f64>,
    ) -> Result<Response, ClientError> {
        self.exchange_once(|out| encode_submit_into(tenant, a, b, out))
    }

    /// Polls a job until the server reports its state (idempotent;
    /// retried).
    pub fn poll(&mut self, job: u64) -> Result<Response, ClientError> {
        self.exchange_retry(&Request::Poll { job })
    }

    /// Cancels a queued job (idempotent — a repeat cancel reports
    /// `ok: false`; retried).
    pub fn cancel(&mut self, job: u64) -> Result<Response, ClientError> {
        self.exchange_retry(&Request::Cancel { job })
    }

    /// Requests a graceful drain (idempotent — the server caches the
    /// first drain's report; retried).
    pub fn drain(&mut self) -> Result<Response, ClientError> {
        self.exchange_retry(&Request::Drain)
    }

    /// Liveness probe (idempotent; retried).
    pub fn ping(&mut self) -> Result<Response, ClientError> {
        self.exchange_retry(&Request::Ping)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_schedule_is_deterministic_per_seed() {
        let policy = RetryPolicy::default_local();
        let schedule = |seed: u64| {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            (0..5).map(|i| policy.backoff_ms(i, &mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(schedule(42), schedule(42), "same seed, same schedule");
        assert_ne!(schedule(42), schedule(43), "different seed perturbs jitter");
    }

    #[test]
    fn backoff_doubles_and_caps_without_jitter() {
        let policy = RetryPolicy {
            jitter: false,
            base_backoff_ms: 10,
            max_backoff_ms: 50,
            ..RetryPolicy::default_local()
        };
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let ms: Vec<u64> = (0..4).map(|i| policy.backoff_ms(i, &mut rng)).collect();
        assert_eq!(ms, vec![10, 20, 40, 50], "exponential up to the cap");
    }

    #[test]
    fn same_seed_clients_draw_the_same_jitter_through_failed_retries() {
        // Connect through the listener's backlog (no accept needed for
        // the handshake), then drop the listener so every exchange and
        // reconnect fails the same way for every client. Tight read
        // budgets keep the failing reads bounded.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let policy = RetryPolicy {
            max_attempts: 2,
            base_backoff_ms: 8,
            max_backoff_ms: 16,
            jitter: true,
            read_timeout_ms: 1,
            idle_reads: 2,
            frame_reads: 2,
        };
        let mut same_a = WireClient::connect(addr, policy, 77).expect("backlog handshake");
        let mut same_b = WireClient::connect(addr, policy, 77).expect("backlog handshake");
        let mut other = WireClient::connect(addr, policy, 1234).expect("backlog handshake");
        drop(listener);
        for c in [&mut same_a, &mut same_b, &mut other] {
            match c.ping() {
                Err(ClientError::Exhausted { .. }) => {}
                got => panic!("expected exhausted retries, got {got:?}"),
            }
        }
        // Each client's jitter stream stands where its sleeps left it, so
        // its next draw tells how far, and from which seed, it has come.
        let next = |c: &mut WireClient| c.rng.next_u64();
        let fresh = ChaCha8Rng::seed_from_u64(77).next_u64();
        let (a, b) = (next(&mut same_a), next(&mut same_b));
        assert_ne!(a, fresh, "failed retries must draw jitter for their sleeps");
        assert_eq!(a, b, "same seed, same failure sequence: the same jitter drawn");
        assert_ne!(a, next(&mut other), "a different seed perturbs the jitter stream");
    }

    #[test]
    fn connecting_to_a_dead_port_exhausts_retries() {
        // Bind-then-drop guarantees an unserved port.
        let addr = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
            l.local_addr().expect("addr")
        };
        let policy = RetryPolicy {
            max_attempts: 2,
            base_backoff_ms: 1,
            max_backoff_ms: 2,
            ..RetryPolicy::default_local()
        };
        match WireClient::connect(addr, policy, 5) {
            Err(ClientError::Exhausted { attempts, .. }) => assert_eq!(attempts, 2),
            other => panic!("expected exhausted retries, got {other:?}"),
        }
    }
}
