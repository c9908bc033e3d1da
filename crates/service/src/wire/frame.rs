//! Wire framing: the length-prefixed binary protocol.
//!
//! ## Frame layout (all little-endian)
//!
//! ```text
//! offset  size  field
//!      0     4  magic  "MRW1"
//!      4     2  version (currently 1)
//!      6     2  op code
//!      8     8  frame id (client-chosen correlation id, echoed in replies)
//!     16     4  payload length in bytes
//!     20     8  FNV-1a-64 checksum of the payload bytes
//!     28     …  payload
//! ```
//!
//! The header is fixed-size and self-delimiting: a reader always knows
//! how many bytes the frame occupies before touching the payload, and the
//! declared length is checked against the server's cap *before* any
//! allocation. The checksum is the same FNV-1a-64 every report fingerprint
//! in the workspace uses ([`fnv1a64`]).
//!
//! ## Matrix framing
//!
//! Submit payloads carry both operands in columnar CSR sections — the
//! C²SR-friendly shape (contiguous per-array buffers) rather than an
//! element stream:
//!
//! ```text
//! rows u32 · cols u32 · nnz u64
//! row_ptr  (rows+1) × u64
//! col_idx  nnz × u32
//! values   nnz × f64 (IEEE-754 bits)
//! ```
//!
//! The section sizes are derived from the 16-byte prologue with checked
//! arithmetic and compared against the remaining payload in one shot, so
//! a hostile length never drives an oversized allocation; structural
//! validation (`row_ptr` monotonicity, column bounds, sortedness) runs
//! over the whole decoded buffers via [`Csr::from_parts`]. Finiteness is
//! the job's operand check at admission, which refuses a non-finite value
//! as a malformed submission.

use matraptor_sim::trace::fnv1a64;
use matraptor_sparse::{Csr, Index};

use std::io::Read;

/// Frame magic: `MRW1` (MatRaptor Wire v1).
pub const MAGIC: [u8; 4] = *b"MRW1";
/// Protocol version carried in every header.
pub const VERSION: u16 = 1;
/// Fixed header size in bytes.
pub const HEADER_LEN: usize = 28;
/// Cap on a frame's declared payload length (16 MiB) that the server and
/// the client read with.
pub const DEFAULT_MAX_FRAME_LEN: u32 = 16 * 1024 * 1024;
/// Cap on a framed matrix dimension (rows or cols).
pub const MAX_WIRE_DIM: u32 = 1 << 22;

/// Operation codes. Requests use the low range; replies set bit 7.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u16)]
pub enum Op {
    /// Submit a job: tenant + two framed matrices.
    Submit = 0x01,
    /// Poll a job id for its disposition (drives the service forward).
    Poll = 0x02,
    /// Cancel a queued job.
    Cancel = 0x03,
    /// Stop admission and finish-or-checkpoint everything queued.
    Drain = 0x04,
    /// Liveness probe.
    Ping = 0x05,
    /// Reply: job accepted.
    Submitted = 0x81,
    /// Reply: job status.
    Status = 0x82,
    /// Reply: cancellation result.
    CancelResult = 0x83,
    /// Reply: drain summary.
    DrainReport = 0x84,
    /// Reply: liveness ack.
    Pong = 0x85,
    /// Reply: explicit refusal (wire-layer or admission taxonomy).
    Error = 0xFF,
}

impl Op {
    /// Decodes a wire op code.
    pub fn from_u16(v: u16) -> Option<Op> {
        Some(match v {
            0x01 => Op::Submit,
            0x02 => Op::Poll,
            0x03 => Op::Cancel,
            0x04 => Op::Drain,
            0x05 => Op::Ping,
            0x81 => Op::Submitted,
            0x82 => Op::Status,
            0x83 => Op::CancelResult,
            0x84 => Op::DrainReport,
            0x85 => Op::Pong,
            0xFF => Op::Error,
            _ => return None,
        })
    }
}

/// Why a frame or a submission was refused. Codes 1–15 mirror the
/// service's admission taxonomy ([`crate::Rejected`]); codes 16+ are
/// wire-layer refusals. Every refusal the server ever emits is one of
/// these — an unlisted behavior observed by the campaign is a protocol
/// escape.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u16)]
pub enum RejectCode {
    /// Tenant queue at capacity ([`crate::Rejected::QueueFull`]).
    QueueFull = 1,
    /// Operand pair quarantined ([`crate::Rejected::Quarantined`]).
    Quarantined = 2,
    /// Unmultipliable shapes ([`crate::Rejected::InvalidShape`]).
    InvalidShape = 3,
    /// Tenant id not in the table ([`crate::Rejected::UnknownTenant`]).
    UnknownTenant = 4,
    /// Header magic is not `MRW1`.
    BadMagic = 16,
    /// Header version is not [`VERSION`].
    BadVersion = 17,
    /// Payload checksum does not match the header.
    BadChecksum = 18,
    /// Declared payload length exceeds the server cap.
    FrameTooLarge = 19,
    /// The peer closed or stalled mid-frame.
    Truncated = 20,
    /// Payload bytes do not decode as the declared op.
    Malformed = 21,
    /// Unknown or reply-range op code in a request.
    UnknownOp = 22,
    /// Polled/cancelled job id was never issued.
    UnknownJob = 23,
    /// The server is draining; no new submissions.
    Draining = 24,
    /// Connection cap reached.
    Busy = 25,
    /// Read budget exhausted mid-frame (stall / slow-loris).
    TimedOut = 26,
}

impl RejectCode {
    /// Decodes a wire reject code.
    pub fn from_u16(v: u16) -> Option<RejectCode> {
        Some(match v {
            1 => RejectCode::QueueFull,
            2 => RejectCode::Quarantined,
            3 => RejectCode::InvalidShape,
            4 => RejectCode::UnknownTenant,
            16 => RejectCode::BadMagic,
            17 => RejectCode::BadVersion,
            18 => RejectCode::BadChecksum,
            19 => RejectCode::FrameTooLarge,
            20 => RejectCode::Truncated,
            21 => RejectCode::Malformed,
            22 => RejectCode::UnknownOp,
            23 => RejectCode::UnknownJob,
            24 => RejectCode::Draining,
            25 => RejectCode::Busy,
            26 => RejectCode::TimedOut,
            _ => return None,
        })
    }

    /// Stable lowercase label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            RejectCode::QueueFull => "queue_full",
            RejectCode::Quarantined => "quarantined",
            RejectCode::InvalidShape => "invalid_shape",
            RejectCode::UnknownTenant => "unknown_tenant",
            RejectCode::BadMagic => "bad_magic",
            RejectCode::BadVersion => "bad_version",
            RejectCode::BadChecksum => "bad_checksum",
            RejectCode::FrameTooLarge => "frame_too_large",
            RejectCode::Truncated => "truncated",
            RejectCode::Malformed => "malformed",
            RejectCode::UnknownOp => "unknown_op",
            RejectCode::UnknownJob => "unknown_job",
            RejectCode::Draining => "draining",
            RejectCode::Busy => "busy",
            RejectCode::TimedOut => "timed_out",
        }
    }
}

/// Transport/decode failures, on either side of the wire. Each framing
/// variant maps onto the [`RejectCode`] the server answers with.
#[derive(Debug, Clone, PartialEq, Eq)]
#[must_use = "a wire error carries the reject taxonomy; drop it and the peer learns nothing"]
pub enum WireError {
    /// Header magic mismatch.
    BadMagic {
        /// The four bytes received.
        got: [u8; 4],
    },
    /// Unsupported protocol version.
    BadVersion {
        /// The version received.
        got: u16,
    },
    /// Declared payload length over the cap.
    FrameTooLarge {
        /// Declared length.
        declared: u32,
        /// Enforced cap.
        cap: u32,
    },
    /// Payload checksum mismatch.
    ChecksumMismatch {
        /// Checksum declared in the header.
        declared: u64,
        /// Checksum computed over the received payload.
        computed: u64,
    },
    /// The peer closed the stream mid-frame.
    Truncated {
        /// What was being read.
        context: &'static str,
    },
    /// Payload did not decode as the declared op.
    Malformed {
        /// What failed to decode.
        context: &'static str,
    },
    /// Request op code unknown (or a reply code sent as a request).
    UnknownOp {
        /// The offending code.
        op: u16,
    },
    /// Read budget exhausted mid-frame (stalled or slow-loris peer).
    TimedOut,
    /// The stream closed cleanly between frames.
    Closed,
    /// The idle budget lapsed with no frame in progress.
    IdleExpired,
    /// Any other I/O failure.
    Io(std::io::ErrorKind),
}

impl WireError {
    /// The reject code a server answers this error with (`None` for
    /// conditions that close the connection without a reply).
    pub fn reject_code(&self) -> Option<RejectCode> {
        Some(match self {
            WireError::BadMagic { .. } => RejectCode::BadMagic,
            WireError::BadVersion { .. } => RejectCode::BadVersion,
            WireError::FrameTooLarge { .. } => RejectCode::FrameTooLarge,
            WireError::ChecksumMismatch { .. } => RejectCode::BadChecksum,
            WireError::Truncated { .. } => RejectCode::Truncated,
            WireError::Malformed { .. } => RejectCode::Malformed,
            WireError::UnknownOp { .. } => RejectCode::UnknownOp,
            WireError::TimedOut => RejectCode::TimedOut,
            WireError::Closed | WireError::IdleExpired | WireError::Io(_) => return None,
        })
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::BadMagic { got } => write!(f, "bad frame magic {got:02x?}"),
            WireError::BadVersion { got } => write!(f, "unsupported protocol version {got}"),
            WireError::FrameTooLarge { declared, cap } => {
                write!(f, "declared payload {declared} bytes exceeds cap {cap}")
            }
            WireError::ChecksumMismatch { declared, computed } => {
                write!(f, "checksum mismatch: header {declared:#x}, payload {computed:#x}")
            }
            WireError::Truncated { context } => write!(f, "stream truncated reading {context}"),
            WireError::Malformed { context } => write!(f, "malformed payload: {context}"),
            WireError::UnknownOp { op } => write!(f, "unknown request op {op:#06x}"),
            WireError::TimedOut => write!(f, "read budget exhausted mid-frame"),
            WireError::Closed => write!(f, "connection closed"),
            WireError::IdleExpired => write!(f, "idle budget lapsed"),
            WireError::Io(kind) => write!(f, "io error: {kind:?}"),
        }
    }
}

impl std::error::Error for WireError {}

/// How a polled job stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Admitted, not yet resolved.
    Queued,
    /// Resolved with the encoded disposition byte (see
    /// [`disposition_code`]).
    Resolved {
        /// Encoded [`crate::Disposition`].
        disposition: u8,
        /// Accelerator attempts consumed.
        attempts: u32,
        /// Simulated cycle of resolution.
        finished_at: u64,
    },
}

/// Encodes a [`Disposition`](crate::Disposition) as a wire byte.
pub fn disposition_code(d: crate::Disposition) -> u8 {
    match d {
        crate::Disposition::Completed => 0,
        crate::Disposition::CompletedOnCpu => 1,
        crate::Disposition::DeadlineExceeded => 2,
        crate::Disposition::Failed => 3,
        crate::Disposition::Cancelled => 4,
        crate::Disposition::CheckpointedAtDrain => 5,
    }
}

/// Decodes a wire disposition byte.
pub fn disposition_from_code(c: u8) -> Option<crate::Disposition> {
    Some(match c {
        0 => crate::Disposition::Completed,
        1 => crate::Disposition::CompletedOnCpu,
        2 => crate::Disposition::DeadlineExceeded,
        3 => crate::Disposition::Failed,
        4 => crate::Disposition::Cancelled,
        5 => crate::Disposition::CheckpointedAtDrain,
        _ => return None,
    })
}

/// A request as decoded from a frame.
#[derive(Debug, Clone)]
pub enum Request {
    /// Submit a job for `tenant` with framed operands.
    Submit {
        /// Tenant index.
        tenant: u32,
        /// Left operand.
        a: Csr<f64>,
        /// Right operand.
        b: Csr<f64>,
    },
    /// Poll a job id.
    Poll {
        /// The job to poll.
        job: u64,
    },
    /// Cancel a queued job id.
    Cancel {
        /// The job to cancel.
        job: u64,
    },
    /// Stop admission; finish or checkpoint the queue.
    Drain,
    /// Liveness probe.
    Ping,
}

/// A reply as decoded from a frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Job accepted with this id.
    Submitted {
        /// The issued job id.
        job: u64,
    },
    /// Poll result.
    Status {
        /// The polled job.
        job: u64,
        /// Its state.
        state: JobState,
    },
    /// Cancellation result.
    CancelResult {
        /// The cancelled job.
        job: u64,
        /// Whether the job was still queued and got cancelled.
        ok: bool,
    },
    /// Drain summary.
    DrainReport {
        /// Jobs the drain ran to completion (accelerator + CPU).
        completed: u64,
        /// Jobs paused and checkpointed through the core pause path.
        checkpointed: u64,
        /// Jobs whose drain slice hit their deadline.
        deadline_exceeded: u64,
        /// Jobs whose drain attempt faulted.
        failed: u64,
    },
    /// Liveness ack.
    Pong,
    /// Explicit refusal.
    Error {
        /// The taxonomy code.
        code: RejectCode,
        /// Human-readable detail (bounded).
        detail: String,
    },
}

impl Response {
    /// The op code this reply travels under.
    pub fn op(&self) -> Op {
        match self {
            Response::Submitted { .. } => Op::Submitted,
            Response::Status { .. } => Op::Status,
            Response::CancelResult { .. } => Op::CancelResult,
            Response::DrainReport { .. } => Op::DrainReport,
            Response::Pong => Op::Pong,
            Response::Error { .. } => Op::Error,
        }
    }
}

/// One frame as read off the wire, header already validated.
#[derive(Debug, Clone, Default)]
pub struct RawFrame {
    /// The op code (not yet interpreted).
    pub op: u16,
    /// The correlation id.
    pub frame_id: u64,
    /// The checksum-verified payload.
    pub payload: Vec<u8>,
}

// ---------------------------------------------------------------------------
// encoding
// ---------------------------------------------------------------------------

/// The header of a frame carrying `payload`.
fn header(op: Op, frame_id: u64, payload: &[u8]) -> [u8; HEADER_LEN] {
    let mut h = [0u8; HEADER_LEN];
    h[0..4].copy_from_slice(&MAGIC);
    h[4..6].copy_from_slice(&VERSION.to_le_bytes());
    h[6..8].copy_from_slice(&(op as u16).to_le_bytes());
    h[8..16].copy_from_slice(&frame_id.to_le_bytes());
    let plen = u32::try_from(payload.len()).unwrap_or(u32::MAX);
    h[16..20].copy_from_slice(&plen.to_le_bytes());
    h[20..28].copy_from_slice(&fnv1a64(payload).to_le_bytes());
    h
}

/// Assembles a complete frame (header + payload).
pub fn encode_frame(op: Op, frame_id: u64, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN.saturating_add(payload.len()));
    out.extend_from_slice(&header(op, frame_id, payload));
    out.extend_from_slice(payload);
    out
}

/// Starts a frame in `out`, a buffer a connection keeps: clears it and
/// leaves room for the header. Append the payload, then
/// [`finish_frame`]. Reusing one buffer for every frame, a connection
/// allocates only when a frame outgrows all earlier ones.
pub fn begin_frame(out: &mut Vec<u8>) {
    out.clear();
    out.resize(HEADER_LEN, 0);
}

/// Completes the frame [`begin_frame`] started in `out`: writes the
/// header for the payload appended after it.
///
/// # Panics
///
/// Panics if `out` is shorter than a header, which [`begin_frame`] rules
/// out.
pub fn finish_frame(out: &mut [u8], op: Op, frame_id: u64) {
    let (head, payload) = out.split_at_mut(HEADER_LEN);
    head.copy_from_slice(&header(op, frame_id, payload));
}

/// Encodes a request into (op, payload).
pub fn encode_request(req: &Request) -> Result<(Op, Vec<u8>), WireError> {
    let mut p = Vec::new();
    let op = encode_request_into(req, &mut p)?;
    Ok((op, p))
}

/// Appends a request's payload to `out` and returns its op.
pub fn encode_request_into(req: &Request, out: &mut Vec<u8>) -> Result<Op, WireError> {
    match req {
        Request::Submit { tenant, a, b } => encode_submit_into(*tenant, a, b, out),
        Request::Poll { job } => {
            out.extend_from_slice(&job.to_le_bytes());
            Ok(Op::Poll)
        }
        Request::Cancel { job } => {
            out.extend_from_slice(&job.to_le_bytes());
            Ok(Op::Cancel)
        }
        Request::Drain => Ok(Op::Drain),
        Request::Ping => Ok(Op::Ping),
    }
}

/// Appends the payload of a submit of `a * b` for `tenant` to `out`, from
/// borrowed operands, and returns its op.
pub fn encode_submit_into(
    tenant: u32,
    a: &Csr<f64>,
    b: &Csr<f64>,
    out: &mut Vec<u8>,
) -> Result<Op, WireError> {
    out.extend_from_slice(&tenant.to_le_bytes());
    encode_matrix(out, a)?;
    encode_matrix(out, b)?;
    Ok(Op::Submit)
}

/// Encodes a response into its payload bytes (op comes from
/// [`Response::op`]).
pub fn encode_response(resp: &Response) -> Vec<u8> {
    let mut p = Vec::new();
    encode_response_into(resp, &mut p);
    p
}

/// Appends a response's payload bytes to `out` (op comes from
/// [`Response::op`]).
pub fn encode_response_into(resp: &Response, p: &mut Vec<u8>) {
    match resp {
        Response::Submitted { job } => p.extend_from_slice(&job.to_le_bytes()),
        Response::Status { job, state } => {
            p.extend_from_slice(&job.to_le_bytes());
            match state {
                JobState::Queued => {
                    p.push(0);
                    p.push(0xFF);
                    p.extend_from_slice(&0u32.to_le_bytes());
                    p.extend_from_slice(&0u64.to_le_bytes());
                }
                JobState::Resolved { disposition, attempts, finished_at } => {
                    p.push(1);
                    p.push(*disposition);
                    p.extend_from_slice(&attempts.to_le_bytes());
                    p.extend_from_slice(&finished_at.to_le_bytes());
                }
            }
        }
        Response::CancelResult { job, ok } => {
            p.extend_from_slice(&job.to_le_bytes());
            p.push(u8::from(*ok));
        }
        Response::DrainReport { completed, checkpointed, deadline_exceeded, failed } => {
            p.extend_from_slice(&completed.to_le_bytes());
            p.extend_from_slice(&checkpointed.to_le_bytes());
            p.extend_from_slice(&deadline_exceeded.to_le_bytes());
            p.extend_from_slice(&failed.to_le_bytes());
        }
        Response::Pong => {}
        Response::Error { code, detail } => {
            let bytes = detail.as_bytes();
            let take = bytes.len().min(512);
            p.extend_from_slice(&(*code as u16).to_le_bytes());
            let dlen = u16::try_from(take).unwrap_or(u16::MAX);
            p.extend_from_slice(&dlen.to_le_bytes());
            p.extend_from_slice(&bytes[..take]);
        }
    }
}

/// Appends one matrix in columnar framing.
fn encode_matrix(out: &mut Vec<u8>, m: &Csr<f64>) -> Result<(), WireError> {
    let rows =
        u32::try_from(m.rows()).map_err(|_| WireError::Malformed { context: "matrix rows" })?;
    let cols =
        u32::try_from(m.cols()).map_err(|_| WireError::Malformed { context: "matrix cols" })?;
    let nnz = m.nnz() as u64;
    out.extend_from_slice(&rows.to_le_bytes());
    out.extend_from_slice(&cols.to_le_bytes());
    out.extend_from_slice(&nnz.to_le_bytes());
    for &p in m.row_ptr() {
        out.extend_from_slice(&(p as u64).to_le_bytes());
    }
    for &c in m.col_idx() {
        out.extend_from_slice(&c.to_le_bytes());
    }
    for &v in m.values() {
        out.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// decoding
// ---------------------------------------------------------------------------

/// Bounds-checked little-endian reader over a payload slice.
struct Take<'a> {
    rest: &'a [u8],
}

impl<'a> Take<'a> {
    fn new(payload: &'a [u8]) -> Self {
        Take { rest: payload }
    }

    fn bytes(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], WireError> {
        if self.rest.len() < n {
            return Err(WireError::Malformed { context });
        }
        let (head, tail) = self.rest.split_at(n);
        self.rest = tail;
        Ok(head)
    }

    fn u8(&mut self, context: &'static str) -> Result<u8, WireError> {
        Ok(self.bytes(1, context)?[0])
    }

    fn u16(&mut self, context: &'static str) -> Result<u16, WireError> {
        let b = self.bytes(2, context)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self, context: &'static str) -> Result<u32, WireError> {
        let b = self.bytes(4, context)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self, context: &'static str) -> Result<u64, WireError> {
        let b = self.bytes(8, context)?;
        Ok(u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }

    fn done(&self, context: &'static str) -> Result<(), WireError> {
        if self.rest.is_empty() {
            Ok(())
        } else {
            Err(WireError::Malformed { context })
        }
    }
}

/// Decodes a request from a verified frame.
pub fn decode_request(raw: &RawFrame) -> Result<Request, WireError> {
    let op = Op::from_u16(raw.op).ok_or(WireError::UnknownOp { op: raw.op })?;
    let mut t = Take::new(&raw.payload);
    let req = match op {
        Op::Submit => {
            let tenant = t.u32("submit tenant")?;
            let a = decode_matrix(&mut t)?;
            let b = decode_matrix(&mut t)?;
            Request::Submit { tenant, a, b }
        }
        Op::Poll => Request::Poll { job: t.u64("poll job id")? },
        Op::Cancel => Request::Cancel { job: t.u64("cancel job id")? },
        Op::Drain => Request::Drain,
        Op::Ping => Request::Ping,
        Op::Submitted | Op::Status | Op::CancelResult | Op::DrainReport | Op::Pong | Op::Error => {
            return Err(WireError::UnknownOp { op: raw.op })
        }
    };
    t.done("trailing bytes after request payload")?;
    Ok(req)
}

/// Decodes a response from a verified frame.
pub fn decode_response(raw: &RawFrame) -> Result<Response, WireError> {
    let op = Op::from_u16(raw.op).ok_or(WireError::UnknownOp { op: raw.op })?;
    let mut t = Take::new(&raw.payload);
    let resp = match op {
        Op::Submitted => Response::Submitted { job: t.u64("submitted job id")? },
        Op::Status => {
            let job = t.u64("status job id")?;
            let resolved = t.u8("status state byte")?;
            let disposition = t.u8("status disposition")?;
            let attempts = t.u32("status attempts")?;
            let finished_at = t.u64("status finish cycle")?;
            let state = match resolved {
                0 => JobState::Queued,
                1 if disposition_from_code(disposition).is_some() => {
                    JobState::Resolved { disposition, attempts, finished_at }
                }
                1 => return Err(WireError::Malformed { context: "unknown status disposition" }),
                _ => return Err(WireError::Malformed { context: "unknown status state byte" }),
            };
            Response::Status { job, state }
        }
        Op::CancelResult => {
            let job = t.u64("cancel job id")?;
            let ok = t.u8("cancel ok byte")? != 0;
            Response::CancelResult { job, ok }
        }
        Op::DrainReport => Response::DrainReport {
            completed: t.u64("drain completed")?,
            checkpointed: t.u64("drain checkpointed")?,
            deadline_exceeded: t.u64("drain deadline_exceeded")?,
            failed: t.u64("drain failed")?,
        },
        Op::Pong => Response::Pong,
        Op::Error => {
            let code_raw = t.u16("error code")?;
            let code = RejectCode::from_u16(code_raw)
                .ok_or(WireError::Malformed { context: "unknown error code" })?;
            let dlen = t.u16("error detail length")? as usize;
            let detail = String::from_utf8_lossy(t.bytes(dlen, "error detail")?).into_owned();
            Response::Error { code, detail }
        }
        Op::Submit | Op::Poll | Op::Cancel | Op::Drain | Op::Ping => {
            return Err(WireError::UnknownOp { op: raw.op })
        }
    };
    t.done("trailing bytes after response payload")?;
    Ok(resp)
}

/// Decodes one columnar matrix block, validating section sizes as whole
/// buffers before any allocation and the structure via [`Csr::from_parts`]
/// afterwards.
fn decode_matrix(t: &mut Take<'_>) -> Result<Csr<f64>, WireError> {
    let rows = t.u32("matrix rows")?;
    let cols = t.u32("matrix cols")?;
    let nnz64 = t.u64("matrix nnz")?;
    if rows > MAX_WIRE_DIM || cols > MAX_WIRE_DIM {
        return Err(WireError::Malformed { context: "matrix dimension over wire cap" });
    }
    let nnz = usize::try_from(nnz64).map_err(|_| WireError::Malformed { context: "nnz" })?;
    let rows_us = rows as usize;
    // One checked size computation for all three sections; a hostile nnz
    // fails here before any per-element work or allocation.
    let ptr_bytes = rows_us
        .checked_add(1)
        .and_then(|n| n.checked_mul(8))
        .ok_or(WireError::Malformed { context: "row_ptr size overflow" })?;
    let idx_bytes =
        nnz.checked_mul(4).ok_or(WireError::Malformed { context: "col_idx size overflow" })?;
    let val_bytes =
        nnz.checked_mul(8).ok_or(WireError::Malformed { context: "values size overflow" })?;
    let need = ptr_bytes
        .checked_add(idx_bytes)
        .and_then(|n| n.checked_add(val_bytes))
        .ok_or(WireError::Malformed { context: "matrix size overflow" })?;
    if t.rest.len() < need {
        return Err(WireError::Malformed { context: "matrix sections exceed payload" });
    }
    let ptr_raw = t.bytes(ptr_bytes, "row_ptr section")?;
    let idx_raw = t.bytes(idx_bytes, "col_idx section")?;
    let val_raw = t.bytes(val_bytes, "values section")?;
    let mut row_ptr = Vec::with_capacity(rows_us.saturating_add(1));
    for c in ptr_raw.chunks_exact(8) {
        let v = u64::from_le_bytes([c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]]);
        let p =
            usize::try_from(v).map_err(|_| WireError::Malformed { context: "row_ptr entry" })?;
        row_ptr.push(p);
    }
    let mut col_idx: Vec<Index> = Vec::with_capacity(nnz);
    for c in idx_raw.chunks_exact(4) {
        col_idx.push(u32::from_le_bytes([c[0], c[1], c[2], c[3]]));
    }
    let mut values: Vec<f64> = Vec::with_capacity(nnz);
    for c in val_raw.chunks_exact(8) {
        values.push(f64::from_bits(u64::from_le_bytes([
            c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7],
        ])));
    }
    // Structure is refused here, at the boundary; a non-finite value is
    // refused once, by admission's operand check.
    Csr::from_parts(rows_us, cols as usize, row_ptr, col_idx, values)
        .map_err(|_| WireError::Malformed { context: "matrix structure invalid" })
}

// ---------------------------------------------------------------------------
// stream reading
// ---------------------------------------------------------------------------

/// Read budgets for one frame. Every `read(2)` call — productive or timed
/// out — spends budget, so a peer trickling one byte per read deadline
/// (slow-loris) exhausts the frame budget deterministically instead of
/// pinning the connection. Idle budget covers the wait for a frame's
/// *first* byte; frame budget covers everything after it.
#[derive(Debug, Clone, Copy)]
pub struct ReadBudget {
    /// `read` calls allowed while waiting for the first byte of a frame.
    pub idle_reads: u32,
    /// `read` calls allowed for the remainder of the frame once started.
    pub frame_reads: u32,
}

/// Reads one frame. On header-parse or payload errors the already-parsed
/// frame id (if any) rides along so the caller can address its error
/// reply.
pub fn read_frame(
    stream: &mut dyn Read,
    cap: u32,
    budget: ReadBudget,
) -> Result<RawFrame, (Option<u64>, WireError)> {
    let mut frame = RawFrame::default();
    read_frame_into(stream, cap, budget, &mut frame)?;
    Ok(frame)
}

/// [`read_frame`] into `frame`, a frame a connection keeps: its payload
/// buffer is reused, so reading allocates only when a frame outgrows all
/// earlier ones. On an error `frame` holds no complete frame.
pub fn read_frame_into(
    stream: &mut dyn Read,
    cap: u32,
    budget: ReadBudget,
    frame: &mut RawFrame,
) -> Result<(), (Option<u64>, WireError)> {
    let mut header = [0u8; HEADER_LEN];
    read_exact_budget(stream, &mut header, budget.idle_reads, budget.frame_reads)
        .map_err(|e| (None, e))?;
    if header[0..4] != MAGIC {
        let mut got = [0u8; 4];
        got.copy_from_slice(&header[0..4]);
        return Err((None, WireError::BadMagic { got }));
    }
    let version = u16::from_le_bytes([header[4], header[5]]);
    let op = u16::from_le_bytes([header[6], header[7]]);
    let frame_id = u64::from_le_bytes([
        header[8], header[9], header[10], header[11], header[12], header[13], header[14],
        header[15],
    ]);
    let declared = u32::from_le_bytes([header[16], header[17], header[18], header[19]]);
    let checksum = u64::from_le_bytes([
        header[20], header[21], header[22], header[23], header[24], header[25], header[26],
        header[27],
    ]);
    if version != VERSION {
        return Err((Some(frame_id), WireError::BadVersion { got: version }));
    }
    if declared > cap {
        return Err((Some(frame_id), WireError::FrameTooLarge { declared, cap }));
    }
    let payload = &mut frame.payload;
    payload.clear();
    payload.resize(declared as usize, 0);
    // Past the header we are mid-frame by definition: an EOF here is a
    // truncation even if zero payload bytes arrived, and an expired wait
    // is a stall, not idleness.
    read_exact_budget(stream, payload, budget.frame_reads, budget.frame_reads).map_err(|e| {
        let e = match e {
            WireError::Closed => WireError::Truncated { context: "payload after header" },
            WireError::IdleExpired => WireError::TimedOut,
            other => other,
        };
        (Some(frame_id), e)
    })?;
    let computed = fnv1a64(payload);
    if computed != checksum {
        return Err((Some(frame_id), WireError::ChecksumMismatch { declared: checksum, computed }));
    }
    (frame.op, frame.frame_id) = (op, frame_id);
    Ok(())
}

/// `read_exact` with a per-call budget instead of a wall clock: the
/// stream's read timeout bounds each call, and the budget bounds the call
/// count. `first_budget` applies until the first byte arrives (idle
/// waiting); `rest_budget` applies afterwards (mid-frame stall).
fn read_exact_budget(
    stream: &mut dyn Read,
    buf: &mut [u8],
    first_budget: u32,
    rest_budget: u32,
) -> Result<(), WireError> {
    let mut filled = 0usize;
    let mut reads_left = first_budget.max(1);
    let mut started = false;
    while filled < buf.len() {
        if reads_left == 0 {
            return Err(if started { WireError::TimedOut } else { WireError::IdleExpired });
        }
        reads_left -= 1;
        match stream.read(&mut buf[filled..]) {
            Ok(0) => {
                return Err(if started || filled > 0 {
                    WireError::Truncated { context: "mid-frame close" }
                } else {
                    WireError::Closed
                });
            }
            Ok(n) => {
                if !started {
                    started = true;
                    reads_left = rest_budget.max(1);
                }
                filled = filled.saturating_add(n);
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut => {}
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(WireError::Io(e.kind())),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use matraptor_sparse::gen;

    fn frame_bytes(req: &Request, id: u64) -> Vec<u8> {
        let (op, payload) = encode_request(req).unwrap();
        encode_frame(op, id, &payload)
    }

    fn read_one(bytes: &[u8]) -> Result<RawFrame, (Option<u64>, WireError)> {
        let mut cursor = bytes;
        read_frame(
            &mut cursor,
            DEFAULT_MAX_FRAME_LEN,
            ReadBudget { idle_reads: 4, frame_reads: 64 },
        )
    }

    #[test]
    fn submit_roundtrips_bit_exactly() {
        let a = gen::uniform(17, 23, 60, 1);
        let b = gen::uniform(23, 17, 60, 2);
        let req = Request::Submit { tenant: 3, a: a.clone(), b: b.clone() };
        let raw = read_one(&frame_bytes(&req, 42)).unwrap();
        assert_eq!(raw.frame_id, 42);
        match decode_request(&raw).unwrap() {
            Request::Submit { tenant, a: da, b: db } => {
                assert_eq!(tenant, 3);
                assert_eq!(da.row_ptr(), a.row_ptr());
                assert_eq!(da.col_idx(), a.col_idx());
                // Bit-exact values, not approx: the framing ships f64 bits.
                let bits =
                    |m: &Csr<f64>| m.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&da), bits(&a));
                assert_eq!(bits(&db), bits(&b));
            }
            other => panic!("wrong decode: {other:?}"),
        }
    }

    #[test]
    fn every_response_roundtrips() {
        let cases = vec![
            Response::Submitted { job: 7 },
            Response::Status { job: 7, state: JobState::Queued },
            Response::Status {
                job: 8,
                state: JobState::Resolved { disposition: 0, attempts: 2, finished_at: 999 },
            },
            Response::CancelResult { job: 9, ok: true },
            Response::DrainReport {
                completed: 3,
                checkpointed: 2,
                deadline_exceeded: 1,
                failed: 0,
            },
            Response::Pong,
            Response::Error { code: RejectCode::QueueFull, detail: "queue full".to_string() },
        ];
        for resp in cases {
            let bytes = encode_frame(resp.op(), 5, &encode_response(&resp));
            let raw = read_one(&bytes).unwrap();
            assert_eq!(decode_response(&raw).unwrap(), resp);
        }
    }

    #[test]
    fn status_with_an_unknown_state_or_disposition_is_malformed() {
        let status = |state: u8, disposition: u8| {
            let mut p = 8u64.to_le_bytes().to_vec();
            p.extend_from_slice(&[state, disposition]);
            p.extend_from_slice(&2u32.to_le_bytes());
            p.extend_from_slice(&999u64.to_le_bytes());
            decode_response(&read_one(&encode_frame(Op::Status, 5, &p)).unwrap())
        };
        assert!(status(1, 5).is_ok(), "the last known disposition decodes");
        assert!(matches!(
            status(2, 0),
            Err(WireError::Malformed { context: "unknown status state byte" })
        ));
        assert!(matches!(
            status(1, 6),
            Err(WireError::Malformed { context: "unknown status disposition" })
        ));
    }

    #[test]
    fn header_rejections_carry_the_right_taxonomy() {
        let good = frame_bytes(&Request::Ping, 1);
        // Bad magic.
        let mut bad = good.clone();
        bad[0] = b'X';
        assert!(matches!(read_one(&bad), Err((None, WireError::BadMagic { .. }))));
        // Bad version (frame id is recoverable).
        let mut bad = good.clone();
        bad[4] = 99;
        assert!(matches!(read_one(&bad), Err((Some(1), WireError::BadVersion { got: 99 }))));
        // Oversized declared length.
        let mut bad = good.clone();
        bad[16..20].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(read_one(&bad), Err((Some(1), WireError::FrameTooLarge { .. }))));
        // Truncated: drop the last header byte.
        let bad = &good[..HEADER_LEN - 1];
        assert!(matches!(read_one(bad), Err((None, WireError::Truncated { .. }))));
    }

    #[test]
    fn checksum_mismatch_is_detected() {
        let (op, payload) = encode_request(&Request::Poll { job: 3 }).unwrap();
        let mut bytes = encode_frame(op, 2, &payload);
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        assert!(matches!(read_one(&bytes), Err((Some(2), WireError::ChecksumMismatch { .. }))));
    }

    #[test]
    fn malformed_matrices_are_refused_structurally() {
        let a = gen::uniform(8, 8, 20, 3);
        let b = gen::uniform(8, 8, 20, 4);
        let (op, mut payload) = encode_request(&Request::Submit { tenant: 0, a, b }).unwrap();
        // Corrupt matrix A's nnz to a huge value: the checked section
        // arithmetic must refuse before any allocation.
        payload[12..20].copy_from_slice(&u64::MAX.to_le_bytes());
        let bytes = encode_frame(op, 9, &payload);
        let raw = read_one(&bytes).unwrap();
        assert!(matches!(decode_request(&raw), Err(WireError::Malformed { .. })));
    }

    #[test]
    fn reply_ops_are_not_valid_requests() {
        let bytes = encode_frame(Op::Pong, 1, &[]);
        let raw = read_one(&bytes).unwrap();
        assert!(matches!(decode_request(&raw), Err(WireError::UnknownOp { op: 0x85 })));
    }

    #[test]
    fn unknown_op_codes_are_refused_with_the_frame_intact() {
        let mut bytes = encode_frame(Op::Ping, 4, &[]);
        bytes[6..8].copy_from_slice(&0x77u16.to_le_bytes());
        let raw = read_one(&bytes).unwrap();
        assert!(matches!(decode_request(&raw), Err(WireError::UnknownOp { op: 0x77 })));
    }

    #[test]
    fn coalesced_frames_parse_back_to_back() {
        let mut bytes = frame_bytes(&Request::Ping, 1);
        bytes.extend_from_slice(&frame_bytes(&Request::Poll { job: 2 }, 2));
        let mut cursor: &[u8] = &bytes;
        let budget = ReadBudget { idle_reads: 4, frame_reads: 64 };
        let first = read_frame(&mut cursor, DEFAULT_MAX_FRAME_LEN, budget).unwrap();
        let second = read_frame(&mut cursor, DEFAULT_MAX_FRAME_LEN, budget).unwrap();
        assert_eq!(first.frame_id, 1);
        assert_eq!(second.frame_id, 2);
        assert!(matches!(decode_request(&second).unwrap(), Request::Poll { job: 2 }));
    }

    #[test]
    fn eof_between_frames_is_a_clean_close() {
        let mut empty: &[u8] = &[];
        assert!(matches!(
            read_frame(
                &mut empty,
                DEFAULT_MAX_FRAME_LEN,
                ReadBudget { idle_reads: 4, frame_reads: 8 }
            ),
            Err((None, WireError::Closed))
        ));
    }
}
