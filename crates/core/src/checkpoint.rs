//! Versioned, checksummed machine checkpoints for deterministic replay.
//!
//! A [`Checkpoint`] captures the **entire** mutable state of a run at the
//! top of one accelerator cycle: every lane's SpAL/SpBL/PE/Writer, both
//! coupling FIFOs, the HBM device (queues, banks, in-flight requests,
//! fault windows), the scheduler's id/route bookkeeping, the watchdog's
//! progress state, and any armed fault injector. Everything *not*
//! captured — matrix layouts, lane row assignments, the cycle budget —
//! is recomputed deterministically from `(config, A, B)`, whose
//! fingerprints the checkpoint carries so a resume against the wrong
//! inputs is rejected instead of silently diverging.
//!
//! The serialized format is deliberately `std`-only and plain-data:
//!
//! ```text
//! magic "MRCK" | version u32 LE | checksum u64 LE | payload
//! ```
//!
//! where `checksum` is FNV-1a-64 over the payload and the payload is a
//! fixed-order little-endian field walk (f64 values as raw bit patterns,
//! so replay is bit-exact). The acceptance oracle for all of this is
//! *deterministic replay*: resuming from a checkpoint taken at cycle `k`
//! must produce bit-identical cycle counts and output values to the
//! uninterrupted run (see DESIGN.md §9 and the `checkpoint_replay`
//! integration tests).

use std::fmt;

use matraptor_mem::fault::{FaultCounters, FaultWindow, MemFaults};
use matraptor_mem::snapshot::{
    BankState, ChannelState, ChannelStatsState, FragmentState, HbmState, PendingState,
    ResponseState,
};
use matraptor_mem::MemKind;
use matraptor_sim::trace::fnv1a64;
use matraptor_sim::watchdog::mix_signature;

use crate::config::MatRaptorConfig;
use crate::queue::VectorMode;
use crate::tokens::{ATok, PeTok};
use crate::writer::FinishedRow;

/// Current checkpoint format version. Bumped on any change to the
/// serialized field walk; [`Checkpoint::from_bytes`] rejects other
/// versions rather than guessing. Version 2 added the per-stage
/// `[busy, mem_stall, queue_stall, idle]` attribution arrays to the
/// SpAL/SpBL/Writer unit states.
pub const CHECKPOINT_VERSION: u32 = 2;

const MAGIC: [u8; 4] = *b"MRCK";

/// Why a serialized checkpoint was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum CheckpointError {
    /// The byte stream ended before the field walk did.
    Truncated,
    /// The stream does not start with the checkpoint magic.
    BadMagic,
    /// The stream's format version is not [`CHECKPOINT_VERSION`].
    UnsupportedVersion {
        /// The version found in the header.
        found: u32,
    },
    /// The payload checksum does not match the header.
    ChecksumMismatch,
    /// The bytes decoded but violated a structural invariant (an invalid
    /// enum tag, an implausible length).
    Malformed,
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Truncated => write!(f, "checkpoint truncated"),
            CheckpointError::BadMagic => write!(f, "not a checkpoint (bad magic)"),
            CheckpointError::UnsupportedVersion { found } => {
                write!(f, "unsupported checkpoint version {found} (expected {CHECKPOINT_VERSION})")
            }
            CheckpointError::ChecksumMismatch => write!(f, "checkpoint checksum mismatch"),
            CheckpointError::Malformed => write!(f, "checkpoint payload malformed"),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// A resumable machine state. Opaque: produced by a paused
/// [`crate::Run::snapshot`] and consumed by a [`crate::RunStart::Resume`]
/// start.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    pub(crate) state: CheckpointState,
}

impl Checkpoint {
    /// The accelerator cycle at which this checkpoint was taken. Resuming
    /// re-executes this cycle first.
    pub fn cycle(&self) -> u64 {
        self.state.t
    }

    /// The format version this checkpoint serializes as.
    pub fn version(&self) -> u32 {
        CHECKPOINT_VERSION
    }

    /// Serializes to the versioned, checksummed byte format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut payload = Vec::new();
        self.state.enc(&mut payload);
        let mut out = Vec::with_capacity(16 + payload.len());
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&CHECKPOINT_VERSION.to_le_bytes());
        out.extend_from_slice(&fnv1a64(&payload).to_le_bytes());
        out.extend_from_slice(&payload);
        out
    }

    /// Deserializes a checkpoint produced by [`Checkpoint::to_bytes`].
    ///
    /// # Errors
    ///
    /// [`CheckpointError::BadMagic`] /
    /// [`CheckpointError::UnsupportedVersion`] for foreign bytes,
    /// [`CheckpointError::ChecksumMismatch`] for bit rot, and
    /// [`CheckpointError::Truncated`] / [`CheckpointError::Malformed`]
    /// for structurally broken payloads.
    pub fn from_bytes(bytes: &[u8]) -> Result<Checkpoint, CheckpointError> {
        if bytes.len() < 16 {
            return Err(CheckpointError::Truncated);
        }
        if bytes[..4] != MAGIC {
            return Err(CheckpointError::BadMagic);
        }
        let version = u32::from_le_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]);
        if version != CHECKPOINT_VERSION {
            return Err(CheckpointError::UnsupportedVersion { found: version });
        }
        let mut sum = [0u8; 8];
        sum.copy_from_slice(&bytes[8..16]);
        let checksum = u64::from_le_bytes(sum);
        let payload = &bytes[16..];
        if fnv1a64(payload) != checksum {
            return Err(CheckpointError::ChecksumMismatch);
        }
        let mut r = Reader { buf: payload, pos: 0 };
        let state = CheckpointState::dec(&mut r)?;
        if r.pos != payload.len() {
            return Err(CheckpointError::Malformed);
        }
        Ok(Checkpoint { state })
    }
}

/// Fingerprint of a configuration: every field that affects the machine's
/// cycle-level behaviour, folded with the watchdog's signature mixer.
pub(crate) fn fingerprint_config(cfg: &MatRaptorConfig) -> u64 {
    let mut s = mix_signature(0, cfg.num_lanes as u64);
    s = mix_signature(s, cfg.queues_per_pe as u64);
    s = mix_signature(s, cfg.queue_bytes as u64);
    s = mix_signature(s, cfg.entry_bytes as u64);
    s = mix_signature(s, cfg.clock_ghz.to_bits());
    s = mix_signature(s, cfg.read_request_bytes as u64);
    s = mix_signature(s, cfg.outstanding_requests as u64);
    s = mix_signature(s, cfg.coupling_fifo_depth as u64);
    s = mix_signature(s, u64::from(cfg.double_buffering));
    s = mix_signature(s, u64::from(cfg.verify_against_reference));
    s = mix_signature(s, u64::from(cfg.abft_verification));
    s = mix_signature(s, cfg.watchdog_window);
    let m = &cfg.mem;
    s = mix_signature(s, m.num_channels as u64);
    s = mix_signature(s, m.channel_width_bytes as u64);
    s = mix_signature(s, m.clock_ghz.to_bits());
    s = mix_signature(s, m.burst_bytes as u64);
    s = mix_signature(s, m.interleave_bytes as u64);
    s = mix_signature(s, m.access_latency);
    s = mix_signature(s, m.queue_depth as u64);
    s = mix_signature(s, m.row_bytes);
    s = mix_signature(s, m.row_miss_penalty);
    s = mix_signature(s, m.banks_per_channel as u64);
    mix_signature(s, m.bank_lookahead as u64)
}

// ---------------------------------------------------------------------------
// Plain-data state structs (one per stateful unit). Fields mirror the
// units' *mutable* state exactly; constants rebuilt by the unit
// constructors (lane indices, row assignments, capacities) are absent.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
pub(crate) struct SpAlSpanState {
    pub(crate) row_pos: u64,
    pub(crate) first_entry: u32,
    pub(crate) count: u32,
}

#[derive(Debug, Clone, PartialEq)]
pub(crate) struct SpAlState {
    pub(crate) info_cursor: u64,
    pub(crate) data_cursor: u64,
    pub(crate) info_ready: Vec<bool>,
    pub(crate) current_plan: Vec<(u64, u32)>,
    pub(crate) entries_issued: u32,
    pub(crate) pending_info: Vec<(u64, u64)>,
    pub(crate) pending_data: Vec<(u64, SpAlSpanState)>,
    pub(crate) staging: Vec<ATok>,
    pub(crate) in_flight: u64,
    /// `[busy, mem_stall, queue_stall, idle]` cycle attribution.
    pub(crate) attribution: [u64; 4],
}

#[derive(Debug, Clone, PartialEq)]
pub(crate) struct JobState {
    pub(crate) seq: u64,
    pub(crate) is_fetch: bool,
    pub(crate) b_row: u32,
    pub(crate) a_val: f64,
    pub(crate) out_row: u32,
    pub(crate) last_in_row: bool,
    pub(crate) info_requested: bool,
    pub(crate) info_ready: bool,
    pub(crate) plan: Option<Vec<(u64, u32)>>,
    pub(crate) len: u32,
    pub(crate) ready_entries: u32,
    pub(crate) drained_entries: u32,
}

#[derive(Debug, Clone, PartialEq)]
pub(crate) struct SpBlState {
    pub(crate) jobs: Vec<JobState>,
    pub(crate) next_seq: u64,
    pub(crate) pending_info: Vec<(u64, u64)>,
    pub(crate) pending_data: Vec<(u64, u64, u32)>,
    pub(crate) staging: Vec<PeTok>,
    pub(crate) in_flight: u64,
    pub(crate) blocked: [u64; 4],
    pub(crate) malformed: Option<(u32, u32)>,
    /// `[busy, mem_stall, queue_stall, idle]` cycle attribution.
    pub(crate) attribution: [u64; 4],
}

#[derive(Debug, Clone, PartialEq)]
pub(crate) struct QueueSetState {
    pub(crate) queues: Vec<Vec<(u32, f64)>>,
    pub(crate) helper: u64,
    pub(crate) occupied: Vec<bool>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct BreakdownState {
    pub(crate) busy: u64,
    pub(crate) merge_stall: u64,
    pub(crate) memory_stall: u64,
    pub(crate) idle: u64,
}

#[derive(Debug, Clone, PartialEq)]
pub(crate) struct PeState {
    pub(crate) set0: QueueSetState,
    pub(crate) set1: QueueSetState,
    pub(crate) fill: u64,
    pub(crate) vec_mode: Option<VectorMode>,
    pub(crate) phase2: Option<(u64, u32)>,
    pub(crate) skipping: bool,
    pub(crate) products_in_row: u64,
    pub(crate) breakdown: BreakdownState,
    pub(crate) multiplies: u64,
    pub(crate) additions: u64,
    pub(crate) overflow_rows: Vec<u32>,
    pub(crate) phase1_cycles: u64,
    pub(crate) phase2_cycles: u64,
    pub(crate) fault_force_overflow_after: Option<u64>,
    pub(crate) cpu_fallback: bool,
    pub(crate) fatal_overflow: Option<u32>,
}

#[derive(Debug, Clone, PartialEq)]
pub(crate) struct WriterState {
    pub(crate) local_cursor: u64,
    pub(crate) buffered_bytes: u32,
    pub(crate) queue: Vec<(u64, u32)>,
    pub(crate) pending: Vec<u64>,
    pub(crate) cur_row: Option<u32>,
    pub(crate) cur_cols: Vec<u32>,
    pub(crate) cur_vals: Vec<f64>,
    pub(crate) finished: Vec<FinishedRow>,
    pub(crate) entries_pushed: u64,
    pub(crate) fault_drop_append: Option<u64>,
    pub(crate) dropped_appends: u64,
    /// `[busy, mem_stall, queue_stall, idle]` cycle attribution.
    pub(crate) attribution: [u64; 4],
}

#[derive(Debug, Clone, PartialEq)]
pub(crate) struct LaneState {
    pub(crate) spal: SpAlState,
    pub(crate) spbl: SpBlState,
    pub(crate) pe: PeState,
    pub(crate) writer: WriterState,
    pub(crate) spal_out: Vec<ATok>,
    pub(crate) pe_in: Vec<PeTok>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct StreamFaultState {
    pub(crate) lane: u64,
    pub(crate) target: u64,
    pub(crate) seen: u64,
    pub(crate) truncate: bool,
    pub(crate) corrupt_to: u32,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct WdSourceState {
    pub(crate) last_signature: u64,
    pub(crate) last_progress: u64,
    pub(crate) observed: bool,
}

#[derive(Debug, Clone, PartialEq)]
pub(crate) struct CheckpointState {
    pub(crate) cfg_fingerprint: u64,
    pub(crate) a_fingerprint: u64,
    pub(crate) b_fingerprint: u64,
    /// Accelerator cycle at the top of which this state was captured.
    pub(crate) t: u64,
    pub(crate) next_id: u64,
    /// `(request id, lane)` routing entries, sorted by id.
    pub(crate) route: Vec<(u64, u64)>,
    pub(crate) lanes: Vec<LaneState>,
    pub(crate) stream_fault: Option<StreamFaultState>,
    pub(crate) hbm: HbmState,
    pub(crate) wd_last_progress: u64,
    pub(crate) wd_sources: Vec<WdSourceState>,
}

// ---------------------------------------------------------------------------
// Serialization: a fixed-order little-endian field walk.
// ---------------------------------------------------------------------------

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        let end = self.pos.checked_add(n).ok_or(CheckpointError::Truncated)?;
        if end > self.buf.len() {
            return Err(CheckpointError::Truncated);
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }
}

trait Enc {
    fn enc(&self, out: &mut Vec<u8>);
}

trait Dec: Sized {
    fn dec(r: &mut Reader<'_>) -> Result<Self, CheckpointError>;
}

impl Enc for u8 {
    fn enc(&self, out: &mut Vec<u8>) {
        out.push(*self);
    }
}
impl Dec for u8 {
    fn dec(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        Ok(r.take(1)?[0])
    }
}

impl Enc for u32 {
    fn enc(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
}
impl Dec for u32 {
    fn dec(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        let mut b = [0u8; 4];
        b.copy_from_slice(r.take(4)?);
        Ok(u32::from_le_bytes(b))
    }
}

impl Enc for u64 {
    fn enc(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
}
impl Dec for u64 {
    fn dec(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        let mut b = [0u8; 8];
        b.copy_from_slice(r.take(8)?);
        Ok(u64::from_le_bytes(b))
    }
}

impl Enc for usize {
    fn enc(&self, out: &mut Vec<u8>) {
        (*self as u64).enc(out);
    }
}
impl Dec for usize {
    fn dec(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        usize::try_from(u64::dec(r)?).map_err(|_| CheckpointError::Malformed)
    }
}

impl Enc for bool {
    fn enc(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
}
impl Dec for bool {
    fn dec(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        match u8::dec(r)? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(CheckpointError::Malformed),
        }
    }
}

impl Enc for f64 {
    fn enc(&self, out: &mut Vec<u8>) {
        self.to_bits().enc(out);
    }
}
impl Dec for f64 {
    fn dec(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        Ok(f64::from_bits(u64::dec(r)?))
    }
}

impl<T: Enc> Enc for Option<T> {
    fn enc(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.enc(out);
            }
        }
    }
}
impl<T: Dec> Dec for Option<T> {
    fn dec(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        match u8::dec(r)? {
            0 => Ok(None),
            1 => Ok(Some(T::dec(r)?)),
            _ => Err(CheckpointError::Malformed),
        }
    }
}

impl<T: Enc> Enc for Vec<T> {
    fn enc(&self, out: &mut Vec<u8>) {
        (self.len() as u64).enc(out);
        for item in self {
            item.enc(out);
        }
    }
}
impl<T: Dec> Dec for Vec<T> {
    fn dec(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        let len = usize::dec(r)?;
        // Every element encodes to at least one byte, so a length beyond
        // the remaining payload is structurally impossible — reject it
        // before allocating.
        if len > r.remaining() {
            return Err(CheckpointError::Malformed);
        }
        let mut v = Vec::with_capacity(len);
        for _ in 0..len {
            v.push(T::dec(r)?);
        }
        Ok(v)
    }
}

impl<A: Enc, B: Enc> Enc for (A, B) {
    fn enc(&self, out: &mut Vec<u8>) {
        self.0.enc(out);
        self.1.enc(out);
    }
}
impl<A: Dec, B: Dec> Dec for (A, B) {
    fn dec(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        Ok((A::dec(r)?, B::dec(r)?))
    }
}

impl<A: Enc, B: Enc, C: Enc> Enc for (A, B, C) {
    fn enc(&self, out: &mut Vec<u8>) {
        self.0.enc(out);
        self.1.enc(out);
        self.2.enc(out);
    }
}
impl<A: Dec, B: Dec, C: Dec> Dec for (A, B, C) {
    fn dec(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        Ok((A::dec(r)?, B::dec(r)?, C::dec(r)?))
    }
}

impl Enc for [u64; 4] {
    fn enc(&self, out: &mut Vec<u8>) {
        for v in self {
            v.enc(out);
        }
    }
}
impl Dec for [u64; 4] {
    fn dec(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        Ok([u64::dec(r)?, u64::dec(r)?, u64::dec(r)?, u64::dec(r)?])
    }
}

impl Enc for MemKind {
    fn enc(&self, out: &mut Vec<u8>) {
        out.push(match self {
            MemKind::Read => 0,
            MemKind::Write => 1,
        });
    }
}
impl Dec for MemKind {
    fn dec(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        match u8::dec(r)? {
            0 => Ok(MemKind::Read),
            1 => Ok(MemKind::Write),
            _ => Err(CheckpointError::Malformed),
        }
    }
}

impl Enc for ATok {
    fn enc(&self, out: &mut Vec<u8>) {
        match self {
            ATok::Entry { val, row, col, last_in_row } => {
                out.push(0);
                val.enc(out);
                row.enc(out);
                col.enc(out);
                last_in_row.enc(out);
            }
            ATok::EmptyRow { row } => {
                out.push(1);
                row.enc(out);
            }
        }
    }
}
impl Dec for ATok {
    fn dec(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        match u8::dec(r)? {
            0 => Ok(ATok::Entry {
                val: f64::dec(r)?,
                row: u32::dec(r)?,
                col: u32::dec(r)?,
                last_in_row: bool::dec(r)?,
            }),
            1 => Ok(ATok::EmptyRow { row: u32::dec(r)? }),
            _ => Err(CheckpointError::Malformed),
        }
    }
}

impl Enc for PeTok {
    fn enc(&self, out: &mut Vec<u8>) {
        match self {
            PeTok::Product { val, col } => {
                out.push(0);
                val.enc(out);
                col.enc(out);
            }
            PeTok::EndOfVector => out.push(1),
            PeTok::EndOfRow { row } => {
                out.push(2);
                row.enc(out);
            }
        }
    }
}
impl Dec for PeTok {
    fn dec(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        match u8::dec(r)? {
            0 => Ok(PeTok::Product { val: f64::dec(r)?, col: u32::dec(r)? }),
            1 => Ok(PeTok::EndOfVector),
            2 => Ok(PeTok::EndOfRow { row: u32::dec(r)? }),
            _ => Err(CheckpointError::Malformed),
        }
    }
}

impl Enc for VectorMode {
    fn enc(&self, out: &mut Vec<u8>) {
        match self {
            VectorMode::Direct { queue } => {
                out.push(0);
                queue.enc(out);
            }
            VectorMode::Merge { src, helper } => {
                out.push(1);
                src.enc(out);
                helper.enc(out);
            }
        }
    }
}
impl Dec for VectorMode {
    fn dec(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        match u8::dec(r)? {
            0 => Ok(VectorMode::Direct { queue: usize::dec(r)? }),
            1 => Ok(VectorMode::Merge { src: usize::dec(r)?, helper: usize::dec(r)? }),
            _ => Err(CheckpointError::Malformed),
        }
    }
}

/// Implements the byte walk for a plain struct as the fields in order.
macro_rules! plain_struct {
    ($name:ident { $($f:ident),* $(,)? }) => {
        impl Enc for $name {
            fn enc(&self, out: &mut Vec<u8>) {
                $(self.$f.enc(out);)*
            }
        }
        impl Dec for $name {
            fn dec(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
                Ok($name { $($f: Dec::dec(r)?),* })
            }
        }
    };
}

plain_struct!(FaultWindow { channel, start, end });
plain_struct!(MemFaults { stalls, refusals });
plain_struct!(FaultCounters { stalled_cycles, refused_submits });
plain_struct!(FragmentState { req_id, kind, addr, bytes });
plain_struct!(BankState { open_row, prep_row, ready_at });
plain_struct!(ChannelStatsState {
    busy_cycles,
    read_bytes,
    write_bytes,
    bursts,
    read_bursts,
    write_bursts,
    row_misses,
});
plain_struct!(ChannelState { queue, queue_pushed, in_service, banks, stats });
plain_struct!(PendingState { id, kind, bytes, fragments_left, submitted });
plain_struct!(ResponseState { ready_at, id, kind, bytes });
plain_struct!(HbmState {
    channels,
    pending,
    responses,
    completed_requests,
    latency_sum,
    faults,
    fault_counters,
});
plain_struct!(FinishedRow { row, cols, vals, padded_entries });
plain_struct!(SpAlSpanState { row_pos, first_entry, count });
plain_struct!(SpAlState {
    info_cursor,
    data_cursor,
    info_ready,
    current_plan,
    entries_issued,
    pending_info,
    pending_data,
    staging,
    in_flight,
    attribution,
});
plain_struct!(JobState {
    seq,
    is_fetch,
    b_row,
    a_val,
    out_row,
    last_in_row,
    info_requested,
    info_ready,
    plan,
    len,
    ready_entries,
    drained_entries,
});
plain_struct!(SpBlState {
    jobs,
    next_seq,
    pending_info,
    pending_data,
    staging,
    in_flight,
    blocked,
    malformed,
    attribution,
});
plain_struct!(QueueSetState { queues, helper, occupied });
plain_struct!(BreakdownState { busy, merge_stall, memory_stall, idle });
plain_struct!(PeState {
    set0,
    set1,
    fill,
    vec_mode,
    phase2,
    skipping,
    products_in_row,
    breakdown,
    multiplies,
    additions,
    overflow_rows,
    phase1_cycles,
    phase2_cycles,
    fault_force_overflow_after,
    cpu_fallback,
    fatal_overflow,
});
plain_struct!(WriterState {
    local_cursor,
    buffered_bytes,
    queue,
    pending,
    cur_row,
    cur_cols,
    cur_vals,
    finished,
    entries_pushed,
    fault_drop_append,
    dropped_appends,
    attribution,
});
plain_struct!(LaneState { spal, spbl, pe, writer, spal_out, pe_in });
plain_struct!(StreamFaultState { lane, target, seen, truncate, corrupt_to });
plain_struct!(WdSourceState { last_signature, last_progress, observed });
plain_struct!(CheckpointState {
    cfg_fingerprint,
    a_fingerprint,
    b_fingerprint,
    t,
    next_id,
    route,
    lanes,
    stream_fault,
    hbm,
    wd_last_progress,
    wd_sources,
});

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_state() -> CheckpointState {
        CheckpointState {
            cfg_fingerprint: 1,
            a_fingerprint: 2,
            b_fingerprint: 3,
            t: 42,
            next_id: 7,
            route: vec![(5, 0), (6, 1)],
            lanes: vec![],
            stream_fault: Some(StreamFaultState {
                lane: 1,
                target: 9,
                seen: 4,
                truncate: false,
                corrupt_to: 77,
            }),
            hbm: HbmState {
                channels: vec![],
                pending: vec![],
                responses: vec![],
                completed_requests: 11,
                latency_sum: 220,
                faults: MemFaults::none(),
                fault_counters: FaultCounters::default(),
            },
            wd_last_progress: 40,
            wd_sources: vec![WdSourceState {
                last_signature: 8,
                last_progress: 40,
                observed: true,
            }],
        }
    }

    #[test]
    fn byte_round_trip_is_exact() {
        let ck = Checkpoint { state: tiny_state() };
        let bytes = ck.to_bytes();
        let back = Checkpoint::from_bytes(&bytes).expect("round trip");
        assert_eq!(back.state, ck.state);
        assert_eq!(back.cycle(), 42);
    }

    #[test]
    fn checksum_is_the_shared_workspace_fnv1a64() {
        // The checkpoint checksum and the trace/report fingerprints must be
        // the same hash: the header's u64 at bytes [8..16] is exactly
        // `matraptor_sim::trace::fnv1a64` over the payload.
        let bytes = Checkpoint { state: tiny_state() }.to_bytes();
        let mut sum = [0u8; 8];
        sum.copy_from_slice(&bytes[8..16]);
        assert_eq!(u64::from_le_bytes(sum), matraptor_sim::trace::fnv1a64(&bytes[16..]));
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = Checkpoint { state: tiny_state() }.to_bytes();
        bytes[0] = b'X';
        match Checkpoint::from_bytes(&bytes) {
            Err(CheckpointError::BadMagic) => {}
            other => panic!("expected bad-magic error, got {other:?}"),
        }
    }

    #[test]
    fn wrong_version_rejected() {
        let mut bytes = Checkpoint { state: tiny_state() }.to_bytes();
        bytes[4] = 99;
        match Checkpoint::from_bytes(&bytes) {
            Err(CheckpointError::UnsupportedVersion { found: 99 }) => {}
            other => panic!("expected version error, got {other:?}"),
        }
    }

    #[test]
    fn corrupted_payload_fails_checksum() {
        let mut bytes = Checkpoint { state: tiny_state() }.to_bytes();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        match Checkpoint::from_bytes(&bytes) {
            Err(CheckpointError::ChecksumMismatch) => {}
            other => panic!("expected checksum error, got {other:?}"),
        }
    }

    #[test]
    fn truncated_stream_rejected() {
        let bytes = Checkpoint { state: tiny_state() }.to_bytes();
        match Checkpoint::from_bytes(&bytes[..10]) {
            Err(CheckpointError::Truncated) => {}
            other => panic!("expected truncation error, got {other:?}"),
        }
    }
}
