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
//! The bytes are the only form of a checkpoint. Each unit writes its own
//! fields straight into them ([`matraptor_sim::codec`]) and reads them
//! back into the reset machine, checking them as it reads:
//!
//! ```text
//! magic "MRCK" | version u32 LE | checksum u64 LE | payload
//! ```
//!
//! where `checksum` is FNV-1a-64 over the payload and the payload is a
//! fixed-order little-endian field walk (f64 values as raw bit patterns,
//! so replay is bit-exact). [`Checkpoint::from_bytes`] checks only this
//! envelope; a resume checks everything else. The acceptance oracle for
//! all of this is *deterministic replay*: resuming from a checkpoint
//! taken at cycle `k` must produce bit-identical cycle counts and output
//! values to the uninterrupted run (see DESIGN.md §9 and the
//! `checkpoint_replay` integration tests).

use std::fmt;

use matraptor_sim::codec::{Dec, Enc, Mismatch, Reader};
use matraptor_sim::trace::fnv1a64;
use matraptor_sim::watchdog::mix_signature;

use crate::config::MatRaptorConfig;
use crate::queue::VectorMode;
use crate::tokens::{ATok, PeTok};

/// Current checkpoint format version. Bumped on any change to the
/// serialized field walk; [`Checkpoint::from_bytes`] rejects other
/// versions rather than guessing. Version 2 added the per-stage
/// `[busy, mem_stall, queue_stall, idle]` attribution arrays to the
/// SpAL/SpBL/Writer unit states.
pub const CHECKPOINT_VERSION: u32 = 2;

const MAGIC: [u8; 4] = *b"MRCK";

/// Bytes before the payload: magic, version and checksum.
const HEADER: usize = 16;

/// Why serialized bytes are not a checkpoint envelope.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum CheckpointError {
    /// The bytes end before the header or the cycle does.
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
        }
    }
}

impl std::error::Error for CheckpointError {}

/// A resumable machine state. Opaque: produced by a paused
/// [`crate::Run::snapshot`] and consumed by a [`crate::RunStart::Resume`]
/// start, which checks it against the run.
#[derive(Clone)]
pub struct Checkpoint {
    /// The payload after room for the header, which only
    /// [`Checkpoint::to_bytes`] fills in: a checkpoint that never leaves
    /// memory is never hashed.
    bytes: Vec<u8>,
    cycle: u64,
}

impl fmt::Debug for Checkpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Checkpoint").field("cycle", &self.cycle).finish_non_exhaustive()
    }
}

impl Checkpoint {
    /// The accelerator cycle at which this checkpoint was taken. Resuming
    /// re-executes this cycle first.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// The format version this checkpoint serializes as.
    pub fn version(&self) -> u32 {
        CHECKPOINT_VERSION
    }

    /// The versioned, checksummed byte form: the payload sealed with the
    /// header.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut bytes = self.bytes.clone();
        let checksum = fnv1a64(&bytes[HEADER..]);
        bytes[..4].copy_from_slice(&MAGIC);
        bytes[4..8].copy_from_slice(&CHECKPOINT_VERSION.to_le_bytes());
        bytes[8..HEADER].copy_from_slice(&checksum.to_le_bytes());
        bytes
    }

    /// Takes bytes produced by [`Checkpoint::to_bytes`], checking their
    /// envelope. The payload is checked when a run resumes it.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::BadMagic`] /
    /// [`CheckpointError::UnsupportedVersion`] for foreign bytes,
    /// [`CheckpointError::ChecksumMismatch`] for bit rot, and
    /// [`CheckpointError::Truncated`] for bytes too short to hold the
    /// header and the cycle.
    pub fn from_bytes(bytes: &[u8]) -> Result<Checkpoint, CheckpointError> {
        let word = |at: usize| {
            u64::dec(&mut Reader::new(bytes.get(at..).unwrap_or_default()))
                .map_err(|_| CheckpointError::Truncated)
        };
        if bytes.len() < HEADER {
            return Err(CheckpointError::Truncated);
        }
        if bytes[..4] != MAGIC {
            return Err(CheckpointError::BadMagic);
        }
        let version = u32::from_le_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]);
        if version != CHECKPOINT_VERSION {
            return Err(CheckpointError::UnsupportedVersion { found: version });
        }
        if fnv1a64(&bytes[HEADER..]) != word(8)? {
            return Err(CheckpointError::ChecksumMismatch);
        }
        // The cycle follows the three fingerprints.
        let cycle = word(HEADER + 24)?;
        Ok(Checkpoint { bytes: bytes.to_vec(), cycle })
    }

    /// An empty buffer for a snapshot to write its payload into, after
    /// room for the header.
    pub(crate) fn buffer() -> Vec<u8> {
        vec![0; HEADER]
    }

    /// The checkpoint of a machine paused at `cycle` whose payload
    /// `bytes`, a [`Checkpoint::buffer`], holds. Its header is written only
    /// by [`Checkpoint::to_bytes`].
    pub(crate) fn of_payload(bytes: Vec<u8>, cycle: u64) -> Checkpoint {
        Checkpoint { bytes, cycle }
    }

    /// A cursor at the start of the payload.
    pub(crate) fn payload(&self) -> Reader<'_> {
        Reader::new(&self.bytes[HEADER..])
    }
}

/// Fingerprint of a configuration: every field that affects the machine's
/// cycle-level behaviour, folded with the watchdog's signature mixer.
pub(crate) fn fingerprint_config(cfg: &MatRaptorConfig) -> u64 {
    let mut s = mix_signature(0, cfg.num_lanes() as u64);
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
    fn dec(r: &mut Reader<'_>) -> Result<Self, Mismatch> {
        Ok(match r.tag(2)? {
            0 => ATok::Entry {
                val: f64::dec(r)?,
                row: u32::dec(r)?,
                col: u32::dec(r)?,
                last_in_row: bool::dec(r)?,
            },
            _ => ATok::EmptyRow { row: u32::dec(r)? },
        })
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
    fn dec(r: &mut Reader<'_>) -> Result<Self, Mismatch> {
        Ok(match r.tag(3)? {
            0 => PeTok::Product { val: f64::dec(r)?, col: u32::dec(r)? },
            1 => PeTok::EndOfVector,
            _ => PeTok::EndOfRow { row: u32::dec(r)? },
        })
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
    fn dec(r: &mut Reader<'_>) -> Result<Self, Mismatch> {
        Ok(match r.tag(2)? {
            0 => VectorMode::Direct { queue: usize::dec(r)? },
            _ => VectorMode::Merge { src: usize::dec(r)?, helper: usize::dec(r)? },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A checkpoint of a small payload: the three fingerprints, the
    /// cycle 42, then one A token.
    fn tiny() -> Checkpoint {
        let mut out = Checkpoint::buffer();
        (1u64, 2u64, 3u64).enc(&mut out);
        42u64.enc(&mut out);
        ATok::Entry { val: 0.5, row: 1, col: 2, last_in_row: true }.enc(&mut out);
        Checkpoint::of_payload(out, 42)
    }

    #[test]
    fn byte_round_trip_is_exact() {
        let ck = tiny();
        let bytes = ck.to_bytes();
        let back = Checkpoint::from_bytes(&bytes).expect("round trip");
        assert_eq!(back.to_bytes(), bytes);
        assert_eq!(back.cycle(), 42);
        let mut r = back.payload();
        assert_eq!(<((u64, u64), (u64, u64))>::dec(&mut r), Ok(((1, 2), (3, 42))));
        let tok = ATok::dec(&mut r).expect("the token reads back");
        assert!(matches!(tok, ATok::Entry { row: 1, col: 2, last_in_row: true, .. }));
        assert_eq!(r.finish(), Ok(()));
    }

    #[test]
    fn checksum_is_the_shared_workspace_fnv1a64() {
        // The checkpoint checksum and the trace/report fingerprints must be
        // the same hash: the header's u64 at bytes [8..16] is exactly
        // `matraptor_sim::trace::fnv1a64` over the payload.
        let bytes = tiny().to_bytes();
        let mut sum = [0u8; 8];
        sum.copy_from_slice(&bytes[8..16]);
        assert_eq!(u64::from_le_bytes(sum), matraptor_sim::trace::fnv1a64(&bytes[16..]));
    }

    #[test]
    fn config_fingerprints_are_pinned() {
        // Every checkpoint carries this digest, so a change to what it
        // hashes, or in what order, moves every checkpoint's bytes.
        assert_eq!(fingerprint_config(&MatRaptorConfig::default()), 0xab81450236ad0b8f);
        assert_eq!(fingerprint_config(&MatRaptorConfig::small_test()), 0x5b603b8f3e2cd693);
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = tiny().to_bytes();
        bytes[0] = b'X';
        match Checkpoint::from_bytes(&bytes) {
            Err(CheckpointError::BadMagic) => {}
            other => panic!("expected bad-magic error, got {other:?}"),
        }
    }

    #[test]
    fn wrong_version_rejected() {
        let mut bytes = tiny().to_bytes();
        bytes[4] = 99;
        match Checkpoint::from_bytes(&bytes) {
            Err(CheckpointError::UnsupportedVersion { found: 99 }) => {}
            other => panic!("expected version error, got {other:?}"),
        }
    }

    #[test]
    fn corrupted_payload_fails_checksum() {
        let mut bytes = tiny().to_bytes();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        match Checkpoint::from_bytes(&bytes) {
            Err(CheckpointError::ChecksumMismatch) => {}
            other => panic!("expected checksum error, got {other:?}"),
        }
    }

    #[test]
    fn truncated_stream_rejected() {
        let bytes = tiny().to_bytes();
        match Checkpoint::from_bytes(&bytes[..10]) {
            Err(CheckpointError::Truncated) => {}
            other => panic!("expected truncation error, got {other:?}"),
        }
        // A sealed payload too short to hold the cycle.
        let short = [Checkpoint::buffer(), vec![0; 31]].concat();
        let short = Checkpoint::of_payload(short, 0).to_bytes();
        match Checkpoint::from_bytes(&short) {
            Err(CheckpointError::Truncated) => {}
            other => panic!("expected truncation error, got {other:?}"),
        }
    }
}
