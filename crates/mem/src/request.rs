//! Memory request/response types.

use std::fmt;

use matraptor_sim::codec::{Dec, Enc, Mismatch, Reader};
use matraptor_sim::plain_struct;

/// Unique id for an in-flight memory request, chosen by the requester.
///
/// The accelerator encodes the requesting unit in the id so responses can
/// be routed back through the crossbar without a full content-addressable
/// match.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RequestId(pub u64);

impl Enc for RequestId {
    fn enc(&self, out: &mut Vec<u8>) {
        self.0.enc(out);
    }
}
impl Dec for RequestId {
    fn dec(r: &mut Reader<'_>) -> Result<Self, Mismatch> {
        Ok(RequestId(u64::dec(r)?))
    }
}

impl fmt::Display for RequestId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "req#{}", self.0)
    }
}

/// Read or write.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemKind {
    /// Data travels memory → requester.
    Read,
    /// Data travels requester → memory.
    Write,
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
    fn dec(r: &mut Reader<'_>) -> Result<Self, Mismatch> {
        Ok(if r.tag(2)? == 0 { MemKind::Read } else { MemKind::Write })
    }
}

/// A memory request over the flat, channel-interleaved address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemRequest {
    /// Requester-chosen identifier echoed in the response.
    pub id: RequestId,
    /// Read or write.
    pub kind: MemKind,
    /// Flat byte address.
    pub addr: u64,
    /// Useful payload size in bytes. May span several bursts and/or
    /// interleave blocks (in which case the request is split internally
    /// and completes when the last fragment does).
    pub bytes: u32,
}

impl MemRequest {
    /// Convenience constructor for a read.
    pub fn read(id: u64, addr: u64, bytes: u32) -> Self {
        MemRequest { id: RequestId(id), kind: MemKind::Read, addr, bytes }
    }

    /// Convenience constructor for a write.
    pub fn write(id: u64, addr: u64, bytes: u32) -> Self {
        MemRequest { id: RequestId(id), kind: MemKind::Write, addr, bytes }
    }
}

/// Completion notification for a [`MemRequest`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemResponse {
    /// The id of the completed request.
    pub id: RequestId,
    /// Read or write (echoed).
    pub kind: MemKind,
    /// Useful bytes transferred (echoed from the request).
    pub bytes: u32,
}

plain_struct!(MemResponse { id, kind, bytes });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        let r = MemRequest::read(7, 0x40, 64);
        assert_eq!(r.id, RequestId(7));
        assert_eq!(r.kind, MemKind::Read);
        let w = MemRequest::write(8, 0, 8);
        assert_eq!(w.kind, MemKind::Write);
    }

    #[test]
    fn display() {
        assert_eq!(RequestId(3).to_string(), "req#3");
    }
}
