//! The lane-side handle to the shared memory system (the crossbar of
//! Fig. 5a).

use matraptor_mem::{channel_bit, Hbm, MemRequest};
use matraptor_sim::{Cycle, IdTable};

/// The unit of a lane that issued a memory request, which its response is
/// delivered straight back to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Unit {
    SpAl,
    SpBl,
    Writer,
}

/// Where a memory response goes: the issuing lane and unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Route {
    pub lane: usize,
    pub unit: Unit,
}

/// A borrowed view of the memory system handed to each lane during its
/// tick. Allocates globally unique request ids and records which lane and
/// unit each request belongs to so responses can be routed back (the
/// crossbar is partial — each SpAL/PE talks to one channel — which the
/// address layout already encodes; the route map is the model's
/// bookkeeping, not extra hardware).
#[derive(Debug)]
pub(crate) struct MemPort<'a> {
    pub hbm: &'a mut Hbm,
    /// Memory-domain time of the current accelerator cycle.
    pub mem_now: Cycle,
    pub next_id: &'a mut u64,
    /// Request id → issuing lane and unit, for response routing.
    pub route: &'a mut IdTable<Route>,
    /// The lane currently ticking.
    pub lane: usize,
    /// The channels of every request the HBM refused through this port,
    /// as an [`Hbm::channel_mask`] union: what a stalled lane waits on.
    pub refused: u64,
}

impl MemPort<'_> {
    /// Attempts to issue a read for `unit`; returns the request id if
    /// accepted.
    pub(crate) fn try_read(&mut self, unit: Unit, addr: u64, bytes: u32) -> Option<u64> {
        self.try_submit(unit, MemRequest::read(*self.next_id, addr, bytes))
    }

    /// Attempts to issue a write; returns the request id if accepted.
    pub(crate) fn try_write(&mut self, addr: u64, bytes: u32) -> Option<u64> {
        self.try_submit(Unit::Writer, MemRequest::write(*self.next_id, addr, bytes))
    }

    /// Whether a request confined to `channel` would be refused because
    /// the channel's queue is full ([`Hbm::full_channels`]). A hit is
    /// recorded in [`MemPort::refused`] exactly as a refused submit would
    /// be, so callers can skip building the request.
    #[inline]
    pub(crate) fn channel_full(&mut self, channel: usize) -> bool {
        let bit = channel_bit(channel);
        let full = self.hbm.full_channels() & bit != 0;
        if full {
            self.refused |= bit;
        }
        full
    }

    fn try_submit(&mut self, unit: Unit, req: MemRequest) -> Option<u64> {
        if let Err(mask) = self.hbm.submit(self.mem_now, req) {
            self.refused |= mask;
            return None;
        }
        self.route.insert(req.id.0, Route { lane: self.lane, unit });
        *self.next_id += 1;
        Some(req.id.0)
    }
}
