//! The lane-side handle to the shared memory system (the crossbar of
//! Fig. 5a).

use matraptor_mem::{Hbm, MemRequest};
use matraptor_sim::{Cycle, IdTable};

/// A borrowed view of the memory system handed to each lane during its
/// tick. Allocates globally unique request ids and records which lane each
/// request belongs to so responses can be routed back (the crossbar is
/// partial — each SpAL/PE talks to one channel — which the address layout
/// already encodes; the route map is the model's bookkeeping, not extra
/// hardware).
#[derive(Debug)]
pub(crate) struct MemPort<'a> {
    pub hbm: &'a mut Hbm,
    /// Memory-domain time of the current accelerator cycle.
    pub mem_now: Cycle,
    pub next_id: &'a mut u64,
    /// Request id → lane index, for response routing.
    pub route: &'a mut IdTable<usize>,
    /// The lane currently ticking.
    pub lane: usize,
    /// The channels of every request the HBM refused through this port,
    /// as an [`Hbm::channel_mask`] union: what a stalled lane waits on.
    pub refused: u64,
}

impl MemPort<'_> {
    /// Attempts to issue a read; returns the request id if accepted.
    pub(crate) fn try_read(&mut self, addr: u64, bytes: u32) -> Option<u64> {
        self.try_submit(MemRequest::read(*self.next_id, addr, bytes))
    }

    /// Attempts to issue a write; returns the request id if accepted.
    pub(crate) fn try_write(&mut self, addr: u64, bytes: u32) -> Option<u64> {
        self.try_submit(MemRequest::write(*self.next_id, addr, bytes))
    }

    fn try_submit(&mut self, req: MemRequest) -> Option<u64> {
        if !self.hbm.submit(self.mem_now, req) {
            self.refused |= self.hbm.channel_mask(&req);
            return None;
        }
        self.route.insert(req.id.0, self.lane);
        *self.next_id += 1;
        Some(req.id.0)
    }
}
