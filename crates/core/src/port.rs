//! The lane-side handle to the shared memory system (the crossbar of
//! Fig. 5a).

use matraptor_mem::{channel_bit, Hbm, MemRequest};
use matraptor_sim::{Cycle, IdTable};

/// What a memory response means to the unit that issued the request: the
/// unit's own bookkeeping for it, carried by the route table and handed
/// straight back with the response, so no unit keeps a table of its own.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Tag {
    /// SpAL's row info for its `row_pos`-th assigned row.
    SpAlInfo { row_pos: usize },
    /// SpAL's row data: entries `first_entry..first_entry + count` of its
    /// `row_pos`-th assigned row.
    SpAlData { row_pos: usize, first_entry: u32, count: u32 },
    /// SpBL's row info for job `job_seq`.
    SpBlInfo { job_seq: u64 },
    /// SpBL's row data: the next `count` entries of job `job_seq`.
    SpBlData { job_seq: u64, count: u32 },
    /// The writer's acknowledgement of a write.
    WriterAck,
}

/// Where a memory response goes: the issuing lane, and what it means to
/// the issuing unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Route {
    pub lane: usize,
    pub tag: Tag,
}

/// A borrowed view of the memory system handed to each lane during its
/// tick. Allocates globally unique request ids and records each request's
/// lane and [`Tag`] so responses can be routed back (the crossbar is
/// partial — each SpAL/PE talks to one channel — which the address layout
/// already encodes; the route map is the model's bookkeeping, not extra
/// hardware).
#[derive(Debug)]
pub(crate) struct MemPort<'a> {
    pub hbm: &'a mut Hbm,
    /// Memory-domain time of the current accelerator cycle.
    pub mem_now: Cycle,
    pub next_id: &'a mut u64,
    /// Request id → issuing lane and tag, for response routing.
    pub route: &'a mut IdTable<Route>,
    /// The lane currently ticking.
    pub lane: usize,
    /// The channels of every request the HBM refused through this port,
    /// as an [`Hbm::channel_mask`] union: what a stalled lane waits on.
    pub refused: u64,
}

impl MemPort<'_> {
    /// Attempts to issue a read whose response is handed back with `tag`;
    /// returns whether the HBM accepted it.
    pub(crate) fn try_read(&mut self, tag: Tag, addr: u64, bytes: u32) -> bool {
        self.try_submit(tag, MemRequest::read(*self.next_id, addr, bytes))
    }

    /// Attempts to issue a write; returns whether the HBM accepted it.
    pub(crate) fn try_write(&mut self, addr: u64, bytes: u32) -> bool {
        self.try_submit(Tag::WriterAck, MemRequest::write(*self.next_id, addr, bytes))
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

    /// The union of `waiting[c]` over every full channel `c`: the bits of
    /// the requests waiting on channels that would refuse them. Each full
    /// channel with a waiter is recorded in [`MemPort::refused`], as if
    /// its waiters had been refused.
    #[inline]
    pub(crate) fn full_waiters(&mut self, waiting: &[u64]) -> u64 {
        let mut blocked = 0;
        let mut full = self.hbm.full_channels();
        while full != 0 {
            let channel = full.trailing_zeros() as usize;
            full &= full - 1;
            if waiting[channel] != 0 {
                blocked |= waiting[channel];
                self.refused |= channel_bit(channel);
            }
        }
        blocked
    }

    fn try_submit(&mut self, tag: Tag, req: MemRequest) -> bool {
        if let Err(mask) = self.hbm.submit(self.mem_now, req) {
            self.refused |= mask;
            return false;
        }
        self.route.insert(req.id.0, Route { lane: self.lane, tag });
        *self.next_id += 1;
        true
    }
}
