//! Memory layout of the three C²SR matrices in the flat address space.

use matraptor_mem::AddressMap;
use matraptor_sim::Divisor;
use matraptor_sparse::C2srRow;

use crate::config::MatRaptorConfig;

/// Base addresses of the six regions (A/B/C × info/data).
///
/// Each base is a multiple of `interleave_bytes × num_channels`, so adding
/// a base never changes which channel a channel-local offset maps to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Regions {
    pub a_info: u64,
    pub a_data: u64,
    pub b_info: u64,
    pub b_data: u64,
    pub c_info: u64,
    pub c_data: u64,
}

impl Regions {
    pub(crate) const DEFAULT: Regions = Regions {
        a_info: 0x0000_0000,
        a_data: 0x1000_0000,
        b_info: 0x2000_0000,
        b_data: 0x3000_0000,
        c_info: 0x4000_0000,
        c_data: 0x5000_0000,
    };
}

/// Address computation for one C²SR matrix.
///
/// The *(row length, row pointer)* array lives flat and channel-interleaved
/// at `info_base` (8 B per row — the paper's pair of 4 B words). The
/// *(value, col id)* data lives as per-channel streams: entry `e` of
/// channel `ch` sits at channel-local byte `e × entry_bytes`, mapped to a
/// flat address by the interleaving.
///
/// The layout also carries the precomputed address arithmetic the loaders
/// and writers use every cycle, so none of them divides by a
/// configuration constant.
#[derive(Debug, Clone, Copy)]
pub(crate) struct MatrixLayout {
    pub info_base: u64,
    /// Channel-local byte offset where the data region begins.
    pub data_base_local: u64,
    /// Bytes per *(value, col id)* entry.
    pub entry: Divisor,
    /// Streaming request size: data requests are cut at its multiples.
    pub chunk: Divisor,
    pub map: AddressMap,
}

/// Bytes per *(row length, row pointer)* metadata pair.
pub(crate) const INFO_BYTES: u32 = 8;

impl MatrixLayout {
    /// Flat address of row `row`'s metadata pair.
    pub(crate) fn info_addr(&self, row: usize) -> u64 {
        self.info_base + row as u64 * INFO_BYTES as u64
    }

    /// The requests streaming a row's data within its channel.
    pub(crate) fn row_plan(&self, channel: usize, info: C2srRow) -> RowPlan {
        let pos = self.data_base_local + info.offset as u64 * self.entry.get();
        RowPlan { channel, pos, end: pos + info.len as u64 * self.entry.get() }
    }

    /// Entries carried by a data request of `bytes`.
    pub(crate) fn entries_in(&self, bytes: u32) -> u32 {
        // At most `bytes`, which is a u32.
        self.entry.quotient(bytes as u64) as u32
    }
}

/// The data requests covering one row, generated on demand rather than
/// materialised per row: the channel-local byte range `[pos, end)` of
/// `channel`, cut at request-size boundaries so each request is one
/// aligned streaming access confined to one interleave block (so no
/// request splits across channels).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct RowPlan {
    channel: usize,
    pos: u64,
    end: u64,
}

impl RowPlan {
    /// Whether every request has been issued.
    pub(crate) fn is_empty(&self) -> bool {
        self.pos >= self.end
    }

    /// Channel-local end of the next request.
    fn next_stop(&self, layout: &MatrixLayout) -> u64 {
        ((layout.chunk.quotient(self.pos) + 1) * layout.chunk.get()).min(self.end)
    }

    /// The next request as `(flat_addr, bytes)`.
    pub(crate) fn front(&self, layout: &MatrixLayout) -> Option<(u64, u32)> {
        if self.is_empty() {
            return None;
        }
        let stop = self.next_stop(layout);
        // At most one request size, which is a u32.
        Some((layout.map.local_to_flat(self.channel, self.pos), (stop - self.pos) as u32))
    }

    /// Drops the next request (it was issued).
    pub(crate) fn pop_front(&mut self, layout: &MatrixLayout) {
        self.pos = self.next_stop(layout);
    }

    /// Requests left to issue.
    pub(crate) fn len(&self, layout: &MatrixLayout) -> usize {
        if self.is_empty() {
            return 0;
        }
        // Bounded by the row's entry count, which is a usize.
        (layout.chunk.quotient(self.end - 1) - layout.chunk.quotient(self.pos) + 1) as usize
    }

    /// The remaining requests, in issue order — the checkpoint form.
    pub(crate) fn requests(mut self, layout: &MatrixLayout) -> Vec<(u64, u32)> {
        let mut out = Vec::with_capacity(self.len(layout));
        while let Some(req) = self.front(layout) {
            out.push(req);
            self.pop_front(layout);
        }
        out
    }

    /// Rebuilds a plan from its checkpoint form.
    ///
    /// # Panics
    ///
    /// Panics if `reqs` is not the tail of one row's request stream — a
    /// checkpoint can only hold what [`RowPlan::requests`] produced.
    pub(crate) fn from_requests(layout: &MatrixLayout, reqs: &[(u64, u32)]) -> RowPlan {
        let (Some(&(first, _)), Some(&(last, last_len))) = (reqs.first(), reqs.last()) else {
            return RowPlan::default();
        };
        let plan = RowPlan {
            channel: layout.map.channel_of(first),
            pos: layout.map.local_offset(first),
            end: layout.map.local_offset(last) + last_len as u64,
        };
        assert_eq!(plan.requests(layout), reqs, "checkpointed request plan is not a row stream");
        plan
    }
}

/// Builds the layout for a matrix given its region bases.
///
/// `data_base_flat` is rounded down to a multiple of
/// `interleave × num_channels` (the region anchors are spaced 256 MB
/// apart, so alignment never causes overlap); its channel-local
/// equivalent is the aligned base divided by the channel count.
pub(crate) fn matrix_layout(
    cfg: &MatRaptorConfig,
    info_base: u64,
    data_base_flat: u64,
) -> MatrixLayout {
    let mem = &cfg.mem;
    let stripe = mem.interleave_bytes as u64 * mem.num_channels as u64;
    let aligned = data_base_flat / stripe * stripe;
    MatrixLayout {
        info_base,
        data_base_local: aligned / mem.num_channels as u64,
        entry: Divisor::new(cfg.entry_bytes as u64),
        chunk: Divisor::new(cfg.read_request_bytes as u64),
        map: AddressMap::new(mem),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use matraptor_mem::HbmConfig;

    /// A layout over `mem` with 8 B entries and 64 B requests.
    fn layout(mem: HbmConfig, info_base: u64, data_base: u64) -> MatrixLayout {
        let cfg = MatRaptorConfig {
            mem,
            entry_bytes: 8,
            read_request_bytes: 64,
            ..MatRaptorConfig::default()
        };
        matrix_layout(&cfg, info_base, data_base)
    }

    #[test]
    fn info_addresses_are_dense() {
        let l = layout(HbmConfig::with_channels(2), 0x100, 0x1000);
        assert_eq!(l.info_addr(0), 0x100);
        assert_eq!(l.info_addr(3), 0x118);
    }

    #[test]
    fn row_requests_stay_on_channel_and_cover_row() {
        let cfg = HbmConfig::with_channels(4);
        let l = layout(cfg.clone(), 0, 0x1000);
        // Row with 20 entries (160 B) starting at entry 5 (byte 40) on
        // channel 3.
        let plan = l.row_plan(3, C2srRow { len: 20, offset: 5 });
        let reqs = plan.requests(&l);
        assert_eq!(plan.len(&l), reqs.len());
        let total: u32 = reqs.iter().map(|&(_, b)| b).sum();
        assert_eq!(total, 160);
        for &(addr, bytes) in &reqs {
            assert_eq!(cfg.channel_of_addr(addr), 3);
            assert!(bytes <= 64);
        }
        // First request is the misaligned head: from byte 40 to the 64 B
        // boundary + region base offset (0x1000/4 = 0x400 is 64-aligned).
        assert_eq!(reqs[0].1, 24);
    }

    #[test]
    fn plan_issues_the_same_stream_one_request_at_a_time() {
        let cfg = HbmConfig::default();
        let l = layout(cfg.clone(), 0, 0x3000_0000);
        let mut plan = l.row_plan(5, C2srRow { len: 37, offset: 3 });
        let all = plan.requests(&l);
        // The flat addresses follow the channel-local stream exactly.
        let base = l.data_base_local + 3 * 8;
        let mut local = base;
        for &(addr, bytes) in &all {
            assert_eq!(addr, cfg.channel_local_to_flat(5, local));
            local += bytes as u64;
        }
        assert_eq!(local, base + 37 * 8);
        for (k, &req) in all.iter().enumerate() {
            assert_eq!(plan.len(&l), all.len() - k);
            // Every tail round-trips through its checkpoint form.
            assert_eq!(RowPlan::from_requests(&l, &all[k..]), plan);
            assert_eq!(plan.front(&l), Some(req));
            plan.pop_front(&l);
        }
        assert!(plan.is_empty());
        assert_eq!(plan.front(&l), None);
        assert_eq!(plan.len(&l), 0);
    }

    #[test]
    #[should_panic(expected = "not a row stream")]
    fn a_gapped_checkpoint_plan_is_rejected() {
        let l = layout(HbmConfig::default(), 0, 0);
        let reqs = l.row_plan(0, C2srRow { len: 24, offset: 0 }).requests(&l);
        let _ = RowPlan::from_requests(&l, &[reqs[0], reqs[2]]);
    }

    #[test]
    fn empty_row_has_no_requests() {
        let l = layout(HbmConfig::with_channels(2), 0, 0);
        let plan = l.row_plan(0, C2srRow { len: 0, offset: 9 });
        assert!(plan.is_empty());
        assert!(plan.requests(&l).is_empty());
        assert_eq!(RowPlan::from_requests(&l, &[]), RowPlan::default());
    }

    #[test]
    fn misaligned_base_is_rounded_down() {
        let cfg = HbmConfig::with_channels(8);
        let l = layout(cfg.clone(), 0, 100);
        // 100 rounds down to 0 under a 512 B stripe.
        let reqs = l.row_plan(0, C2srRow { len: 1, offset: 0 }).requests(&l);
        assert_eq!(cfg.channel_of_addr(reqs[0].0), 0);
    }

    #[test]
    fn default_regions_are_stripe_aligned_for_paper_config() {
        let cfg = HbmConfig::default();
        let stripe = cfg.interleave_bytes as u64 * cfg.num_channels as u64;
        for base in [Regions::DEFAULT.a_data, Regions::DEFAULT.b_data, Regions::DEFAULT.c_data] {
            assert_eq!(base % stripe, 0);
        }
    }
}
