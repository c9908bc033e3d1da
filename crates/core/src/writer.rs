//! Per-lane output writer: streams finished C rows to the lane's channel.

use std::collections::VecDeque;

use matraptor_sim::codec::{Dec, Enc, Mismatch, Reader};
use matraptor_sim::trace::{StageBreakdown, StageClass};
use matraptor_sim::watchdog::mix_signature;
use matraptor_sparse::{check_c2sr_pointers, C2srRow, Csr};

use crate::config::MatRaptorConfig;
use crate::layout::{MatrixLayout, INFO_BYTES};
use crate::port::{MemPort, Tag};

/// A completed row of a [`Writer`]: its entries end at `end` in the
/// writer's flat buffers and start where the previous row's end.
#[derive(Debug, Clone, Copy)]
struct DoneRow {
    row: u32,
    end: usize,
    /// Entries of padding left in the C²SR stream because the row
    /// overflowed the sorting queues and was delegated to the CPU
    /// (Section VII's upper-bound gap). Zero for normal rows.
    padded_entries: u64,
}

/// The Phase II output path of a lane: buffers merged entries into
/// burst-sized writes and appends them to the lane's own channel — no
/// synchronisation with other lanes, which is the C²SR write-path claim of
/// Section III-B.
#[derive(Debug)]
pub(crate) struct Writer {
    // conformance:allow(checkpoint-coverage): lane identity is structural; the restore path rebuilds the writer in place for the same lane
    lane: usize,
    /// Channel-local byte cursor within the C data region.
    local_cursor: u64,
    /// Entries buffered toward the next burst write.
    buffered_bytes: u32,
    /// Write requests accepted by the buffer but not yet by the HBM.
    queue: VecDeque<(u64, u32)>,
    /// Writes in flight, each routed back as a [`Tag::WriterAck`].
    pub(crate) pending: usize,
    /// Current row being assembled.
    cur_row: Option<u32>,
    /// The entries of every completed row, in completion (= row) order
    /// for this lane, then those of the row being assembled: C as the lane
    /// writes it to its channel, held functionally until the run
    /// completes.
    cols: Vec<u32>,
    vals: Vec<f64>,
    /// The completed rows, in order, each with where its entries end.
    done: Vec<DoneRow>,
    // conformance:allow(checkpoint-coverage): derived from config at construction; restore runs against the fingerprint-checked config
    entry_bytes: u32,
    // conformance:allow(checkpoint-coverage): fixed hardware constant, never mutated after construction
    queue_cap: usize,
    /// Where matrix C lives.
    // conformance:allow(checkpoint-coverage): derived from the config at construction, identical across a restore of the same job
    layout: MatrixLayout,
    /// Total entries accepted via `push_entry` (fault bookkeeping).
    entries_pushed: u64,
    /// Fault injection: silently drop the append with this ordinal.
    /// One-shot; cleared after firing.
    pub(crate) fault_drop_append: Option<u64>,
    /// Appends actually dropped by the fault (campaign reporting).
    pub(crate) dropped_appends: u64,
    /// Per-cycle attribution: exactly one bucket is charged per tick.
    attribution: StageBreakdown,
    /// Whether the last tick changed nothing but `attribution`.
    // conformance:allow(checkpoint-coverage): derived by every tick; a restored lane starts awake and ticks before it is read
    quiet: bool,
    /// The bucket the last tick charged, which [`Writer::replay_stall`]
    /// charges again.
    // conformance:allow(checkpoint-coverage): derived by every tick; read only while `quiet`
    charged: StageClass,
}

impl Writer {
    pub(crate) fn new(lane: usize, cfg: &MatRaptorConfig, layout: MatrixLayout) -> Self {
        Writer {
            layout,
            lane,
            local_cursor: 0,
            buffered_bytes: 0,
            queue: VecDeque::new(),
            pending: 0,
            cur_row: None,
            cols: Vec::new(),
            vals: Vec::new(),
            done: Vec::new(),
            entry_bytes: u32::try_from(cfg.entry_bytes).unwrap_or(u32::MAX),
            queue_cap: 16,
            entries_pushed: 0,
            fault_drop_append: None,
            dropped_appends: 0,
            attribution: StageBreakdown::default(),
            quiet: false,
            charged: StageClass::Idle,
        }
    }

    /// Returns the writer to its cycle-0 state, keeping its storage.
    pub(crate) fn reset(&mut self) {
        self.local_cursor = 0;
        self.buffered_bytes = 0;
        self.queue.clear();
        self.pending = 0;
        self.cur_row = None;
        self.cols.clear();
        self.vals.clear();
        self.done.clear();
        self.entries_pushed = 0;
        self.fault_drop_append = None;
        self.dropped_appends = 0;
        self.attribution = StageBreakdown::default();
        self.quiet = false;
        self.charged = StageClass::Idle;
    }

    /// Where the entries of the row being assembled start.
    fn row_start(&self) -> usize {
        self.done.last().map_or(0, |r| r.end)
    }

    /// The completed rows in order: each row's index, columns, values and
    /// padding entries.
    pub(crate) fn finished(&self) -> impl Iterator<Item = (u32, &[u32], &[f64], u64)> {
        let starts = std::iter::once(0).chain(self.done.iter().map(|r| r.end));
        self.done.iter().zip(starts).map(|(r, start)| {
            (r.row, &self.cols[start..r.end], &self.vals[start..r.end], r.padded_entries)
        })
    }

    /// Whether Phase II may emit another entry this cycle.
    pub(crate) fn can_accept(&self) -> bool {
        self.queue.len() < self.queue_cap
    }

    /// Accepts one merged `(col, val)` entry for row `row`.
    pub(crate) fn push_entry(&mut self, row: u32, col: u32, val: f64, cfg: &MatRaptorConfig) {
        debug_assert!(self.can_accept());
        let ordinal = self.entries_pushed;
        self.entries_pushed += 1;
        if self.fault_drop_append == Some(ordinal) {
            // Injected silent data loss: the entry vanishes between the
            // adder tree and the write buffer. Detected (if at all) only
            // by the output-integrity cross-check downstream.
            self.fault_drop_append = None;
            self.dropped_appends += 1;
            return;
        }
        if self.cur_row != Some(row) {
            debug_assert!(self.cur_row.is_none(), "previous row not finished");
            self.cur_row = Some(row);
        }
        self.cols.push(col);
        self.vals.push(val);
        self.buffered_bytes = self.buffered_bytes.saturating_add(self.entry_bytes);
        if self.buffered_bytes as u64 >= cfg.mem.interleave_bytes as u64 {
            self.flush_data_burst();
        }
    }

    /// Completes row `row`: flushes the partial burst and writes the
    /// *(length, pointer)* metadata pair.
    pub(crate) fn finish_row(&mut self, row: u32) {
        debug_assert!(self.cur_row.is_none() || self.cur_row == Some(row));
        if self.buffered_bytes > 0 {
            self.flush_data_burst();
        }
        self.queue.push_back((self.layout.info_addr(row as usize), INFO_BYTES));
        self.done.push(DoneRow { row, end: self.cols.len(), padded_entries: 0 });
        self.cur_row = None;
    }

    /// Records an overflowed row (Section VII): the accelerator leaves an
    /// upper-bound-sized gap in the output stream and hands the row to the
    /// CPU; `compute` appends the CPU-computed columns and values so the
    /// run's functional output stays complete.
    pub(crate) fn record_overflow_row(
        &mut self,
        row: u32,
        upper_bound_entries: u64,
        compute: impl FnOnce(&mut Vec<u32>, &mut Vec<f64>),
    ) {
        debug_assert!(self.cur_row.is_none(), "overflow row with partial write state");
        // The gap is address-space only: the hardware writes nothing here.
        self.local_cursor += upper_bound_entries * self.entry_bytes as u64;
        compute(&mut self.cols, &mut self.vals);
        self.done.push(DoneRow { row, end: self.cols.len(), padded_entries: upper_bound_entries });
    }

    fn flush_data_burst(&mut self) {
        let local = self.layout.data_base_local + self.local_cursor;
        let addr = self.layout.map.local_to_flat(self.lane, local);
        self.queue.push_back((addr, self.buffered_bytes));
        self.local_cursor += self.buffered_bytes as u64;
        self.buffered_bytes = 0;
    }

    /// One accelerator cycle: issue at most one queued write.
    pub(crate) fn tick(&mut self, port: &mut MemPort<'_>) {
        let mut issued = false;
        if let Some(&(addr, bytes)) = self.queue.front() {
            if port.try_write(addr, bytes) {
                self.pending += 1;
                self.queue.pop_front();
                issued = true;
            }
        }
        // A writer with queued-but-refused or in-flight writes is waiting
        // on memory; one merely assembling a row (or drained) has no work
        // of its own and is idle.
        self.quiet = !issued;
        self.charged = if issued {
            StageClass::Busy
        } else if !self.queue.is_empty() || self.pending > 0 {
            StageClass::MemStall
        } else {
            StageClass::Idle
        };
        self.attribution.charge(self.charged);
    }

    /// Whether the last tick changed nothing but the attribution, so with
    /// the same memory answers the next tick would repeat it exactly.
    pub(crate) fn is_quiet(&self) -> bool {
        self.quiet
    }

    /// Repeats the last tick's only effect, its charge, for `n` cycles —
    /// the ticks a sleeping lane owes.
    pub(crate) fn replay_stall(&mut self, n: u64) {
        self.attribution.charge_cycles(self.charged, n);
    }

    /// Per-cycle busy/stall attribution for this unit.
    pub(crate) fn attribution(&self) -> &StageBreakdown {
        &self.attribution
    }

    /// Handles a write acknowledgement.
    pub(crate) fn on_ack(&mut self) {
        self.pending -= 1;
    }

    /// Whether every accepted entry has been written and acknowledged.
    pub(crate) fn is_done(&self) -> bool {
        self.queue.is_empty()
            && self.pending == 0
            && self.buffered_bytes == 0
            && self.cur_row.is_none()
    }

    /// Forward-progress signature for the watchdog.
    pub(crate) fn progress_signature(&self) -> u64 {
        let mut sig = mix_signature(0, self.entries_pushed);
        sig = mix_signature(sig, self.queue.len() as u64);
        sig = mix_signature(sig, self.pending as u64);
        sig = mix_signature(sig, self.buffered_bytes as u64);
        sig = mix_signature(sig, self.done.len() as u64);
        mix_signature(sig, self.local_cursor)
    }

    /// Occupancy snapshot for deadlock diagnostics: `(queued, pending)`.
    pub(crate) fn occupancy(&self) -> (usize, usize) {
        (self.queue.len(), self.pending)
    }

    /// Writes all mutable state into a checkpoint, with the lane's
    /// in-flight `tags` in id order, from which the writer's own are taken:
    /// the row being assembled, then each completed row with its entries.
    /// The lane binding and region base are the writer's own, which a
    /// restore keeps.
    pub(crate) fn snapshot(&self, tags: impl Iterator<Item = (u64, Tag)>, out: &mut Vec<u8>) {
        (self.local_cursor, self.buffered_bytes, &self.queue).enc(out);
        self.pending.enc(out);
        for (id, tag) in tags {
            if tag == Tag::WriterAck {
                id.enc(out);
            }
        }
        let start = self.row_start();
        (self.cur_row, &self.cols[start..], &self.vals[start..]).enc(out);
        self.done.len().enc(out);
        for (row, cols, vals, padded_entries) in self.finished() {
            (row, cols, vals).enc(out);
            padded_entries.enc(out);
        }
        (self.entries_pushed, self.fault_drop_append, self.dropped_appends).enc(out);
        self.attribution.enc(out);
    }

    /// Reads a [`Writer::snapshot`] back into a writer reset for the same
    /// `(lane, config, layout)` triple, appending the tags of its in-flight
    /// writes to `tags` for the route table.
    ///
    /// # Errors
    ///
    /// [`Mismatch`] if the columns and values differ in number, or the
    /// bytes are malformed.
    pub(crate) fn restore(
        &mut self,
        r: &mut Reader<'_>,
        tags: &mut Vec<(u64, Tag)>,
    ) -> Result<(), Mismatch> {
        (self.local_cursor, self.buffered_bytes) = Dec::dec(r)?;
        r.append(&mut self.queue)?;
        self.pending = r.count()?;
        for _ in 0..self.pending {
            tags.push((u64::dec(r)?, Tag::WriterAck));
        }
        let (cur_row, mut cur_cols, mut cur_vals): (_, Vec<u32>, Vec<f64>) = Dec::dec(r)?;
        self.cur_row = cur_row;
        for _ in 0..r.count()? {
            let row = u32::dec(r)?;
            r.append(&mut self.cols)?;
            r.append(&mut self.vals)?;
            let (end, padded_entries) = (self.cols.len(), u64::dec(r)?);
            self.done.push(DoneRow { row, end, padded_entries });
        }
        self.cols.append(&mut cur_cols);
        self.vals.append(&mut cur_vals);
        if self.cols.len() != self.vals.len() {
            return Err(Mismatch("the writer holds another number of columns than values"));
        }
        (self.entries_pushed, self.fault_drop_append, self.dropped_appends) = Dec::dec(r)?;
        self.attribution = Dec::dec(r)?;
        Ok(())
    }
}

/// C as the `rows` × `cols` CSR product, written once from the output
/// streams of the lanes' `writers`, lane 0 first, if those streams hold
/// valid C²SR with one channel per lane (lane `l` writes the rows of
/// channel `l`). The check is [`matraptor_sparse::C2sr::validate`]'s rule,
/// made without copying the streams: each row's *(length, pointer)* pair
/// and each channel's total go through [`check_c2sr_pointers`], and
/// [`Csr::from_parts`] checks each row's columns. A row past `rows`, or
/// one finished again once its pair is set, is refused too.
pub(crate) fn assemble_c<'w>(
    rows: usize,
    cols: usize,
    writers: impl Iterator<Item = &'w Writer> + Clone,
) -> Option<Csr<f64>> {
    const UNSET: C2srRow = C2srRow { len: 0, offset: 0 };
    let mut channel_entries = vec![0usize; writers.clone().count()];
    let mut info = vec![UNSET; rows];
    for (row, row_cols, ..) in writers.clone().flat_map(Writer::finished) {
        let pair = info.get_mut(row as usize).filter(|pair| **pair == UNSET)?;
        let channel = row as usize % channel_entries.len();
        *pair = C2srRow { len: row_cols.len() as u32, offset: channel_entries[channel] as u32 };
        channel_entries[channel] += row_cols.len();
    }
    check_c2sr_pointers(&info, &channel_entries).ok()?;
    let mut row_ptr = Vec::with_capacity(rows + 1);
    let mut nnz = 0;
    row_ptr.push(nnz);
    for pair in &info {
        nnz += pair.len as usize;
        row_ptr.push(nnz);
    }
    let (mut col_idx, mut values) = (vec![0; nnz], vec![0.0; nnz]);
    for (row, row_cols, row_vals, _) in writers.flat_map(Writer::finished) {
        let start = row_ptr[row as usize];
        col_idx[start..start + row_cols.len()].copy_from_slice(row_cols);
        values[start..start + row_vals.len()].copy_from_slice(row_vals);
    }
    Csr::from_parts(rows, cols, row_ptr, col_idx, values).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::{matrix_layout, Regions};

    /// A finished row: the lane that wrote it, its index and its columns.
    type Row<'r> = (usize, u32, &'r [u32]);

    /// The writers of two lanes that finished `rows` in order, each entry
    /// valued as its column.
    fn writers(rows: &[Row<'_>]) -> Vec<Writer> {
        let cfg = MatRaptorConfig::small_test();
        let layout = matrix_layout(&cfg, Regions::DEFAULT.c_info, Regions::DEFAULT.c_data);
        let mut writers: Vec<Writer> = (0..2).map(|l| Writer::new(l, &cfg, layout)).collect();
        for &(lane, row, cols) in rows {
            writers[lane].record_overflow_row(row, 0, |c, v| {
                c.extend_from_slice(cols);
                v.extend(cols.iter().map(|&col| f64::from(col)));
            });
        }
        writers
    }

    /// C as 4 × 4 CSR from the streams of `rows`, if they are C²SR.
    fn assembled(rows: &[Row<'_>]) -> Option<Csr<f64>> {
        assemble_c(4, 4, writers(rows).iter())
    }

    /// Clean streams of the sparsity of Fig. 3's A: rows 0 and 2 on lane
    /// 0, rows 1 and 3 on lane 1, which finish them independently.
    const CLEAN: [Row<'static>; 4] =
        [(1, 1, &[3]), (0, 0, &[0, 2, 3]), (1, 3, &[1, 2]), (0, 2, &[1])];

    #[test]
    fn clean_streams_assemble_to_the_product_in_csr() {
        let cols = vec![0, 2, 3, 3, 1, 1, 2];
        let vals = cols.iter().map(|&c| f64::from(c)).collect();
        let want = Csr::from_parts(4, 4, vec![0, 3, 4, 5, 7], cols, vals).expect("valid CSR");
        assert_eq!(assembled(&CLEAN), Some(want));
        // Rows no lane finished are empty, if no entries precede them on
        // their channel.
        let late = assembled(&CLEAN[2..]).map(|c| c.row_ptr().to_vec());
        assert_eq!(late, Some(vec![0, 0, 0, 1, 3]));
    }

    #[test]
    fn streams_that_are_not_c2sr_are_refused() {
        let edited = |at: usize, row: Row<'static>| {
            let mut rows = CLEAN.to_vec();
            rows[at] = row;
            rows
        };
        let cases = [
            ("unsorted columns", edited(1, (0, 0, &[2, 0, 3]))),
            ("a repeated column", edited(1, (0, 0, &[0, 2, 2]))),
            ("a column past C's", edited(2, (1, 3, &[1, 9]))),
            ("a row past C's", [&CLEAN[..], &[(1, 5, &[1])]].concat()),
            ("a row finished twice", [&CLEAN[..], &[(1, 3, &[1, 2])]].concat()),
            (
                "rows out of their channel's order",
                [&CLEAN[..1], &CLEAN[2..], &CLEAN[1..2]].concat(),
            ),
            ("a row missing after its channel's entries", CLEAN[..2].to_vec()),
        ];
        for (what, rows) in cases {
            assert_eq!(assembled(&rows), None, "{what}");
        }
    }
}
