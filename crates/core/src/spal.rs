//! Sparse Matrix A Loader (SpAL).

use std::collections::VecDeque;

use matraptor_sim::codec::{Dec, Enc, Mismatch, Reader};
use matraptor_sim::trace::{StageBreakdown, StageClass};
use matraptor_sim::watchdog::mix_signature;
use matraptor_sparse::C2sr;

use crate::config::MatRaptorConfig;
use crate::layout::{MatrixLayout, RowPlan, INFO_BYTES};
use crate::port::{MemPort, Tag};
use crate::tokens::ATok;

/// The per-lane loader for matrix A (Section IV-B).
///
/// SpAL owns the rows of A that C²SR assigned to its lane's channel
/// (`row ≡ lane (mod lanes)`). For each row it first fetches the *(row
/// length, row pointer)* pair, then streams the row's `(value, col id)`
/// data with wide vectorized reads sized to the channel interleaving, and
/// forwards `(a_ik, i, k)` tuples downstream. Outstanding-request queues
/// let it pipeline fetches instead of stalling on each response.
#[derive(Debug)]
pub struct SpAl {
    // conformance:allow(checkpoint-coverage): lane identity is structural; restore rebuilds the loader in place for the same lane
    lane: usize,
    // conformance:allow(checkpoint-coverage): row assignment is derived from (lane, layout) at construction, identical across a restore of the same job
    rows: Vec<u32>,
    /// Where matrix A lives.
    layout: MatrixLayout,
    /// Next row whose info fetch may be issued.
    info_cursor: usize,
    /// Next row whose data fetches may be issued (gated on its info).
    data_cursor: usize,
    /// Rows whose info response has arrived.
    info_ready: Vec<bool>,
    /// Data requests still to issue for the row currently being issued.
    current_plan: RowPlan,
    /// Entry cursor within the current row (for decode bookkeeping).
    entries_issued: u32,
    /// In-flight info fetches. Each one's row position rides its route
    /// ([`Tag::SpAlInfo`]).
    pending_info: usize,
    /// In-flight data fetches. The entries each one carries ride its route
    /// ([`Tag::SpAlData`]).
    pending_data: usize,
    /// Decoded tokens awaiting the downstream FIFO.
    staging: VecDeque<ATok>,
    /// In-flight request budget.
    in_flight: usize,
    // conformance:allow(checkpoint-coverage): fixed hardware constant from config, never mutated after construction
    max_outstanding: usize,
    /// Cap on decoded-but-unforwarded tokens, bounding lookahead.
    // conformance:allow(checkpoint-coverage): fixed hardware constant from config, never mutated after construction
    staging_cap: usize,
    /// Per-cycle attribution: exactly one bucket is charged per tick, so
    /// the buckets sum to the cycles this unit was ticked.
    attribution: StageBreakdown,
    /// Whether the last tick changed nothing but `attribution`.
    // conformance:allow(checkpoint-coverage): derived by every tick; a restored lane starts awake and ticks before it is read
    quiet: bool,
    /// The bucket the last tick charged, which [`SpAl::replay_stall`]
    /// charges again.
    // conformance:allow(checkpoint-coverage): derived by every tick; read only while `quiet`
    charged: StageClass,
}

impl SpAl {
    /// Builds the loader for `lane`, with no rows until a
    /// [`SpAl::reset`] assigns a job's.
    pub(crate) fn new(lane: usize, cfg: &MatRaptorConfig, layout: MatrixLayout) -> Self {
        SpAl {
            lane,
            rows: Vec::new(),
            layout,
            info_cursor: 0,
            data_cursor: 0,
            info_ready: Vec::new(),
            current_plan: RowPlan::default(),
            entries_issued: 0,
            pending_info: 0,
            pending_data: 0,
            staging: VecDeque::new(),
            in_flight: 0,
            max_outstanding: cfg.outstanding_requests,
            // Keep decode-ahead shallow: SpAL's own channel also serves
            // latency-critical B reads from every other lane, so running
            // hundreds of rows ahead only inflates queueing delay.
            staging_cap: 2 * cfg.coupling_fifo_depth,
            attribution: StageBreakdown::default(),
            quiet: false,
            charged: StageClass::Idle,
        }
    }

    /// Returns the loader to its cycle-0 state for the job whose A is `a`,
    /// keeping its storage. It takes the global row → lane round-robin
    /// assignment over `num_lanes` lanes from the C²SR matrix itself.
    pub(crate) fn reset(&mut self, a: &C2sr<f64>, num_lanes: usize) {
        self.rows.clear();
        self.rows.extend((self.lane..a.rows()).step_by(num_lanes).map(|r| r as u32));
        self.info_ready.clear();
        self.info_ready.resize(self.rows.len(), false);
        self.info_cursor = 0;
        self.data_cursor = 0;
        self.current_plan = RowPlan::default();
        self.entries_issued = 0;
        self.pending_info = 0;
        self.pending_data = 0;
        self.staging.clear();
        self.in_flight = 0;
        self.attribution = StageBreakdown::default();
        self.quiet = false;
        self.charged = StageClass::Idle;
    }

    /// Handles the response to the info fetch of the `row_pos`-th row.
    pub(crate) fn on_info(&mut self, row_pos: usize) {
        self.info_ready[row_pos] = true;
        self.pending_info -= 1;
        self.in_flight -= 1;
    }

    /// Handles the response to a data fetch carrying entries
    /// `first_entry..first_entry + count` of the `row_pos`-th row.
    pub(crate) fn on_data(&mut self, row_pos: usize, first_entry: u32, count: u32, a: &C2sr<f64>) {
        self.pending_data -= 1;
        self.in_flight -= 1;
        let row = self.rows[row_pos] as usize;
        let (cols, vals) = a.row_slices(row);
        let len = cols.len() as u32;
        for e in first_entry..first_entry + count {
            self.staging.push_back(ATok::Entry {
                val: vals[e as usize],
                row: row as u32,
                col: cols[e as usize],
                last_in_row: e + 1 == len,
            });
        }
    }

    /// One accelerator cycle: issue requests (info prefetch + data
    /// streaming) and forward at most one token downstream.
    pub(crate) fn tick(
        &mut self,
        port: &mut MemPort<'_>,
        a: &C2sr<f64>,
        out: &mut VecDeque<ATok>,
        out_cap: usize,
    ) {
        let layout = &self.layout;
        // Attribution bookkeeping only — `moved` never gates behaviour, so
        // the traced and untraced dynamics are identical by construction.
        let mut moved = false;
        // Whether the tick changed state without moving anything.
        let mut planned = false;

        // Forward one decoded token per cycle.
        if out.len() < out_cap {
            if let Some(tok) = self.staging.pop_front() {
                out.push_back(tok);
                moved = true;
            }
        }

        if self.staging.len() >= self.staging_cap {
            // downstream backpressure: stop fetching ahead
            self.quiet = !moved;
            self.charged = if moved { StageClass::Busy } else { StageClass::QueueStall };
            self.attribution.charge(self.charged);
            return;
        }

        // Prefetch row infos (up to a short lookahead window).
        while self.info_cursor < self.rows.len()
            && self.info_cursor < self.data_cursor + 32
            && self.in_flight < self.max_outstanding
        {
            let row = self.rows[self.info_cursor] as usize;
            let addr = layout.info_addr(row);
            if !port.try_read(Tag::SpAlInfo { row_pos: self.info_cursor }, addr, INFO_BYTES) {
                break;
            }
            self.pending_info += 1;
            self.in_flight += 1;
            self.info_cursor += 1;
            moved = true;
        }

        // Stream data for the current row once its info has landed.
        loop {
            if self.current_plan.is_empty() {
                // Advance to the next row that has info.
                if self.data_cursor >= self.rows.len() {
                    break;
                }
                if !self.info_ready[self.data_cursor] {
                    break;
                }
                let row = self.rows[self.data_cursor] as usize;
                let info = a.row_info(row);
                if info.len == 0 {
                    // Empty A row: emit the marker so the output row (also
                    // empty) still gets written. Gate on drained data
                    // responses — staging must stay in row order, and
                    // in-flight data belongs to earlier rows.
                    if self.pending_data > 0 {
                        break;
                    }
                    self.staging.push_back(ATok::EmptyRow { row: row as u32 });
                    self.data_cursor += 1;
                    moved = true;
                    continue;
                }
                self.current_plan = layout.row_plan(self.lane, info);
                self.entries_issued = 0;
                planned = true;
            }
            // Issue as many of the planned reads as the budget allows.
            let mut progressed = false;
            while let Some((addr, bytes)) = self.current_plan.front(layout) {
                if self.in_flight >= self.max_outstanding {
                    break;
                }
                let count = layout.entries_in(bytes);
                let tag = Tag::SpAlData {
                    row_pos: self.data_cursor,
                    first_entry: self.entries_issued,
                    count,
                };
                if !port.try_read(tag, addr, bytes) {
                    break;
                }
                self.pending_data += 1;
                self.entries_issued += count;
                self.in_flight += 1;
                self.current_plan.pop_front(layout);
                progressed = true;
            }
            if progressed {
                moved = true;
            }
            if self.current_plan.is_empty() && progressed {
                self.data_cursor += 1;
                continue;
            }
            break;
        }

        // Classify the cycle. Priority: any token or request movement is
        // Busy; a finished unit is Idle; a unit that only failed to
        // forward because the downstream FIFO is full is queue-stalled;
        // everything else (responses in flight, refused requests) is
        // memory-stalled.
        self.quiet = !moved && !planned;
        self.charged = if moved {
            StageClass::Busy
        } else if self.is_done() {
            StageClass::Idle
        } else if !self.staging.is_empty() && out.len() >= out_cap {
            StageClass::QueueStall
        } else {
            StageClass::MemStall
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

    /// Whether every assigned row has been fetched and forwarded.
    pub(crate) fn is_done(&self) -> bool {
        self.data_cursor >= self.rows.len() && self.in_flight == 0 && self.staging.is_empty()
    }

    /// Forward-progress signature for the watchdog: folds every cursor
    /// and occupancy that changes when this unit moves a token or a
    /// request. Deliberately excludes anything that advances while the
    /// unit is merely waiting.
    pub(crate) fn progress_signature(&self) -> u64 {
        let mut sig = mix_signature(0, self.info_cursor as u64);
        sig = mix_signature(sig, self.data_cursor as u64);
        sig = mix_signature(sig, self.in_flight as u64);
        sig = mix_signature(sig, self.staging.len() as u64);
        sig = mix_signature(sig, self.pending_info as u64);
        sig = mix_signature(sig, self.pending_data as u64);
        sig = mix_signature(sig, self.current_plan.len(&self.layout) as u64);
        mix_signature(sig, self.entries_issued as u64)
    }

    /// Occupancy snapshot for deadlock diagnostics:
    /// `(in_flight, staging, rows_remaining)`.
    pub(crate) fn occupancy(&self) -> (usize, usize, usize) {
        (self.in_flight, self.staging.len(), self.rows.len().saturating_sub(self.data_cursor))
    }

    /// Writes all mutable state into a checkpoint, with the lane's
    /// in-flight `tags` in id order, from which SpAL's own are taken. The
    /// lane index, row assignment, and budgets are rebuilt by
    /// [`SpAl::reset`] before a restore.
    pub(crate) fn snapshot(
        &self,
        tags: impl Iterator<Item = (u64, Tag)> + Clone,
        out: &mut Vec<u8>,
    ) {
        (self.info_cursor, self.data_cursor).enc(out);
        self.info_ready.enc(out);
        self.current_plan.enc(&self.layout, out);
        self.entries_issued.enc(out);
        self.pending_info.enc(out);
        for (id, tag) in tags.clone() {
            if let Tag::SpAlInfo { row_pos } = tag {
                (id, row_pos).enc(out);
            }
        }
        self.pending_data.enc(out);
        for (id, tag) in tags {
            if let Tag::SpAlData { row_pos, first_entry, count } = tag {
                (id, row_pos).enc(out);
                (first_entry, count).enc(out);
            }
        }
        self.staging.enc(out);
        self.in_flight.enc(out);
        self.attribution.enc(out);
    }

    /// Reads a [`SpAl::snapshot`] back into a loader reset for the same
    /// `(lane, config, matrix)` triple, appending the tags of its in-flight
    /// requests to `tags` for the route table.
    ///
    /// # Errors
    ///
    /// [`Mismatch`] if the checkpoint assigns the lane another number of
    /// rows, or its bytes are malformed.
    pub(crate) fn restore(
        &mut self,
        r: &mut Reader<'_>,
        tags: &mut Vec<(u64, Tag)>,
    ) -> Result<(), Mismatch> {
        (self.info_cursor, self.data_cursor) = Dec::dec(r)?;
        r.count_of(self.info_ready.len(), "SpAL's row count differs from the job's")?;
        for ready in &mut self.info_ready {
            *ready = bool::dec(r)?;
        }
        self.current_plan = RowPlan::dec(&self.layout, r)?;
        self.entries_issued = u32::dec(r)?;
        self.pending_info = r.count()?;
        for _ in 0..self.pending_info {
            let (id, row_pos) = Dec::dec(r)?;
            tags.push((id, Tag::SpAlInfo { row_pos }));
        }
        self.pending_data = r.count()?;
        for _ in 0..self.pending_data {
            let (id, row_pos) = Dec::dec(r)?;
            let (first_entry, count) = Dec::dec(r)?;
            tags.push((id, Tag::SpAlData { row_pos, first_entry, count }));
        }
        r.append(&mut self.staging)?;
        self.in_flight = usize::dec(r)?;
        self.attribution = Dec::dec(r)?;
        Ok(())
    }
}
