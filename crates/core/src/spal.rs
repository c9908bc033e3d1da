//! Sparse Matrix A Loader (SpAL).

use std::collections::VecDeque;

use matraptor_sim::trace::{StageBreakdown, StageClass};
use matraptor_sim::watchdog::mix_signature;
use matraptor_sim::IdTable;
use matraptor_sparse::C2sr;

use crate::checkpoint::{SpAlSpanState, SpAlState};
use crate::config::MatRaptorConfig;
use crate::layout::{MatrixLayout, RowPlan, INFO_BYTES};
use crate::port::MemPort;
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
    // conformance:allow(checkpoint-coverage): derived from the config at construction, identical across a restore of the same job
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
    /// In-flight info fetches: request id → row position.
    pending_info: IdTable<usize>,
    /// In-flight data fetches: request id → the entries they carry.
    pending_data: IdTable<DataSpan>,
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

/// Which entries of which row a data response carries.
#[derive(Debug, Clone, Copy)]
struct DataSpan {
    row_pos: usize,
    first_entry: u32,
    count: u32,
}

impl SpAl {
    /// Builds the loader for `lane`, taking the global row → lane
    /// round-robin assignment from the C²SR matrix itself.
    pub(crate) fn new(
        lane: usize,
        cfg: &MatRaptorConfig,
        a: &C2sr<f64>,
        layout: MatrixLayout,
    ) -> Self {
        let rows: Vec<u32> = (lane..a.rows()).step_by(cfg.num_lanes).map(|r| r as u32).collect();
        let n = rows.len();
        SpAl {
            lane,
            rows,
            layout,
            info_cursor: 0,
            data_cursor: 0,
            info_ready: vec![false; n],
            current_plan: RowPlan::default(),
            entries_issued: 0,
            pending_info: IdTable::new(),
            pending_data: IdTable::new(),
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

    /// Handles a memory response routed to this unit. Returns `true` if
    /// the id belonged to SpAL.
    pub(crate) fn on_response(&mut self, id: u64, a: &C2sr<f64>) -> bool {
        if let Some(row_pos) = self.pending_info.remove(id) {
            self.info_ready[row_pos] = true;
            self.in_flight -= 1;
            return true;
        }
        if let Some(span) = self.pending_data.remove(id) {
            self.in_flight -= 1;
            let row = self.rows[span.row_pos] as usize;
            let (cols, vals) = a.row_slices(row);
            let len = cols.len() as u32;
            for e in span.first_entry..span.first_entry + span.count {
                self.staging.push_back(ATok::Entry {
                    val: vals[e as usize],
                    row: row as u32,
                    col: cols[e as usize],
                    last_in_row: e + 1 == len,
                });
            }
            return true;
        }
        false
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
            match port.try_read(addr, INFO_BYTES) {
                Some(id) => {
                    self.pending_info.insert(id, self.info_cursor);
                    self.in_flight += 1;
                    self.info_cursor += 1;
                    moved = true;
                }
                None => break,
            }
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
                    if !self.pending_data.is_empty() {
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
                match port.try_read(addr, bytes) {
                    Some(id) => {
                        let count = layout.entries_in(bytes);
                        self.pending_data.insert(
                            id,
                            DataSpan {
                                row_pos: self.data_cursor,
                                first_entry: self.entries_issued,
                                count,
                            },
                        );
                        self.entries_issued += count;
                        self.in_flight += 1;
                        self.current_plan.pop_front(layout);
                        progressed = true;
                    }
                    None => break,
                }
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

    /// Repeats the last tick's only effect, its charge — the tick of a
    /// sleeping lane.
    pub(crate) fn replay_stall(&mut self) {
        self.attribution.charge(self.charged);
    }

    /// Per-cycle busy/stall attribution for this unit.
    pub(crate) fn attribution(&self) -> &StageBreakdown {
        &self.attribution
    }

    /// Whether every assigned row has been fetched and forwarded.
    pub(crate) fn is_done(&self) -> bool {
        self.data_cursor >= self.rows.len() && self.in_flight == 0 && self.staging.is_empty()
    }

    /// Rows of A assigned to this lane (for the Fig. 11 load-imbalance
    /// study).
    pub fn assigned_rows(&self) -> &[u32] {
        &self.rows
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
        sig = mix_signature(sig, self.pending_info.len() as u64);
        sig = mix_signature(sig, self.pending_data.len() as u64);
        sig = mix_signature(sig, self.current_plan.len(&self.layout) as u64);
        mix_signature(sig, self.entries_issued as u64)
    }

    /// Occupancy snapshot for deadlock diagnostics:
    /// `(in_flight, staging, rows_remaining)`.
    pub(crate) fn occupancy(&self) -> (usize, usize, usize) {
        (self.in_flight, self.staging.len(), self.rows.len().saturating_sub(self.data_cursor))
    }

    /// Captures all mutable state for a checkpoint. The lane index, row
    /// assignment, and budgets are rebuilt by [`SpAl::new`] on restore.
    pub(crate) fn snapshot(&self) -> SpAlState {
        SpAlState {
            info_cursor: self.info_cursor as u64,
            data_cursor: self.data_cursor as u64,
            info_ready: self.info_ready.clone(),
            current_plan: self.current_plan.requests(&self.layout),
            entries_issued: self.entries_issued,
            pending_info: self.pending_info.iter().map(|(id, &pos)| (id, pos as u64)).collect(),
            pending_data: self
                .pending_data
                .iter()
                .map(|(id, span)| {
                    (
                        id,
                        SpAlSpanState {
                            row_pos: span.row_pos as u64,
                            first_entry: span.first_entry,
                            count: span.count,
                        },
                    )
                })
                .collect(),
            staging: self.staging.iter().copied().collect(),
            in_flight: self.in_flight as u64,
            attribution: self.attribution.as_array(),
        }
    }

    /// Restores a snapshot into a freshly constructed loader for the same
    /// `(lane, config, matrix)` triple.
    pub(crate) fn restore(&mut self, state: &SpAlState) {
        assert_eq!(
            self.info_ready.len(),
            state.info_ready.len(),
            "SpAL restore: assigned-row count mismatch"
        );
        self.info_cursor = state.info_cursor as usize;
        self.data_cursor = state.data_cursor as usize;
        self.info_ready = state.info_ready.clone();
        self.current_plan = RowPlan::from_requests(&self.layout, &state.current_plan);
        self.entries_issued = state.entries_issued;
        self.pending_info =
            state.pending_info.iter().map(|&(id, pos)| (id, pos as usize)).collect();
        self.pending_data = state
            .pending_data
            .iter()
            .map(|(id, span)| {
                (
                    *id,
                    DataSpan {
                        row_pos: span.row_pos as usize,
                        first_entry: span.first_entry,
                        count: span.count,
                    },
                )
            })
            .collect();
        self.staging = state.staging.iter().copied().collect();
        self.in_flight = state.in_flight as usize;
        self.attribution = StageBreakdown::from_array(state.attribution);
    }
}
