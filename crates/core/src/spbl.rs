//! Sparse Matrix B Loader (SpBL).

use std::collections::VecDeque;

use matraptor_sim::trace::{StageBreakdown, StageClass};
use matraptor_sim::watchdog::mix_signature;
use matraptor_sim::IdTable;
use matraptor_sparse::C2sr;

use crate::checkpoint::{JobState, SpBlState};
use crate::config::MatRaptorConfig;
use crate::layout::{MatrixLayout, RowPlan, INFO_BYTES};
use crate::port::MemPort;
use crate::tokens::{ATok, PeTok};

/// The per-lane loader for matrix B (Section IV-B).
///
/// For every `(a_ik, i, k)` received from SpAL, SpBL fetches the *(row
/// length, row pointer)* pair of B's row *k*, streams that row's data, and
/// forwards one `a_ik · b_kj` product per cycle to the PE, followed by the
/// end-of-vector / end-of-row markers the merge logic keys on.
///
/// Unlike A, matrix B is *shared* between lanes: row *k* lives on channel
/// `k mod lanes`, so SpBL traffic crosses channels and causes the channel
/// conflicts the paper identifies as the residual gap to peak bandwidth
/// (Section VI-B).
#[derive(Debug)]
pub struct SpBl {
    /// Where matrix B lives.
    // conformance:allow(checkpoint-coverage): derived from the config at construction, identical across a restore of the same job
    layout: MatrixLayout,
    jobs: VecDeque<Job>,
    next_seq: u64,
    /// In-flight info fetches: request id → job sequence number.
    pending_info: IdTable<u64>,
    /// In-flight data fetches: request id → the entries they carry.
    pending_data: IdTable<DataSpan>,
    /// The jobs [`Job::issuable`] says have requests to issue, as a bitset
    /// over `seq % 64` (the window holds at most 32 consecutive sequence
    /// numbers, so bits never collide). The issue loop visits just these
    /// instead of scanning the whole window every cycle.
    // conformance:allow(checkpoint-coverage): derived from `jobs`; restore recomputes it
    issuable: u64,
    staging: VecDeque<PeTok>,
    in_flight: usize,
    // conformance:allow(checkpoint-coverage): fixed hardware constant from config, never mutated after construction
    max_outstanding: usize,
    // conformance:allow(checkpoint-coverage): fixed hardware constant from config, never mutated after construction
    staging_cap: usize,
    /// Diagnostic counters: (blocked-on-data, blocked-on-info, staging-full, no-jobs) cycles.
    blocked: [u64; 4],
    /// Set when an incoming A token referenced a B row outside the
    /// matrix — a corrupted stream. `(col, bound)`; the accelerator
    /// polls this and aborts with `SimError::MalformedInput`.
    malformed: Option<(u32, u32)>,
    /// Per-cycle attribution: exactly one bucket is charged per tick.
    attribution: StageBreakdown,
    /// Whether the last tick changed nothing but `attribution` and one
    /// `blocked` counter.
    // conformance:allow(checkpoint-coverage): derived by every tick; a restored lane starts awake and ticks before it is read
    quiet: bool,
    /// The bucket the last tick charged, which [`SpBl::replay_stall`]
    /// charges again.
    // conformance:allow(checkpoint-coverage): derived by every tick; read only while `quiet`
    charged: StageClass,
    /// The `blocked` counter the last tick bumped, which
    /// [`SpBl::replay_stall`] bumps again.
    // conformance:allow(checkpoint-coverage): derived by every tick; read only while `quiet`
    blocked_on: usize,
}

#[derive(Debug, Clone, Copy)]
struct DataSpan {
    job_seq: u64,
    count: u32,
}

#[derive(Debug)]
struct Job {
    seq: u64,
    kind: JobKind,
    /// B row to fetch (for `Fetch` jobs).
    b_row: u32,
    a_val: f64,
    out_row: u32,
    last_in_row: bool,
    info_requested: bool,
    info_ready: bool,
    /// Data requests still to issue, once the row info has arrived.
    plan: Option<RowPlan>,
    len: u32,
    /// Entries whose data responses have arrived (contiguous prefix —
    /// per-channel ordering guarantees in-order arrival within a job).
    ready_entries: u32,
    /// Entries already turned into product tokens.
    drained_entries: u32,
}

impl Job {
    /// Whether the issue loop has work for this job: its row info is still
    /// to request, or the info has arrived and data is left to fetch.
    fn issuable(&self) -> bool {
        self.kind == JobKind::Fetch
            && (!self.info_requested
                || (self.info_ready && self.plan.is_none_or(|plan| !plan.is_empty())))
    }
}

/// `seq`'s bit in [`SpBl::issuable`].
fn seq_bit(seq: u64) -> u64 {
    1 << (seq % 64)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum JobKind {
    /// Fetch B row `b_row` and emit products.
    Fetch,
    /// Pass-through marker for an empty A row.
    EmptyRow,
}

/// Jobs SpBL holds at once: at most 64, the width of `SpBl::issuable`.
const JOB_WINDOW: usize = 32;
const _: () = assert!(JOB_WINDOW <= 64);

impl SpBl {
    pub(crate) fn new(cfg: &MatRaptorConfig, layout: MatrixLayout) -> Self {
        SpBl {
            layout,
            jobs: VecDeque::new(),
            next_seq: 0,
            pending_info: IdTable::new(),
            pending_data: IdTable::new(),
            issuable: 0,
            staging: VecDeque::new(),
            in_flight: 0,
            max_outstanding: cfg.outstanding_requests,
            staging_cap: 4 * cfg.coupling_fifo_depth,
            blocked: [0; 4],
            malformed: None,
            attribution: StageBreakdown::default(),
            quiet: false,
            charged: StageClass::Idle,
            blocked_on: 0,
        }
    }

    /// Routes a memory response to this unit. Returns `true` if consumed.
    pub(crate) fn on_response(&mut self, id: u64) -> bool {
        if let Some(seq) = self.pending_info.remove(id) {
            self.in_flight -= 1;
            if let Some(job) = self.job_mut(seq) {
                job.info_ready = true;
                if job.issuable() {
                    self.issuable |= seq_bit(seq);
                }
            }
            return true;
        }
        if let Some(span) = self.pending_data.remove(id) {
            self.in_flight -= 1;
            if let Some(job) = self.job_mut(span.job_seq) {
                job.ready_entries += span.count;
            }
            return true;
        }
        false
    }

    fn job_mut(&mut self, seq: u64) -> Option<&mut Job> {
        let front_seq = self.jobs.front()?.seq;
        let idx = (seq - front_seq) as usize;
        self.jobs.get_mut(idx)
    }

    /// One accelerator cycle. `upstream_done` reports whether this lane's
    /// SpAL has fully finished, which disambiguates "idle because the
    /// pipeline is draining" from "queue-stalled on a starved input FIFO"
    /// in the cycle attribution — it gates no behaviour.
    pub(crate) fn tick(
        &mut self,
        port: &mut MemPort<'_>,
        b: &C2sr<f64>,
        input: &mut VecDeque<ATok>,
        out: &mut VecDeque<PeTok>,
        out_cap: usize,
        upstream_done: bool,
    ) {
        let layout = &self.layout;
        // Attribution bookkeeping only — never gates behaviour.
        let mut moved = false;
        // Whether the tick changed state without moving anything.
        let mut changed = false;

        // Forward one token per cycle to the PE.
        if out.len() < out_cap {
            if let Some(tok) = self.staging.pop_front() {
                out.push_back(tok);
                moved = true;
            }
        }

        // Accept new A tokens into the job window.
        while self.jobs.len() < JOB_WINDOW {
            let Some(tok) = input.pop_front() else { break };
            // Bounds check at the stream boundary: a corrupted C²SR
            // stream can carry a column id outside B's row space, which
            // would otherwise turn into a wild row-info fetch. Flag it
            // instead of building the job; the accelerator aborts the run.
            if let ATok::Entry { col, .. } = tok {
                if col as usize >= b.rows() {
                    self.malformed = Some((col, b.rows() as u32));
                    changed = true;
                    break;
                }
            }
            let job = match tok {
                ATok::Entry { val, row, col, last_in_row } => Job {
                    seq: self.next_seq,
                    kind: JobKind::Fetch,
                    b_row: col,
                    a_val: val,
                    out_row: row,
                    last_in_row,
                    info_requested: false,
                    info_ready: false,
                    plan: None,
                    len: 0,
                    ready_entries: 0,
                    drained_entries: 0,
                },
                ATok::EmptyRow { row } => Job {
                    seq: self.next_seq,
                    kind: JobKind::EmptyRow,
                    b_row: 0,
                    a_val: 0.0,
                    out_row: row,
                    last_in_row: true,
                    info_requested: true,
                    info_ready: true,
                    plan: Some(RowPlan::default()),
                    len: 0,
                    ready_entries: 0,
                    drained_entries: 0,
                },
            };
            if job.issuable() {
                self.issuable |= seq_bit(job.seq);
            }
            self.jobs.push_back(job);
            self.next_seq += 1;
            moved = true;
        }

        // Issue info and data requests in job order, visiting only the
        // jobs that have any to issue.
        if self.staging.len() < self.staging_cap {
            let front_seq = self.jobs.front().map_or(0, |j| j.seq);
            let mut todo = self.issuable.rotate_right((front_seq % 64) as u32);
            while todo != 0 {
                if self.in_flight >= self.max_outstanding {
                    break;
                }
                let job = &mut self.jobs[todo.trailing_zeros() as usize];
                todo &= todo - 1;
                if !job.info_requested {
                    if let Some(id) =
                        port.try_read(layout.info_addr(job.b_row as usize), INFO_BYTES)
                    {
                        self.pending_info.insert(id, job.seq);
                        self.in_flight += 1;
                        job.info_requested = true;
                        moved = true;
                    }
                } else {
                    if job.info_ready && job.plan.is_none() {
                        let info = b.row_info(job.b_row as usize);
                        job.len = info.len;
                        job.plan = Some(layout.row_plan(b.channel_of(job.b_row as usize), info));
                        changed = true;
                    }
                    if let Some(plan) = job.plan.as_mut() {
                        while let Some((addr, bytes)) = plan.front(layout) {
                            if self.in_flight >= self.max_outstanding {
                                break;
                            }
                            match port.try_read(addr, bytes) {
                                Some(id) => {
                                    plan.pop_front(layout);
                                    let count = layout.entries_in(bytes);
                                    self.pending_data
                                        .insert(id, DataSpan { job_seq: job.seq, count });
                                    self.in_flight += 1;
                                    moved = true;
                                }
                                None => break,
                            }
                        }
                    }
                }
                if !job.issuable() {
                    self.issuable &= !seq_bit(job.seq);
                }
            }
        }

        // Drain the front job into staging, in order, until it blocks on
        // one of the `blocked` reasons.
        let mut drained_any = false;
        let blocked_on = loop {
            if self.staging.len() >= self.staging_cap {
                break 2;
            }
            let Some(front) = self.jobs.front() else {
                break 3;
            };
            match front.kind {
                JobKind::EmptyRow => {
                    self.staging.push_back(PeTok::EndOfRow { row: front.out_row });
                    self.jobs.pop_front();
                    moved = true;
                }
                JobKind::Fetch => {
                    if !front.info_ready || front.plan.is_none() {
                        break 1;
                    }
                    if front.drained_entries < front.ready_entries {
                        let (b_cols, b_vals) = b.row_slices(front.b_row as usize);
                        let e = front.drained_entries as usize;
                        let val = front.a_val * b_vals[e];
                        let col = b_cols[e];
                        self.staging.push_back(PeTok::Product { val, col });
                        // conformance:allow(panic-safety): invariant: a drain step only runs while a job is at the front
                        self.jobs.front_mut().expect("front exists").drained_entries += 1;
                        drained_any = true;
                    } else if front.drained_entries == front.len
                        && front.plan.as_ref().is_some_and(RowPlan::is_empty)
                    {
                        if front.len > 0 {
                            self.staging.push_back(PeTok::EndOfVector);
                        }
                        if front.last_in_row {
                            self.staging.push_back(PeTok::EndOfRow { row: front.out_row });
                        }
                        self.jobs.pop_front();
                        moved = true;
                    } else {
                        break 0; // waiting for data responses
                    }
                }
            }
        };
        if !drained_any {
            self.blocked[blocked_on] += 1;
        }
        moved |= drained_any;

        // Classify the cycle. Movement of any token, request, or job is
        // Busy. A fully drained unit is Idle once SpAL has finished, and
        // queue-stalled (starved input FIFO) while it has not. Otherwise
        // the stall is a queue stall when the only obstruction is a full
        // staging/output FIFO, and a memory stall when the front job is
        // waiting on row info or data responses. A tick that moved nothing
        // bumped exactly one `blocked` counter.
        self.quiet = !moved && !changed;
        self.blocked_on = blocked_on;
        self.charged = if moved {
            StageClass::Busy
        } else if self.jobs.is_empty() && self.staging.is_empty() && self.in_flight == 0 {
            if upstream_done {
                StageClass::Idle
            } else {
                StageClass::QueueStall
            }
        } else if (!self.staging.is_empty() && out.len() >= out_cap)
            || self.staging.len() >= self.staging_cap
        {
            StageClass::QueueStall
        } else {
            StageClass::MemStall
        };
        self.attribution.charge(self.charged);
    }

    /// Whether the last tick changed nothing but its counters, so with the
    /// same memory answers the next tick would repeat it exactly.
    pub(crate) fn is_quiet(&self) -> bool {
        self.quiet
    }

    /// Repeats the last tick's only effects, its counter updates — the
    /// tick of a sleeping lane.
    pub(crate) fn replay_stall(&mut self) {
        self.blocked[self.blocked_on] += 1;
        self.attribution.charge(self.charged);
    }

    /// Per-cycle busy/stall attribution for this unit.
    pub(crate) fn attribution(&self) -> &StageBreakdown {
        &self.attribution
    }

    /// Whether all accepted jobs have been fully forwarded.
    pub(crate) fn is_done(&self) -> bool {
        self.jobs.is_empty() && self.staging.is_empty() && self.in_flight == 0
    }

    /// The malformed-stream flag, if the bounds check tripped.
    pub(crate) fn malformed_input(&self) -> Option<(u32, u32)> {
        self.malformed
    }

    /// Forward-progress signature for the watchdog. Folds job/stage
    /// occupancies and the front job's drain cursors — but *not* the
    /// `blocked` counters, which advance precisely while the unit is
    /// stuck and would mask a deadlock.
    pub(crate) fn progress_signature(&self) -> u64 {
        let mut sig = mix_signature(0, self.next_seq);
        sig = mix_signature(sig, self.jobs.len() as u64);
        sig = mix_signature(sig, self.staging.len() as u64);
        sig = mix_signature(sig, self.in_flight as u64);
        sig = mix_signature(sig, self.pending_info.len() as u64);
        sig = mix_signature(sig, self.pending_data.len() as u64);
        if let Some(f) = self.jobs.front() {
            sig = mix_signature(sig, u64::from(f.info_requested) | u64::from(f.info_ready) << 1);
            sig = mix_signature(sig, f.ready_entries as u64);
            sig = mix_signature(sig, f.drained_entries as u64);
            sig = mix_signature(
                sig,
                f.plan.as_ref().map_or(u64::MAX, |p| p.len(&self.layout) as u64),
            );
        }
        sig
    }

    /// Occupancy snapshot for deadlock diagnostics:
    /// `(jobs, in_flight, staging)`.
    pub(crate) fn occupancy(&self) -> (usize, usize, usize) {
        (self.jobs.len(), self.in_flight, self.staging.len())
    }

    /// Captures all mutable state for a checkpoint. Budgets and window
    /// sizes are rebuilt by [`SpBl::new`] on restore.
    pub(crate) fn snapshot(&self) -> SpBlState {
        SpBlState {
            jobs: self
                .jobs
                .iter()
                .map(|j| JobState {
                    seq: j.seq,
                    is_fetch: j.kind == JobKind::Fetch,
                    b_row: j.b_row,
                    a_val: j.a_val,
                    out_row: j.out_row,
                    last_in_row: j.last_in_row,
                    info_requested: j.info_requested,
                    info_ready: j.info_ready,
                    plan: j.plan.map(|p| p.requests(&self.layout)),
                    len: j.len,
                    ready_entries: j.ready_entries,
                    drained_entries: j.drained_entries,
                })
                .collect(),
            next_seq: self.next_seq,
            pending_info: self.pending_info.iter().map(|(id, &seq)| (id, seq)).collect(),
            pending_data: self
                .pending_data
                .iter()
                .map(|(id, span)| (id, span.job_seq, span.count))
                .collect(),
            staging: self.staging.iter().copied().collect(),
            in_flight: self.in_flight as u64,
            blocked: self.blocked,
            malformed: self.malformed,
            attribution: self.attribution.as_array(),
        }
    }

    /// Restores a snapshot into a freshly constructed loader built from
    /// the same configuration.
    pub(crate) fn restore(&mut self, state: &SpBlState) {
        self.jobs = state
            .jobs
            .iter()
            .map(|j| Job {
                seq: j.seq,
                kind: if j.is_fetch { JobKind::Fetch } else { JobKind::EmptyRow },
                b_row: j.b_row,
                a_val: j.a_val,
                out_row: j.out_row,
                last_in_row: j.last_in_row,
                info_requested: j.info_requested,
                info_ready: j.info_ready,
                plan: j.plan.as_ref().map(|p| RowPlan::from_requests(&self.layout, p)),
                len: j.len,
                ready_entries: j.ready_entries,
                drained_entries: j.drained_entries,
            })
            .collect();
        self.next_seq = state.next_seq;
        self.pending_info = state.pending_info.iter().copied().collect();
        self.pending_data = state
            .pending_data
            .iter()
            .map(|&(id, job_seq, count)| (id, DataSpan { job_seq, count }))
            .collect();
        self.staging = state.staging.iter().copied().collect();
        self.in_flight = state.in_flight as usize;
        self.blocked = state.blocked;
        self.malformed = state.malformed;
        self.attribution = StageBreakdown::from_array(state.attribution);
        self.issuable =
            self.jobs.iter().filter(|j| j.issuable()).fold(0, |bits, j| bits | seq_bit(j.seq));
    }
}
