//! Sparse Matrix B Loader (SpBL).

use std::collections::VecDeque;

use matraptor_sim::codec::{Dec, Enc, Mismatch, Reader};
use matraptor_sim::trace::{StageBreakdown, StageClass};
use matraptor_sim::watchdog::mix_signature;
use matraptor_sparse::C2sr;

use crate::config::MatRaptorConfig;
use crate::layout::{MatrixLayout, RowPlan, INFO_BYTES};
use crate::port::{MemPort, Tag};
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
    layout: MatrixLayout,
    jobs: VecDeque<Job>,
    next_seq: u64,
    /// In-flight info fetches. Each one's job rides its route
    /// ([`Tag::SpBlInfo`]).
    pending_info: usize,
    /// In-flight data fetches. The entries each one carries ride its route
    /// ([`Tag::SpBlData`]).
    pending_data: usize,
    /// The jobs [`Job::issuable`] says have requests to issue, as a bitset
    /// over `seq % 64` (the window holds at most 32 consecutive sequence
    /// numbers, so bits never collide). The issue loop visits just these
    /// instead of scanning the whole window every cycle.
    // conformance:allow(checkpoint-coverage): derived from `jobs`; restore recomputes it
    issuable: u64,
    /// The jobs of `issuable` by the channel of their next read
    /// ([`Job::read_channel`]); a job whose row plan is still to be built
    /// is in none. The issue loop skips the jobs of full channels.
    // conformance:allow(checkpoint-coverage): derived from `jobs`; restore recomputes it
    issuable_on: Vec<u64>,
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

    /// The channel of an issuable job's next read: its row info's until
    /// that is requested, then its row data's. `None` for a job with
    /// nothing to issue or whose row plan is still to be built.
    fn read_channel(&self, layout: &MatrixLayout) -> Option<usize> {
        if !self.issuable() {
            None
        } else if !self.info_requested {
            Some(layout.map.channel_of(layout.info_addr(self.b_row as usize)))
        } else {
            self.plan.map(|plan| plan.channel())
        }
    }

    /// Writes the job into a checkpoint, its row plan in request form.
    fn snapshot(&self, layout: &MatrixLayout, out: &mut Vec<u8>) {
        (self.seq, self.kind == JobKind::Fetch, self.b_row).enc(out);
        (self.a_val, self.out_row, self.last_in_row).enc(out);
        (self.info_requested, self.info_ready).enc(out);
        match self.plan {
            None => out.push(0),
            Some(plan) => {
                out.push(1);
                plan.enc(layout, out);
            }
        }
        (self.len, self.ready_entries, self.drained_entries).enc(out);
    }

    /// Reads a job [`Job::snapshot`] wrote.
    fn restore(layout: &MatrixLayout, r: &mut Reader<'_>) -> Result<Job, Mismatch> {
        let (seq, is_fetch, b_row) = Dec::dec(r)?;
        let (a_val, out_row, last_in_row) = Dec::dec(r)?;
        let (info_requested, info_ready) = Dec::dec(r)?;
        let plan = if r.tag(2)? == 1 { Some(RowPlan::dec(layout, r)?) } else { None };
        let (len, ready_entries, drained_entries) = Dec::dec(r)?;
        let kind = if is_fetch { JobKind::Fetch } else { JobKind::EmptyRow };
        Ok(Job {
            seq,
            kind,
            b_row,
            a_val,
            out_row,
            last_in_row,
            info_requested,
            info_ready,
            plan,
            len,
            ready_entries,
            drained_entries,
        })
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
            pending_info: 0,
            pending_data: 0,
            issuable: 0,
            issuable_on: vec![0; cfg.mem.num_channels],
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

    /// Returns the loader to its cycle-0 state, keeping its storage.
    pub(crate) fn reset(&mut self) {
        self.jobs.clear();
        self.next_seq = 0;
        self.pending_info = 0;
        self.pending_data = 0;
        self.issuable = 0;
        self.issuable_on.fill(0);
        self.staging.clear();
        self.in_flight = 0;
        self.blocked = [0; 4];
        self.malformed = None;
        self.attribution = StageBreakdown::default();
        self.quiet = false;
        self.charged = StageClass::Idle;
        self.blocked_on = 0;
    }

    /// Handles the response to job `job_seq`'s row-info fetch. The job's
    /// row plan is built by the next issue loop, so it joins no channel's
    /// set yet.
    pub(crate) fn on_info(&mut self, job_seq: u64) {
        self.pending_info -= 1;
        self.in_flight -= 1;
        if let Some(job) = self.job_mut(job_seq) {
            job.info_ready = true;
            if job.issuable() {
                self.issuable |= seq_bit(job_seq);
            }
        }
    }

    /// Handles the response to a data fetch carrying `count` entries of
    /// job `job_seq`.
    pub(crate) fn on_data(&mut self, job_seq: u64, count: u32) {
        self.pending_data -= 1;
        self.in_flight -= 1;
        if let Some(job) = self.job_mut(job_seq) {
            job.ready_entries += count;
        }
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
            if let Some(channel) = job.read_channel(layout) {
                self.issuable |= seq_bit(job.seq);
                self.issuable_on[channel] |= seq_bit(job.seq);
            }
            self.jobs.push_back(job);
            self.next_seq += 1;
            moved = true;
        }

        // Issue info and data requests in job order, visiting only the
        // jobs that have any to issue. A read on one channel that is full
        // would be refused, so it is not built (DESIGN.md §4 item 7): the
        // jobs waiting on a full channel are not even visited.
        if self.staging.len() < self.staging_cap {
            let front_seq = self.jobs.front().map_or(0, |j| j.seq);
            let blocked = port.full_waiters(&self.issuable_on);
            let mut todo = (self.issuable & !blocked).rotate_right((front_seq % 64) as u32);
            while todo != 0 {
                if self.in_flight >= self.max_outstanding {
                    break;
                }
                let job = &mut self.jobs[todo.trailing_zeros() as usize];
                todo &= todo - 1;
                let bit = seq_bit(job.seq);
                if !job.info_requested {
                    let addr = layout.info_addr(job.b_row as usize);
                    let channel = layout.map.channel_of(addr);
                    let tag = Tag::SpBlInfo { job_seq: job.seq };
                    if !port.channel_full(channel) && port.try_read(tag, addr, INFO_BYTES) {
                        self.pending_info += 1;
                        self.in_flight += 1;
                        job.info_requested = true;
                        moved = true;
                        // Not issuable again until the info arrives.
                        self.issuable &= !bit;
                        self.issuable_on[channel] &= !bit;
                    }
                    continue;
                }
                let plan = match job.plan.as_mut() {
                    Some(plan) => plan,
                    None => {
                        let info = b.row_info(job.b_row as usize);
                        job.len = info.len;
                        let plan = layout.row_plan(b.channel_of(job.b_row as usize), info);
                        self.issuable_on[plan.channel()] |= bit;
                        changed = true;
                        job.plan.insert(plan)
                    }
                };
                while !plan.is_empty()
                    && self.in_flight < self.max_outstanding
                    && !port.channel_full(plan.channel())
                {
                    let Some((addr, bytes)) = plan.front(layout) else { break };
                    let tag = Tag::SpBlData { job_seq: job.seq, count: layout.entries_in(bytes) };
                    if !port.try_read(tag, addr, bytes) {
                        break;
                    }
                    plan.pop_front(layout);
                    self.pending_data += 1;
                    self.in_flight += 1;
                    moved = true;
                }
                if plan.is_empty() {
                    self.issuable &= !bit;
                    self.issuable_on[plan.channel()] &= !bit;
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

    /// Repeats the last tick's only effects, its counter updates, for `n`
    /// cycles — the ticks a sleeping lane owes.
    pub(crate) fn replay_stall(&mut self, n: u64) {
        self.blocked[self.blocked_on] += n;
        self.attribution.charge_cycles(self.charged, n);
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
        sig = mix_signature(sig, self.pending_info as u64);
        sig = mix_signature(sig, self.pending_data as u64);
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

    /// Writes all mutable state into a checkpoint, with the lane's
    /// in-flight `tags` in id order, from which SpBL's own are taken.
    /// Budgets and window sizes are the configuration's, which the loader
    /// a restore loads into was built for.
    pub(crate) fn snapshot(
        &self,
        tags: impl Iterator<Item = (u64, Tag)> + Clone,
        out: &mut Vec<u8>,
    ) {
        self.jobs.len().enc(out);
        self.jobs.iter().for_each(|job| job.snapshot(&self.layout, out));
        self.next_seq.enc(out);
        self.pending_info.enc(out);
        for (id, tag) in tags.clone() {
            if let Tag::SpBlInfo { job_seq } = tag {
                (id, job_seq).enc(out);
            }
        }
        self.pending_data.enc(out);
        for (id, tag) in tags {
            if let Tag::SpBlData { job_seq, count } = tag {
                (id, job_seq, count).enc(out);
            }
        }
        self.staging.enc(out);
        (self.in_flight, self.blocked, self.malformed).enc(out);
        self.attribution.enc(out);
    }

    /// Reads a [`SpBl::snapshot`] back into a loader reset for the same
    /// configuration, appending the tags of its in-flight requests to
    /// `tags` for the route table.
    ///
    /// # Errors
    ///
    /// [`Mismatch`] if the bytes are malformed.
    pub(crate) fn restore(
        &mut self,
        r: &mut Reader<'_>,
        tags: &mut Vec<(u64, Tag)>,
    ) -> Result<(), Mismatch> {
        for _ in 0..r.count()? {
            self.jobs.push_back(Job::restore(&self.layout, r)?);
        }
        self.next_seq = u64::dec(r)?;
        self.pending_info = r.count()?;
        for _ in 0..self.pending_info {
            let (id, job_seq) = Dec::dec(r)?;
            tags.push((id, Tag::SpBlInfo { job_seq }));
        }
        self.pending_data = r.count()?;
        for _ in 0..self.pending_data {
            let (id, job_seq, count) = Dec::dec(r)?;
            tags.push((id, Tag::SpBlData { job_seq, count }));
        }
        r.append(&mut self.staging)?;
        (self.in_flight, self.blocked, self.malformed) = Dec::dec(r)?;
        self.attribution = Dec::dec(r)?;
        for job in &self.jobs {
            if job.issuable() {
                self.issuable |= seq_bit(job.seq);
            }
            if let Some(channel) = job.read_channel(&self.layout) {
                self.issuable_on[channel] |= seq_bit(job.seq);
            }
        }
        Ok(())
    }
}
