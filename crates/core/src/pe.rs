//! The processing element: multiplier + two sets of sorting queues.

use std::collections::VecDeque;

use matraptor_sim::codec::{Dec, Enc, Mismatch, Reader};
use matraptor_sim::plain_struct;
use matraptor_sim::stats::{Counter, CycleBreakdown};
use matraptor_sim::watchdog::mix_signature;

use crate::config::MatRaptorConfig;
use crate::queue::{QueueSet, VectorMode};
use crate::tokens::PeTok;
use crate::writer::Writer;

/// The CPU-fallback path: computes output row `row` in software and
/// appends its columns and values.
pub(crate) type Fallback<'a> = dyn FnMut(u32, &mut Vec<u32>, &mut Vec<f64>) + 'a;

/// How one PE cycle was spent — the categories of Fig. 9.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CycleClass {
    Busy,
    MergeStall,
    MemoryStall,
    Idle,
}

/// A processing element (Fig. 5b).
///
/// Phase I consumes one product per cycle from SpBL, multiplies it (the
/// product value arrives pre-multiplied in this model; the timing is
/// identical since both designs retire one MAC per cycle) and merges it
/// into the active queue set: direct fill for the first Q−1 partial-sum
/// vectors, then two-way merge through the helper queue. Phase II drains
/// the *other* queue set through the min-column-id selector and adder tree
/// into the output writer. The two phases run concurrently on the two
/// queue sets — the double buffering that Section IV-B credits for high
/// multiplier utilisation.
#[derive(Debug)]
pub struct Pe {
    sets: [QueueSet; 2],
    // conformance:allow(checkpoint-coverage): fixed hardware configuration, never mutated after construction
    double_buffering: bool,
    fill: usize,
    vec_mode: Option<VectorMode>,
    phase2: Option<Phase2>,
    /// When set, the current row overflowed and its remaining tokens are
    /// being discarded (Section VII).
    skipping: bool,
    products_in_row: u64,
    breakdown: CycleBreakdown,
    /// Useful multiplies retired (one per product consumed).
    pub(crate) multiplies: Counter,
    /// Additions performed in merges and the Phase II adder tree.
    pub(crate) additions: Counter,
    /// Rows that overflowed the queues and fell back to the CPU.
    pub(crate) overflow_rows: Vec<u32>,
    /// Cycles spent in each phase (the paper reports their ratio ∈ [2,15]).
    pub(crate) phase1_cycles: Counter,
    pub(crate) phase2_cycles: Counter,
    /// Fault injection: force a queue overflow once the multiply count
    /// reaches this threshold mid-row. One-shot; cleared after firing.
    pub(crate) fault_force_overflow_after: Option<u64>,
    /// Whether overflowed rows may be delegated to the CPU (the paper's
    /// Section VII path). Fault campaigns disable it to prove the
    /// overflow is reported rather than silently dropped.
    pub(crate) cpu_fallback: bool,
    /// Set when a row overflowed while `cpu_fallback` was disabled; the
    /// accelerator polls this and aborts with `SimError::QueueOverflow`.
    pub(crate) fatal_overflow: Option<u32>,
    /// Whether the last tick changed nothing but the per-cycle counters
    /// (`breakdown` and the phase cycles).
    // conformance:allow(checkpoint-coverage): derived by every tick; a restored lane starts awake and ticks before it is read
    quiet: bool,
    /// The class the last tick charged, which [`Pe::replay_stall`]
    /// charges again.
    // conformance:allow(checkpoint-coverage): derived by every tick; read only while `quiet`
    charged: CycleClass,
}

#[derive(Debug, Clone, Copy)]
struct Phase2 {
    set: usize,
    row: u32,
}

plain_struct!(Phase2 { set, row });

impl Pe {
    pub(crate) fn new(cfg: &MatRaptorConfig) -> Self {
        let cap = cfg.queue_capacity_entries();
        Pe {
            sets: [QueueSet::new(cfg.queues_per_pe, cap), QueueSet::new(cfg.queues_per_pe, cap)],
            double_buffering: cfg.double_buffering,
            fill: 0,
            vec_mode: None,
            phase2: None,
            skipping: false,
            products_in_row: 0,
            breakdown: CycleBreakdown::default(),
            multiplies: Counter::default(),
            additions: Counter::default(),
            overflow_rows: Vec::new(),
            phase1_cycles: Counter::default(),
            phase2_cycles: Counter::default(),
            fault_force_overflow_after: None,
            cpu_fallback: true,
            fatal_overflow: None,
            quiet: false,
            charged: CycleClass::Idle,
        }
    }

    /// Returns the PE to its cycle-0 state, keeping its queue storage.
    pub(crate) fn reset(&mut self) {
        self.sets.iter_mut().for_each(QueueSet::reset);
        self.fill = 0;
        self.vec_mode = None;
        self.phase2 = None;
        self.skipping = false;
        self.products_in_row = 0;
        self.breakdown = CycleBreakdown::default();
        self.multiplies = Counter::default();
        self.additions = Counter::default();
        self.overflow_rows.clear();
        self.phase1_cycles = Counter::default();
        self.phase2_cycles = Counter::default();
        self.fault_force_overflow_after = None;
        self.cpu_fallback = true;
        self.fatal_overflow = None;
        self.quiet = false;
        self.charged = CycleClass::Idle;
    }

    /// One accelerator cycle: Phase II datapath plus one Phase I action.
    ///
    /// `fallback` computes an output row in software, appending its
    /// columns and values — the CPU delegation path for queue overflows
    /// (Section VII).
    pub(crate) fn tick(
        &mut self,
        input: &mut VecDeque<PeTok>,
        writer: &mut Writer,
        cfg: &MatRaptorConfig,
        fallback: &mut Fallback<'_>,
        upstream_done: bool,
    ) {
        let drained = self.tick_phase2(writer, cfg);
        self.quiet = false;
        let class = self.tick_phase1(input, writer, fallback, upstream_done);
        self.quiet &= !drained;
        self.charged = class;
        self.charge(class);
    }

    /// Whether the last tick changed nothing but the per-cycle counters,
    /// so with the same input the next tick would repeat it exactly.
    pub(crate) fn is_quiet(&self) -> bool {
        self.quiet
    }

    /// Repeats the last tick's only effects, its counter updates, for `n`
    /// cycles — the ticks a sleeping lane owes.
    pub(crate) fn replay_stall(&mut self, n: u64) {
        self.charge_cycles(self.charged, n);
    }

    /// Charges the cycle just ticked.
    fn charge(&mut self, class: CycleClass) {
        self.charge_cycles(class, 1);
    }

    /// Charges `n` cycles of one class: the phase counters of the phases
    /// that ran and exactly one attribution bucket.
    fn charge_cycles(&mut self, class: CycleClass, n: u64) {
        if !matches!(class, CycleClass::Idle) {
            self.phase1_cycles.add(n);
        }
        if self.phase2.is_some() {
            self.phase2_cycles.add(n);
        }
        match class {
            CycleClass::Busy => self.breakdown.busy.add(n),
            CycleClass::MergeStall => self.breakdown.merge_stall.add(n),
            CycleClass::MemoryStall => self.breakdown.memory_stall.add(n),
            CycleClass::Idle => self.breakdown.idle.add(n),
        }
    }

    /// Phase II's step; returns whether it drained anything.
    fn tick_phase2(&mut self, writer: &mut Writer, cfg: &MatRaptorConfig) -> bool {
        let Some(ph) = self.phase2 else { return false };
        let set = &mut self.sets[ph.set];
        if set.is_empty() {
            writer.finish_row(ph.row);
            set.reset_for_new_row();
            self.phase2 = None;
            true
        } else if writer.can_accept() {
            // conformance:allow(panic-safety): invariant: caller checked the set is non-empty before popping
            let (col, val, popped) = set.pop_min().expect("set not empty");
            if popped > 1 {
                self.additions.add(popped as u64 - 1);
            }
            if val != 0.0 {
                writer.push_entry(ph.row, col, val, cfg);
            }
            true
        } else {
            // Write buffer full — Phase II stalls this cycle.
            false
        }
    }

    /// A Phase I exit that changed nothing if `first` — no free action ran
    /// before it this cycle.
    fn wait(&mut self, class: CycleClass, first: bool) -> CycleClass {
        self.quiet = first;
        class
    }

    fn tick_phase1(
        &mut self,
        input: &mut VecDeque<PeTok>,
        writer: &mut Writer,
        fallback: &mut Fallback<'_>,
        upstream_done: bool,
    ) -> CycleClass {
        // Without double buffering, Phase II occupies the (single) queue
        // datapath and Phase I must wait — the ablation of Fig. 5b's
        // duplicated queue sets.
        if !self.double_buffering && self.phase2.is_some() {
            return self.wait(CycleClass::MergeStall, true);
        }
        // Fault injection: pretend the active queue just filled. Only
        // mid-vector (the states in which a real overflow can occur), and
        // one-shot so a campaign injects exactly one overflow.
        if let Some(after) = self.fault_force_overflow_after {
            if self.vec_mode.is_some() && !self.skipping && self.multiplies.get() >= after {
                self.fault_force_overflow_after = None;
                self.begin_overflow();
                return CycleClass::MergeStall;
            }
        }
        // Overflow-skip mode: discard the rest of the row.
        if self.skipping {
            return match input.pop_front() {
                None => self.wait(self.starved(upstream_done), true),
                Some(PeTok::Product { .. }) => {
                    self.products_in_row += 1;
                    CycleClass::MergeStall
                }
                Some(PeTok::EndOfVector) => CycleClass::MergeStall,
                Some(PeTok::EndOfRow { row }) => {
                    // The previous row may still be draining through Phase
                    // II; recording now would write rows out of order.
                    if self.phase2.is_some() {
                        input.push_front(PeTok::EndOfRow { row });
                        return self.wait(CycleClass::MergeStall, true);
                    }
                    if !self.cpu_fallback {
                        // No CPU to delegate to: the row is unrecoverable.
                        // Park the marker and raise the fatal flag for the
                        // accelerator to convert into a structured error.
                        self.fatal_overflow = Some(row);
                        input.push_front(PeTok::EndOfRow { row });
                        return CycleClass::MergeStall;
                    }
                    writer.record_overflow_row(row, self.products_in_row, |cols, vals| {
                        fallback(row, cols, vals);
                    });
                    self.overflow_rows.push(row);
                    self.skipping = false;
                    self.products_in_row = 0;
                    CycleClass::MergeStall
                }
            };
        }

        // Bounded loop: marker handling and queue selection are free
        // (combinational); exactly one costed action is taken per cycle.
        for step in 0..8 {
            match self.vec_mode {
                None => match input.front().copied() {
                    None => return self.wait(self.starved(upstream_done), step == 0),
                    Some(PeTok::EndOfRow { row }) => {
                        if self.phase2.is_some() {
                            // Other set still merging: the double buffer is
                            // full — the stall Fig. 9 charges to "merge".
                            return self.wait(CycleClass::MergeStall, step == 0);
                        }
                        self.phase2 = Some(Phase2 { set: self.fill, row });
                        self.fill ^= 1;
                        self.products_in_row = 0;
                        input.pop_front();
                        continue;
                    }
                    Some(PeTok::EndOfVector) => {
                        input.pop_front();
                        continue;
                    }
                    Some(PeTok::Product { .. }) => {
                        self.vec_mode = Some(self.sets[self.fill].start_vector());
                        continue;
                    }
                },
                Some(VectorMode::Direct { queue }) => match input.front().copied() {
                    None => return self.wait(self.starved(upstream_done), step == 0),
                    Some(PeTok::Product { val, col }) => {
                        if self.sets[self.fill].queue_ref(queue).is_full() {
                            self.begin_overflow();
                            return CycleClass::MergeStall;
                        }
                        self.sets[self.fill].queue(queue).push(col, val);
                        input.pop_front();
                        self.products_in_row += 1;
                        self.multiplies.incr();
                        return CycleClass::Busy;
                    }
                    Some(PeTok::EndOfVector) => {
                        self.vec_mode = None;
                        input.pop_front();
                        continue;
                    }
                    Some(PeTok::EndOfRow { .. }) => {
                        // Defensive: treat like an implicit end-of-vector.
                        self.vec_mode = None;
                        continue;
                    }
                },
                Some(VectorMode::Merge { src, helper }) => {
                    let src_front = self.sets[self.fill].queue_ref(src).front_col();
                    match input.front().copied() {
                        None => {
                            // Cannot advance the merge without knowing the
                            // next incoming column id.
                            return self.wait(self.starved(upstream_done), step == 0);
                        }
                        Some(PeTok::Product { val, col }) => match src_front {
                            Some(sc) if sc < col => {
                                if self.sets[self.fill].queue_ref(helper).is_full() {
                                    self.begin_overflow();
                                    return CycleClass::MergeStall;
                                }
                                let (c, v) =
                                    // conformance:allow(panic-safety): invariant: `src` was selected because its queue front exists
                                    self.sets[self.fill].queue(src).pop().expect("front");
                                self.sets[self.fill].queue(helper).push(c, v);
                                return CycleClass::MergeStall;
                            }
                            Some(sc) if sc == col => {
                                if self.sets[self.fill].queue_ref(helper).is_full() {
                                    self.begin_overflow();
                                    return CycleClass::MergeStall;
                                }
                                let (_, v) =
                                    // conformance:allow(panic-safety): invariant: `src` was selected because its queue front exists
                                    self.sets[self.fill].queue(src).pop().expect("front");
                                self.sets[self.fill].queue(helper).push(col, v + val);
                                input.pop_front();
                                self.products_in_row += 1;
                                self.multiplies.incr();
                                self.additions.incr();
                                return CycleClass::Busy;
                            }
                            _ => {
                                if self.sets[self.fill].queue_ref(helper).is_full() {
                                    self.begin_overflow();
                                    return CycleClass::MergeStall;
                                }
                                self.sets[self.fill].queue(helper).push(col, val);
                                input.pop_front();
                                self.products_in_row += 1;
                                self.multiplies.incr();
                                return CycleClass::Busy;
                            }
                        },
                        Some(PeTok::EndOfVector) => {
                            if src_front.is_some() {
                                if self.sets[self.fill].queue_ref(helper).is_full() {
                                    self.begin_overflow();
                                    return CycleClass::MergeStall;
                                }
                                let (c, v) =
                                    // conformance:allow(panic-safety): invariant: `src` was selected because its queue front exists
                                    self.sets[self.fill].queue(src).pop().expect("front");
                                self.sets[self.fill].queue(helper).push(c, v);
                                return CycleClass::MergeStall;
                            }
                            self.sets[self.fill].finish_merge(src, helper);
                            self.vec_mode = None;
                            input.pop_front();
                            continue;
                        }
                        Some(PeTok::EndOfRow { .. }) => {
                            // Should be preceded by EndOfVector; drain as if.
                            if src_front.is_some() {
                                if self.sets[self.fill].queue_ref(helper).is_full() {
                                    self.begin_overflow();
                                    return CycleClass::MergeStall;
                                }
                                let (c, v) =
                                    // conformance:allow(panic-safety): invariant: `src` was selected because its queue front exists
                                    self.sets[self.fill].queue(src).pop().expect("front");
                                self.sets[self.fill].queue(helper).push(c, v);
                                return CycleClass::MergeStall;
                            }
                            self.sets[self.fill].finish_merge(src, helper);
                            self.vec_mode = None;
                            continue;
                        }
                    }
                }
            }
        }
        // Exhausted the free-action budget without a costed action — treat
        // as a marker-processing cycle.
        CycleClass::MergeStall
    }

    fn begin_overflow(&mut self) {
        self.sets[self.fill].hard_clear();
        self.vec_mode = None;
        self.skipping = true;
    }

    fn starved(&self, upstream_done: bool) -> CycleClass {
        if upstream_done {
            CycleClass::Idle
        } else {
            CycleClass::MemoryStall
        }
    }

    /// Whether the PE has no work in flight.
    pub(crate) fn is_done(&self, input_empty: bool) -> bool {
        input_empty && self.vec_mode.is_none() && self.phase2.is_none() && !self.skipping
    }

    /// The busy/stall cycle breakdown accumulated so far (Fig. 9).
    pub fn breakdown(&self) -> CycleBreakdown {
        self.breakdown
    }

    /// Whether the PE holds any in-progress state (for deadlock
    /// diagnostics).
    pub(crate) fn is_active(&self) -> bool {
        self.vec_mode.is_some() || self.phase2.is_some() || self.skipping
    }

    /// Forward-progress signature for the watchdog. Folds work counters
    /// and queue occupancies; deliberately **excludes** `phase1_cycles`
    /// and the stall counters, which keep advancing while the PE waits
    /// and would therefore hide a wedge forever.
    pub(crate) fn progress_signature(&self) -> u64 {
        let mut sig = mix_signature(0, self.multiplies.get());
        sig = mix_signature(sig, self.additions.get());
        sig = mix_signature(sig, self.products_in_row);
        sig = mix_signature(sig, self.fill as u64);
        sig = mix_signature(sig, u64::from(self.skipping));
        sig = mix_signature(sig, self.overflow_rows.len() as u64);
        sig = mix_signature(sig, self.sets[0].total_entries() as u64);
        sig = mix_signature(sig, self.sets[1].total_entries() as u64);
        let mode = match self.vec_mode {
            None => 0u64,
            Some(VectorMode::Direct { queue }) => 1 | (queue as u64) << 8,
            Some(VectorMode::Merge { src, helper }) => {
                2 | (src as u64) << 8 | (helper as u64) << 32
            }
        };
        sig = mix_signature(sig, mode);
        let ph2 = self.phase2.map_or(0u64, |p| 1 | (p.set as u64) << 8 | (p.row as u64) << 16);
        mix_signature(sig, ph2)
    }

    /// Writes all mutable state into a checkpoint. Queue shapes and the
    /// double-buffering mode are the configuration's, which the PE a
    /// restore loads into was built for.
    pub(crate) fn snapshot(&self, out: &mut Vec<u8>) {
        self.sets.iter().for_each(|set| set.snapshot(out));
        (self.fill, self.vec_mode, self.phase2).enc(out);
        (self.skipping, self.products_in_row, self.breakdown).enc(out);
        (self.multiplies, self.additions, &self.overflow_rows).enc(out);
        (self.phase1_cycles, self.phase2_cycles, self.fault_force_overflow_after).enc(out);
        (self.cpu_fallback, self.fatal_overflow).enc(out);
    }

    /// Reads a [`Pe::snapshot`] back into a PE reset for the same
    /// configuration.
    ///
    /// # Errors
    ///
    /// [`Mismatch`] if a queue set disagrees with the configuration, or
    /// the bytes are malformed.
    pub(crate) fn restore(&mut self, r: &mut Reader<'_>) -> Result<(), Mismatch> {
        for set in &mut self.sets {
            set.restore(r)?;
        }
        (self.fill, self.vec_mode, self.phase2) = Dec::dec(r)?;
        (self.skipping, self.products_in_row, self.breakdown) = Dec::dec(r)?;
        (self.multiplies, self.additions) = Dec::dec(r)?;
        r.append(&mut self.overflow_rows)?;
        (self.phase1_cycles, self.phase2_cycles, self.fault_force_overflow_after) = Dec::dec(r)?;
        (self.cpu_fallback, self.fatal_overflow) = Dec::dec(r)?;
        Ok(())
    }
}
