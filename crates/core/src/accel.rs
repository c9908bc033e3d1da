//! The top-level accelerator: lanes over a shared HBM.

use std::collections::VecDeque;
use std::ops::Deref;
use std::sync::{Arc, Mutex, PoisonError};

use matraptor_mem::Hbm;
use matraptor_sim::codec::{Dec, Enc, Mismatch, Reader};
use matraptor_sim::stats::CycleBreakdown;
use matraptor_sim::trace::StageBreakdown;
use matraptor_sim::watchdog::mix_signature;
use matraptor_sim::{plain_struct, Cycle, IdTable, SourceId, Watchdog, WatchdogReport};
use matraptor_sparse::{abft, spgemm, C2sr, Csr};

use crate::checkpoint::{fingerprint_config, Checkpoint};
use crate::config::MatRaptorConfig;
use crate::error::{
    ChannelDiagnostic, ConfigError, DeadlockDiagnostic, LaneDiagnostic, MalformedInput, SimError,
};
use crate::fault::{FaultKind, FaultPlan};
use crate::layout::{matrix_layout, Regions};
use crate::operands::Operands;
use crate::pe::Pe;
use crate::port::{MemPort, Route, Tag};
use crate::spal::SpAl;
use crate::spbl::SpBl;
use crate::stats::{LaneAttribution, MatRaptorStats};
use crate::tokens::{ATok, PeTok};
use crate::trace::{RunTrace, TraceConfig, TraceSampler};
use crate::writer::{assemble_c, Writer};

/// The MatRaptor accelerator (Fig. 5a): `num_lanes` rows of
/// SpAL → SpBL → PE over a shared multi-channel HBM, with per-lane output
/// writers appending C in C²SR.
///
/// # Example
///
/// ```rust
/// use matraptor_core::{Accelerator, MatRaptorConfig};
/// use matraptor_sparse::gen;
///
/// let a = gen::uniform(64, 64, 400, 1);
/// let outcome = Accelerator::new(MatRaptorConfig::default()).run(&a, &a);
/// assert_eq!(outcome.c.rows(), 64);
/// assert!(outcome.stats.total_cycles > 0);
/// ```
pub struct Accelerator {
    cfg: MatRaptorConfig,
    /// Accelerator cycles per memory cycle, from the validated `cfg`.
    ratio: u64,
    /// The machine of this accelerator's last finished or dropped [`Run`],
    /// which the next [`Accelerator::start`] resets in place instead of
    /// building one. It belongs to this accelerator alone: a clone gets a
    /// slot of its own, so concurrent workers never share one.
    spare: Arc<Mutex<Option<Machine>>>,
}

impl Clone for Accelerator {
    fn clone(&self) -> Self {
        Accelerator { cfg: self.cfg.clone(), ratio: self.ratio, spare: Arc::default() }
    }
}

impl std::fmt::Debug for Accelerator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Accelerator").field("cfg", &self.cfg).finish_non_exhaustive()
    }
}

/// Result of one accelerator run: the output matrix plus measurements.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// The computed product in CSR form, assembled from the C²SR streams
    /// the lanes wrote once they passed the C²SR check.
    pub c: Csr<f64>,
    /// Cycle counts, traffic, and breakdowns.
    pub stats: MatRaptorStats,
}

/// Where a [`Run`] starts. The fault plan and the trace live on the fresh
/// start because they only mean something from cycle 0: a resumed run's
/// armed fault state rides its checkpoint, and a trace sampler's window
/// deltas start at zero.
#[derive(Debug, Clone, Copy)]
pub enum RunStart<'r> {
    /// Build the machine at cycle 0.
    Fresh {
        /// Fault to arm, if any (see [`FaultKind`]).
        plan: Option<&'r FaultPlan>,
        /// Record a [`RunTrace`] with this configuration. Tracing is
        /// observational only: cycles, output, and statistics are
        /// bit-identical to the untraced run.
        trace: Option<&'r TraceConfig>,
    },
    /// Resume a [`Checkpoint`] of the same operands under the same
    /// configuration; fingerprint mismatches are rejected with
    /// [`SimError::CheckpointMismatch`] instead of silently diverging.
    Resume(&'r Checkpoint),
}

struct Lane {
    spal: SpAl,
    spbl: SpBl,
    pe: Pe,
    writer: Writer,
    spal_out: VecDeque<ATok>,
    pe_in: VecDeque<PeTok>,
    /// The lane's last tick changed nothing but per-cycle counters, so
    /// until it wakes it does not tick, and owes those counter updates
    /// for every cycle it sleeps (DESIGN.md §4 item 7).
    // conformance:allow(checkpoint-coverage): derived; every lane starts awake, also after a restore
    asleep: bool,
    /// The first cycle a sleeping lane has not charged yet: the cycle after
    /// its last tick, or the last point it was settled at.
    // conformance:allow(checkpoint-coverage): read only while asleep, and a paused lane is settled
    owed_from: u64,
    /// Whether the lane's last tick left it done; a sleeping lane stays so.
    // conformance:allow(checkpoint-coverage): derived by every tick, and read only while asleep
    done: bool,
    /// The channels the lane's last tick was refused on
    /// ([`MemPort::refused`]); a slot freed on one of them wakes it.
    // conformance:allow(checkpoint-coverage): derived by every tick, and read only while asleep
    waits_on: u64,
}

impl Lane {
    /// Builds lane `l` for `cfg`, idle and with no job.
    fn new(l: usize, cfg: &MatRaptorConfig) -> Self {
        let regions = Regions::DEFAULT;
        Lane {
            spal: SpAl::new(l, cfg, matrix_layout(cfg, regions.a_info, regions.a_data)),
            spbl: SpBl::new(cfg, matrix_layout(cfg, regions.b_info, regions.b_data)),
            pe: Pe::new(cfg),
            writer: Writer::new(l, cfg, matrix_layout(cfg, regions.c_info, regions.c_data)),
            spal_out: VecDeque::new(),
            pe_in: VecDeque::new(),
            asleep: false,
            owed_from: 0,
            done: false,
            waits_on: 0,
        }
    }

    /// Returns the lane to its cycle-0 state for the job whose A is `ac`
    /// over `num_lanes` lanes, keeping every buffer.
    fn reset(&mut self, ac: &C2sr<f64>, num_lanes: usize) {
        self.spal.reset(ac, num_lanes);
        self.spbl.reset();
        self.pe.reset();
        self.writer.reset();
        self.spal_out.clear();
        self.pe_in.clear();
        self.asleep = false;
        self.owed_from = 0;
        self.done = false;
        self.waits_on = 0;
    }

    /// Whether every stage's last tick changed nothing but its counters.
    fn is_quiet(&self) -> bool {
        self.spal.is_quiet() && self.spbl.is_quiet() && self.pe.is_quiet() && self.writer.is_quiet()
    }

    /// Charges a sleeping lane's owed cycles up to (not including) cycle
    /// `now` in one step: every stage repeats its last tick's counter
    /// updates for each of them. Run at wake and wherever counters are
    /// read; an awake lane owes nothing.
    fn settle(&mut self, now: u64) {
        if self.asleep {
            let n = now - self.owed_from;
            self.pe.replay_stall(n);
            self.spbl.replay_stall(n);
            self.spal.replay_stall(n);
            self.writer.replay_stall(n);
            self.owed_from = now;
        }
    }

    /// Whether the lane has fetched, merged and written everything.
    fn is_done(&self) -> bool {
        self.spal.is_done()
            && self.spbl.is_done()
            && self.spal_out.is_empty()
            && self.pe_in.is_empty()
            && self.pe.is_done(self.pe_in.is_empty())
            && self.writer.is_done()
    }

    /// Writes the lane's units and coupling FIFOs into a checkpoint, each
    /// unit with the in-flight requests the `route` holds for lane `l`.
    fn snapshot(&self, route: &IdTable<Route>, l: usize, out: &mut Vec<u8>) {
        let tags = route.iter().filter(move |(_, r)| r.lane == l).map(|(id, r)| (id, r.tag));
        self.spal.snapshot(tags.clone(), out);
        self.spbl.snapshot(tags.clone(), out);
        self.pe.snapshot(out);
        self.writer.snapshot(tags, out);
        (&self.spal_out, &self.pe_in).enc(out);
    }

    /// Reads a [`Lane::snapshot`] back into a lane reset for the job whose
    /// A is `ac`, appending its units' in-flight requests to `tags`.
    fn restore(
        &mut self,
        r: &mut Reader<'_>,
        tags: &mut Vec<(u64, Tag)>,
        ac: &C2sr<f64>,
        fifo_depth: usize,
    ) -> Result<(), Mismatch> {
        self.spal.restore(r, tags, ac)?;
        self.spbl.restore(r, tags)?;
        self.pe.restore(r)?;
        self.writer.restore(r, tags)?;
        r.append(&mut self.spal_out)?;
        r.append(&mut self.pe_in)?;
        if self.spal_out.len().max(self.pe_in.len()) > fifo_depth {
            return Err(Mismatch("a coupling FIFO holds more tokens than its depth"));
        }
        Ok(())
    }

    /// The lane's per-stage cycle attribution, with the PE's existing
    /// Fig. 9 breakdown mapped onto the common four-bucket vocabulary.
    fn attribution(&self) -> LaneAttribution {
        LaneAttribution {
            spal: *self.spal.attribution(),
            spbl: *self.spbl.attribution(),
            pe: StageBreakdown::from_cycle_breakdown(&self.pe.breakdown()),
            writer: *self.writer.attribution(),
        }
    }
}

/// A stream fault in flight: watches A tokens crossing the SpAL → SpBL
/// coupling FIFO of one lane and truncates or corrupts the `target`-th
/// *entry* token (empty-row markers don't count — dropping one would be
/// undetectable by construction).
struct StreamInjector {
    lane: usize,
    target: u64,
    seen: u64,
    truncate: bool,
    /// Column id to corrupt to (out of B's row range) when not truncating.
    corrupt_to: u32,
}

plain_struct!(StreamInjector { lane, target, seen, truncate, corrupt_to });

impl StreamInjector {
    /// Inspects a lane's coupling FIFO right after its SpAL tick, which
    /// pushes at most one token per cycle, so only the back can be new.
    fn inspect(&mut self, lane: usize, grew: bool, out: &mut VecDeque<ATok>) {
        if lane != self.lane || !grew {
            return;
        }
        if !matches!(out.back(), Some(ATok::Entry { .. })) {
            return;
        }
        if self.seen == self.target {
            if self.truncate {
                out.pop_back();
            } else if let Some(ATok::Entry { col, .. }) = out.back_mut() {
                *col = self.corrupt_to;
            }
        }
        self.seen += 1;
    }
}

/// A run held live between slices: the machine, owned together with the
/// job's [`Operands`] (held as `&Csr`, `Rc<Csr>` or `Arc<Csr>`) and a copy
/// of the configuration. This is how the host's `mtx` handshake works in
/// the paper — the accelerator is programmed once per job, and its state
/// stays on chip until C drains — so a scheduler that runs a job in slices
/// pays for C²SR conversion and restore once per dispatch instead of once
/// per slice, and for the operand checks once per job. A [`Checkpoint`]
/// is only taken when the job has to leave the machine
/// ([`Run::snapshot`]).
///
/// # Example
///
/// ```rust
/// use matraptor_core::{Accelerator, MatRaptorConfig, Operands, RunStart};
/// use matraptor_sparse::gen;
///
/// let a = gen::uniform(32, 32, 160, 1);
/// let accel = Accelerator::new(MatRaptorConfig::small_test());
/// let ops = Operands::new(&a, &a).expect("valid operands");
/// let mut run = accel.start(ops, RunStart::Fresh { plan: None, trace: None }).expect("fresh");
/// while !run.advance(run.cycle() + 256).expect("clean run") {}
/// let outcome = run.finish().expect("drained");
/// assert_eq!(outcome.stats.total_cycles, accel.run(&a, &a).stats.total_cycles);
/// ```
pub struct Run<M: Deref<Target = Csr<f64>>> {
    /// The accelerator the run started on, sharing its spare slot, into
    /// which dropping the run gives the machine back.
    accel: Accelerator,
    operands: Operands<M>,
    /// The cycle budget backstop, derived from the operands.
    // conformance:allow(checkpoint-coverage): derived from the operands, so a resume recomputes it
    budget: u64,
    /// Always `Some` until the run is dropped.
    machine: Option<Machine>,
    // conformance:allow(checkpoint-coverage): observational only, and a resumed run records no trace
    sampler: Option<TraceSampler>,
    // conformance:allow(checkpoint-coverage): a drained run is finished, never snapshotted
    drained: bool,
}

impl<M: Deref<Target = Csr<f64>>> std::fmt::Debug for Run<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Run")
            .field("cycle", &self.cycle())
            .field("drained", &self.drained)
            .finish_non_exhaustive()
    }
}

impl<M: Deref<Target = Csr<f64>>> Drop for Run<M> {
    /// Gives the machine back to the accelerator, for its next run to
    /// reset.
    fn drop(&mut self) {
        // Every update of the slot replaces its whole value, so a slot
        // poisoned by a panic elsewhere still holds a whole machine or none.
        let mut spare = self.accel.spare.lock().unwrap_or_else(PoisonError::into_inner);
        *spare = self.machine.take();
    }
}

impl<M: Deref<Target = Csr<f64>>> Run<M> {
    /// The run's machine.
    fn machine(&self) -> &Machine {
        // conformance:allow(panic-safety): invariant: only `drop` takes the machine out
        self.machine.as_ref().expect("a live run holds its machine")
    }

    /// The accelerator cycle the machine stands at: the top of the next
    /// cycle to run while paused, the last cycle once drained.
    pub fn cycle(&self) -> u64 {
        self.machine().state.t
    }

    /// Runs until the machine drains (`Ok(true)`) or reaches the top of
    /// accelerator cycle `until` (`Ok(false)`). A drained run stays
    /// drained. After an error the run is dead: drop it.
    ///
    /// # Errors
    ///
    /// As [`Accelerator::try_run`], for failures before `until`.
    pub fn advance(&mut self, until: u64) -> Result<bool, SimError> {
        if !self.drained {
            let Run { accel, operands, budget, machine, sampler, .. } = self;
            let Some(machine) = machine.as_mut() else {
                return Err(SimError::ProtocolViolation { detail: "a run without its machine" });
            };
            self.drained = accel.drive(operands, *budget, machine, until, sampler.as_mut())?;
        }
        Ok(self.drained)
    }

    /// The paused machine as a resumable [`Checkpoint`]. Resuming it yields
    /// cycle counts and output values bit-identical to the uninterrupted
    /// run — the replay-determinism invariant of DESIGN.md §9.
    pub fn snapshot(&self) -> Checkpoint {
        self.accel.snapshot_run(&self.operands, &self.machine().state)
    }

    /// Takes the trace of the cycles the run has covered, if it was started
    /// with one: through its last cycle once drained, up to the top of the
    /// current cycle while paused. The run records nothing after that.
    pub fn take_trace(&mut self) -> Option<RunTrace> {
        let sampler = self.sampler.take()?;
        let state = &self.machine().state;
        let attrs: Vec<LaneAttribution> = state.lanes.iter().map(Lane::attribution).collect();
        // A drained run's last cycle is `t`; a paused one stops before it.
        let cycles = if self.drained { state.t + 1 } else { state.t };
        Some(sampler.finish(cycles, self.accel.ratio, &state.hbm.channel_stats(), &attrs))
    }

    /// Assembles the drained run's output and statistics, applying the
    /// configured integrity checks.
    ///
    /// # Errors
    ///
    /// [`SimError::ProtocolViolation`] if the run has not drained, and
    /// [`SimError::OutputCorrupted`] when an integrity check fails.
    pub fn finish(self) -> Result<RunOutcome, SimError> {
        if !self.drained {
            return Err(SimError::ProtocolViolation { detail: "finish before the run drained" });
        }
        self.accel.finalize(&self.operands, self.machine())
    }
}

/// The storage a run works in: built once per accelerator for its
/// configuration, then reset in place for every job, as MatRaptor's PE
/// reuses its sorting queues and FIFOs row after row (Section IV). A fresh
/// machine is the same reset applied to one built empty, so there is one
/// way to reach cycle 0.
struct Machine {
    state: RunState,
    /// A and B in C²SR, converted into the buffers of the last job's.
    ac: C2sr<f64>,
    bc: C2sr<f64>,
    /// The responses popped for each lane this cycle. Empty at the top of
    /// every cycle (responses are drained in the same iteration they pop),
    /// which is where snapshots are taken, so no checkpoint carries them.
    inboxes: Vec<Vec<Tag>>,
    /// The CPU fallback's accumulator.
    dense: DenseRow,
}

impl Machine {
    /// Builds an idle machine for `cfg`, with no job.
    fn new(cfg: &MatRaptorConfig) -> Self {
        let lanes_n = cfg.num_lanes();
        let mut watchdog = Watchdog::new(cfg.watchdog_window);
        // One source per lane plus the HBM, in the order a checkpoint's
        // watchdog state lists them.
        let lane_sources = (0..lanes_n)
            .map(|l| watchdog.add_source(LANE_NAMES[l.min(LANE_NAMES.len() - 1)]))
            .collect();
        let hbm_source = watchdog.add_source("hbm");
        let empty = C2sr::from_csr(&Csr::zero(0, 0), lanes_n);
        Machine {
            state: RunState {
                t: 0,
                next_id: 0,
                route: IdTable::new(),
                lanes: (0..lanes_n).map(|l| Lane::new(l, cfg)).collect(),
                hbm: Hbm::new(cfg.mem.clone()),
                stream_fault: None,
                watchdog,
                lane_sources,
                hbm_source,
            },
            ac: empty.clone(),
            bc: empty,
            inboxes: vec![Vec::new(); lanes_n],
            dense: DenseRow::default(),
        }
    }

    /// Returns the machine to cycle 0 for the job `a * b`, keeping every
    /// buffer: the operands in C²SR, every lane, the memory, the route,
    /// the watchdog and the inboxes, with no fault armed.
    fn reset(&mut self, a: &Csr<f64>, b: &Csr<f64>, lanes_n: usize) -> Result<(), SimError> {
        let zero_lanes =
            |_| SimError::ProtocolViolation { detail: "C2SR rejected the validated lane count" };
        self.ac.convert_from_csr(a, lanes_n).map_err(zero_lanes)?;
        self.bc.convert_from_csr(b, lanes_n).map_err(zero_lanes)?;
        let st = &mut self.state;
        st.t = 0;
        st.next_id = 0;
        st.route.clear();
        for lane in &mut st.lanes {
            lane.reset(&self.ac, lanes_n);
        }
        st.hbm.reset();
        st.stream_fault = None;
        st.watchdog.reset();
        // A run that failed mid-cycle can leave responses undelivered.
        self.inboxes.iter_mut().for_each(Vec::clear);
        Ok(())
    }
}

/// The complete mutable state of a run — exactly what a [`Checkpoint`]
/// captures.
struct RunState {
    t: u64,
    next_id: u64,
    /// In-flight request id → issuing lane and the issuing unit's tag:
    /// the only per-request table outside the HBM. A checkpoint keeps the
    /// lane here and each tag in its unit's pending list; restore rebuilds
    /// the table from those lists.
    route: IdTable<Route>,
    lanes: Vec<Lane>,
    hbm: Hbm,
    stream_fault: Option<StreamInjector>,
    watchdog: Watchdog,
    lane_sources: Vec<SourceId>,
    hbm_source: SourceId,
}

/// Display names for watchdog lane sources (`&'static str` registry; lanes
/// beyond the table share the last name, which loses nothing — the
/// diagnostic carries real lane indices).
const LANE_NAMES: [&str; 16] = [
    "lane0", "lane1", "lane2", "lane3", "lane4", "lane5", "lane6", "lane7", "lane8", "lane9",
    "lane10", "lane11", "lane12", "lane13", "lane14", "lane15",
];

/// Cycle stride between watchdog observations: sampling every cycle would
/// put two small allocations on the hottest loop; every 64th cycle bounds
/// detection latency at `window + 64` while keeping the overhead noise.
const WATCHDOG_STRIDE: u64 = 64;

impl Accelerator {
    /// Creates an accelerator with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics with the [`ConfigError`] message if the configuration is
    /// invalid (see [`MatRaptorConfig::try_validate`]).
    pub fn new(cfg: MatRaptorConfig) -> Self {
        // conformance:allow(panic-safety): deliberate fail-fast wrapper; fallible callers use try_new
        Accelerator::try_new(cfg).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible constructor: rejects an invalid configuration with a
    /// structured [`ConfigError`] instead of panicking.
    ///
    /// # Errors
    ///
    /// The first constraint [`MatRaptorConfig::try_validate`] reports.
    #[must_use = "dropping the Result discards the constructed accelerator or the config error"]
    pub fn try_new(cfg: MatRaptorConfig) -> Result<Self, ConfigError> {
        cfg.try_validate()?;
        let ratio = cfg.mem_clock_ratio()?;
        Ok(Accelerator { cfg, ratio, spare: Arc::default() })
    }

    /// The configuration.
    pub fn config(&self) -> &MatRaptorConfig {
        &self.cfg
    }

    /// Runs the SpGEMM `a * b` through the simulated hardware.
    ///
    /// Thin panicking wrapper over [`Accelerator::try_run`] for call sites
    /// that treat any failure as fatal (benches, examples, tests of the
    /// happy path).
    ///
    /// # Panics
    ///
    /// Panics with the [`SimError`] message if the run fails: the operands
    /// are refused, the watchdog declares a deadlock, the cycle
    /// budget trips, or — when `verify_against_reference` is set — the
    /// output mismatches the software Gustavson product.
    pub fn run(&self, a: &Csr<f64>, b: &Csr<f64>) -> RunOutcome {
        match self.try_run(a, b) {
            Ok(outcome) => outcome,
            // conformance:allow(panic-safety): deliberate fail-fast wrapper; fallible callers use try_run
            Err(e) => panic!("accelerator run failed: {e}"),
        }
    }

    /// Runs the SpGEMM `a * b` through the simulated hardware, reporting
    /// failures as structured [`SimError`]s.
    ///
    /// Inputs arrive in CSR and are laid out in C²SR exactly as the
    /// driver software would (the conversion cost is *not* charged here;
    /// the `fmt_conversion` experiment measures it separately, per
    /// Section VII). With no fault injected this is bit-identical to the
    /// historical panicking `run`: same cycle counts, same C values.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidOperands`] for operands [`Operands::new`]
    /// refuses (a non-finite value included),
    /// [`SimError::MalformedInput`] for a stream corrupted in flight,
    /// [`SimError::Deadlock`] when the forward-progress watchdog fires,
    /// [`SimError::CycleBudgetExceeded`] if the budget backstop trips,
    /// [`SimError::QueueOverflow`] for unrecoverable overflows, and
    /// [`SimError::OutputCorrupted`] when an integrity check fails.
    #[must_use = "dropping the Result loses both the run outcome and any fault diagnosis"]
    pub fn try_run(&self, a: &Csr<f64>, b: &Csr<f64>) -> Result<RunOutcome, SimError> {
        self.run_to_end(a, b, RunStart::Fresh { plan: None, trace: None })
    }

    /// Checks `a` and `b` ([`Operands::new`]) and runs `a * b` from
    /// `start` until it drains and finishes it: a fresh run with a fault
    /// plan armed, or a resumed checkpoint, in one call. A trace the start
    /// records is dropped; take it from a [`Run`].
    ///
    /// # Errors
    ///
    /// As [`Accelerator::try_run`], and [`SimError::CheckpointMismatch`]
    /// for a foreign checkpoint.
    pub fn run_to_end(
        &self,
        a: &Csr<f64>,
        b: &Csr<f64>,
        start: RunStart<'_>,
    ) -> Result<RunOutcome, SimError> {
        let mut run = self.start(Operands::new(a, b).map_err(SimError::InvalidOperands)?, start)?;
        run.advance(u64::MAX)?;
        run.finish()
    }

    /// Starts a [`Run`] of checked operands that holds its machine live
    /// between [`Run::advance`] calls: fresh (arming the plan, recording
    /// the trace) or restored from a checkpoint. This is the one run path:
    /// fault campaigns, traces, checkpoints, deadlines and slices all
    /// start here. A deadline is an advance whose paused run the caller
    /// drops, so a cancelled job costs exactly the deadline in simulated
    /// cycles, never more. The run owns the operands, and does not check
    /// them again. The machine is the one the accelerator's last finished
    /// or dropped run gave back, reset in place; only a first run, or one
    /// beside another still live, builds one.
    ///
    /// # Errors
    ///
    /// [`SimError::CheckpointMismatch`] for a foreign checkpoint.
    pub fn start<M: Deref<Target = Csr<f64>>>(
        &self,
        operands: Operands<M>,
        start: RunStart<'_>,
    ) -> Result<Run<M>, SimError> {
        // Generous budget: SpGEMM needs at least one cycle per product;
        // allow a large constant factor for memory stalls.
        let (flops, nnz) = (operands.flops(), operands.a().nnz() as u64);
        let budget = (flops * 200 + nnz * 400 + 1_000_000) * self.ratio;
        let spare = self.spare.lock().unwrap_or_else(PoisonError::into_inner).take();
        let accel = Accelerator {
            cfg: self.cfg.clone(),
            ratio: self.ratio,
            spare: Arc::clone(&self.spare),
        };
        let machine = Some(spare.unwrap_or_else(|| Machine::new(&self.cfg)));
        // From here on an error drops the run, which gives the machine back.
        let mut run = Run { accel, operands, budget, machine, sampler: None, drained: false };
        let Run { operands, machine: Some(machine), sampler, .. } = &mut run else {
            return Err(SimError::ProtocolViolation { detail: "a run without its machine" });
        };
        machine.reset(operands.a(), operands.b(), self.cfg.num_lanes())?;
        match start {
            RunStart::Fresh { plan, trace } => {
                if let Some(plan) = plan {
                    arm_fault(machine, plan, self.cfg.num_lanes());
                }
                *sampler = trace
                    .map(|t| TraceSampler::new(t, self.cfg.mem.num_channels, self.cfg.num_lanes()));
            }
            RunStart::Resume(checkpoint) => self.restore_run(operands, machine, checkpoint)?,
        }
        Ok(run)
    }

    /// Serializes the machine at the top of cycle `state.t`, fingerprinted
    /// against this accelerator's configuration and the run's operands.
    fn snapshot_run<M: Deref<Target = Csr<f64>>>(
        &self,
        operands: &Operands<M>,
        state: &RunState,
    ) -> Checkpoint {
        let mut out = Checkpoint::buffer();
        let [a_fingerprint, b_fingerprint] = operands.matrix_fingerprints();
        (fingerprint_config(&self.cfg), a_fingerprint, b_fingerprint).enc(&mut out);
        (state.t, state.next_id).enc(&mut out);
        state.route.len().enc(&mut out);
        for (id, r) in state.route.iter() {
            (id, r.lane).enc(&mut out);
        }
        state.lanes.len().enc(&mut out);
        for (l, lane) in state.lanes.iter().enumerate() {
            lane.snapshot(&state.route, l, &mut out);
        }
        state.stream_fault.enc(&mut out);
        state.hbm.snapshot(&mut out);
        state.watchdog.snapshot(&mut out);
        Checkpoint::of_payload(out, state.t)
    }

    /// Reads a checkpoint into a machine reset for the run's operands,
    /// checking as it reads that it was taken by a run of the same
    /// configuration over the same operands, and that every count and
    /// capacity in it fits this machine. A refused checkpoint leaves the
    /// machine half loaded, which the next start resets.
    fn restore_run<M: Deref<Target = Csr<f64>>>(
        &self,
        operands: &Operands<M>,
        machine: &mut Machine,
        checkpoint: &Checkpoint,
    ) -> Result<(), SimError> {
        let mut r = checkpoint.payload();
        let [a_fingerprint, b_fingerprint] = operands.matrix_fingerprints();
        for (want, detail) in [
            (fingerprint_config(&self.cfg), "configuration differs from the checkpointed run"),
            (a_fingerprint, "matrix A differs from the checkpointed run"),
            (b_fingerprint, "matrix B differs from the checkpointed run"),
        ] {
            if u64::dec(&mut r)? != want {
                return Err(SimError::CheckpointMismatch { detail });
            }
        }
        let Machine { state, ac, .. } = machine;
        (state.t, state.next_id) = Dec::dec(&mut r)?;
        let routes: Vec<(u64, usize)> = Dec::dec(&mut r)?;
        // The route table is rebuilt from the units' pending lists; it must
        // name exactly the requests the checkpoint routes, each to its lane.
        r.count_of(state.lanes.len(), "the lane count differs from the configuration")?;
        let mut tags = Vec::new();
        for (l, lane) in state.lanes.iter_mut().enumerate() {
            lane.restore(&mut r, &mut tags, ac, self.cfg.coupling_fifo_depth)?;
            for (id, tag) in tags.drain(..) {
                if state.route.insert(id, Route { lane: l, tag }).is_some() {
                    return Err(SimError::CheckpointMismatch {
                        detail: "checkpoint lists a request id as pending twice",
                    });
                }
            }
        }
        if !state.route.iter().map(|(id, r)| (id, r.lane)).eq(routes) {
            return Err(SimError::CheckpointMismatch {
                detail: "checkpoint routes differ from its units' pending requests",
            });
        }
        state.stream_fault = Dec::dec(&mut r)?;
        state.hbm.restore(&mut r)?;
        state.watchdog.restore(&mut r)?;
        r.finish()?;
        Ok(())
    }

    /// Advances the machine cycle by cycle until it drains (`Ok(true)`),
    /// pauses at the top of cycle `until` (`Ok(false)`), or fails.
    ///
    /// The pause point is the **top** of a cycle, before any component has
    /// ticked — the one point where no cross-component state (delivered
    /// responses) is in flight, which is what makes snapshots exact.
    ///
    /// Untraced runs pass no sampler, and the sampler is purely
    /// observational (it reads counters, never machine state), so the
    /// traced and untraced machines tick bit-identically — the
    /// zero-overhead-when-disabled contract of the observability layer.
    ///
    /// A lane whose tick changed nothing but per-cycle counters sleeps: its
    /// next tick reads nothing new unless a response arrives for it or a
    /// channel that refused it frees a queue slot, so until then it does
    /// not tick. It charges the slept cycles when it wakes, and is settled
    /// up to date wherever counters are read: a pause, the drain and each
    /// trace window. After a cycle in which no lane ticked, the clock jumps
    /// to the next cycle at which anything can happen: the memory's next
    /// event ([`Hbm::next_event`]), `until`, the cycle budget, or the next
    /// watchdog observation. Under a fault schedule admission depends on
    /// the cycle, and no lane sleeps. A trace records every memory cycle's
    /// queue depths, so a traced run does not jump.
    fn drive<M: Deref<Target = Csr<f64>>>(
        &self,
        operands: &Operands<M>,
        budget: u64,
        machine: &mut Machine,
        until: u64,
        mut sampler: Option<&mut TraceSampler>,
    ) -> Result<bool, SimError> {
        let cfg = &self.cfg;
        let ratio = self.ratio;
        let Machine { state, ac, bc, inboxes, dense } = machine;
        let mut fallback = |row: u32, cols: &mut Vec<u32>, vals: &mut Vec<f64>| {
            reference_row(operands.a(), operands.b(), row as usize, dense, cols, vals);
        };

        let RunState {
            t,
            next_id,
            route,
            lanes,
            hbm,
            stream_fault,
            watchdog,
            lane_sources,
            hbm_source,
        } = state;

        // The memory clock is `t / ratio`. It and the phase within it are
        // stepped with `t`, so the loop never divides.
        let mut mem_now = Cycle(*t / ratio);
        let mut mem_phase = *t % ratio;
        let can_sleep = !hbm.has_faults();
        let can_jump = can_sleep && sampler.is_none();
        let settle = |lanes: &mut [Lane], now: u64| lanes.iter_mut().for_each(|l| l.settle(now));
        loop {
            if *t >= until {
                settle(lanes, *t);
                return Ok(false);
            }
            let mut freed = 0;
            if mem_phase == 0 {
                hbm.tick(mem_now);
                freed = hbm.freed_channels();
                while let Some(resp) = hbm.pop_response(mem_now) {
                    // Every in-flight response id was recorded in `route`
                    // when issued; a miss means the interconnect model (or
                    // injected memory corruption) fabricated a response.
                    // Propagate it instead of panicking so services above
                    // the driver survive the broken run.
                    let Some(Route { lane, tag }) = route.remove(resp.id.0) else {
                        return Err(SimError::ProtocolViolation {
                            detail: "HBM response for an unissued request id",
                        });
                    };
                    inboxes[lane].push(tag);
                }
                if let Some(s) = sampler.as_deref_mut() {
                    s.record_queue_depths(hbm.queue_depths());
                }
            }

            let mut all_done = true;
            let mut ticked = false;
            for (l, lane) in lanes.iter_mut().enumerate() {
                // Nothing the sleeping lane reads has changed: its tick
                // would repeat the last one, so it only owes the counters.
                if lane.asleep && inboxes[l].is_empty() && lane.waits_on & freed == 0 {
                    all_done &= lane.done;
                    continue;
                }
                lane.settle(*t);
                ticked = true;
                // Deliver responses, each straight to the unit that issued it.
                for tag in inboxes[l].drain(..) {
                    match tag {
                        Tag::SpAlInfo { row_pos } => lane.spal.on_info(row_pos),
                        Tag::SpAlData { row_pos, first_entry, count } => {
                            lane.spal.on_data(row_pos, first_entry, count, ac);
                        }
                        Tag::SpBlInfo { job_seq } => lane.spbl.on_info(job_seq),
                        Tag::SpBlData { job_seq, count } => lane.spbl.on_data(job_seq, count),
                        Tag::WriterAck => lane.writer.on_ack(),
                    }
                }

                let mut port = MemPort { hbm, mem_now, next_id, route, lane: l, refused: 0 };

                let upstream_done =
                    lane.spal.is_done() && lane.spbl.is_done() && lane.spal_out.is_empty();
                lane.pe.tick(&mut lane.pe_in, &mut lane.writer, cfg, &mut fallback, upstream_done);
                lane.spbl.tick(
                    &mut port,
                    bc,
                    &mut lane.spal_out,
                    &mut lane.pe_in,
                    cfg.coupling_fifo_depth,
                    lane.spal.is_done(),
                );
                let fifo_len_before = lane.spal_out.len();
                lane.spal.tick(&mut port, ac, &mut lane.spal_out, cfg.coupling_fifo_depth);
                if let Some(inj) = stream_fault.as_mut() {
                    inj.inspect(l, lane.spal_out.len() > fifo_len_before, &mut lane.spal_out);
                }
                lane.writer.tick(&mut port);
                lane.waits_on = port.refused;
                lane.asleep = can_sleep && lane.is_quiet();
                lane.owed_from = *t + 1;

                if let Some((col, bound)) = lane.spbl.malformed_input() {
                    return Err(SimError::MalformedInput(MalformedInput::ColumnOutOfRange {
                        lane: l,
                        col,
                        bound,
                    }));
                }
                if let Some(row) = lane.pe.fatal_overflow {
                    return Err(SimError::QueueOverflow { lane: l, row });
                }

                lane.done = lane.is_done();
                all_done &= lane.done;
            }

            if all_done && hbm.is_idle() && inboxes.iter().all(Vec::is_empty) {
                settle(lanes, *t + 1);
                break;
            }

            if watchdog.window() > 0 && t.is_multiple_of(WATCHDOG_STRIDE) {
                for (l, lane) in lanes.iter().enumerate() {
                    let mut sig = mix_signature(0, lane.spal.progress_signature());
                    sig = mix_signature(sig, lane.spbl.progress_signature());
                    sig = mix_signature(sig, lane.pe.progress_signature());
                    sig = mix_signature(sig, lane.writer.progress_signature());
                    sig = mix_signature(sig, lane.spal_out.len() as u64);
                    sig = mix_signature(sig, lane.pe_in.len() as u64);
                    watchdog.observe(lane_sources[l], Cycle(*t), sig);
                }
                watchdog.observe(*hbm_source, Cycle(*t), hbm.progress_signature());
                if let Some(report) = watchdog.check(Cycle(*t)) {
                    return Err(SimError::Deadlock(deadlock_diagnostic(&report, lanes, hbm)));
                }
            }

            if let Some(s) = sampler.as_deref_mut() {
                if (*t + 1).is_multiple_of(s.window()) {
                    settle(lanes, *t + 1);
                    let attrs: Vec<LaneAttribution> = lanes.iter().map(Lane::attribution).collect();
                    s.close_window(*t + 1, &hbm.channel_stats(), &attrs);
                }
            }

            if ticked || !can_jump {
                *t += 1;
                mem_phase += 1;
                if mem_phase == ratio {
                    mem_phase = 0;
                    mem_now = mem_now.next();
                }
            } else {
                // Every lane sleeps until a memory event wakes one, and the
                // memory changes nothing before its next event, which the
                // first memory tick after this cycle can meet at the
                // earliest.
                let event = hbm.next_event().max(mem_now.next());
                let mut next = event.as_u64().saturating_mul(ratio).min(until).min(budget);
                if watchdog.window() > 0 {
                    next = next.min((*t / WATCHDOG_STRIDE + 1) * WATCHDOG_STRIDE);
                }
                *t = next;
                mem_now = Cycle(next / ratio);
                mem_phase = next % ratio;
            }
            if *t >= budget {
                return Err(SimError::CycleBudgetExceeded { budget, cycles: *t });
            }
        }
        Ok(true)
    }

    /// Assembles the functional output and statistics of a drained run,
    /// applying the configured output-integrity checks.
    fn finalize<M: Deref<Target = Csr<f64>>>(
        &self,
        operands: &Operands<M>,
        machine: &Machine,
    ) -> Result<RunOutcome, SimError> {
        let cfg = &self.cfg;
        let lanes_n = cfg.num_lanes();
        let state = &machine.state;
        let lanes = &state.lanes;

        // The functional output, checked as the C²SR the lanes wrote and
        // assembled once, in CSR.
        let (a, b) = (operands.a(), operands.b());
        let c = assemble_c(a.rows(), b.cols(), lanes.iter().map(|lane| &lane.writer)).ok_or(
            SimError::OutputCorrupted {
                detail: "output violates C2SR invariants",
                rows: Vec::new(),
            },
        )?;

        // ABFT first: O(nnz) row checksums localise the damage. The full
        // Gustavson cross-check (when enabled) stays as the belt-and-
        // braces oracle behind it.
        if cfg.abft_verification {
            let report = abft::verify(a, b, &c, &abft::AbftOptions::default());
            if !report.is_ok() {
                return Err(SimError::OutputCorrupted {
                    detail: "output fails ABFT row-checksum verification",
                    rows: report.offending_rows(),
                });
            }
        }

        if cfg.verify_against_reference {
            let reference = spgemm::gustavson(a, b);
            if !c.approx_eq(&reference, 1e-6) {
                return Err(SimError::OutputCorrupted {
                    detail: "output diverges from the Gustavson reference",
                    rows: Vec::new(),
                });
            }
        }

        // Aggregate statistics.
        let mut breakdown = CycleBreakdown::default();
        let mut per_pe_breakdown = Vec::with_capacity(lanes_n);
        let mut multiplies = 0u64;
        let mut additions = 0u64;
        let mut overflow_rows = 0usize;
        let mut overflow_padding = 0u64;
        let mut phase1 = 0u64;
        let mut phase2 = 0u64;
        let mut per_lane_attribution = Vec::with_capacity(lanes_n);
        for lane in lanes {
            let b = lane.pe.breakdown();
            breakdown.merge_from(&b);
            per_pe_breakdown.push(b);
            multiplies += lane.pe.multiplies.get();
            additions += lane.pe.additions.get();
            overflow_rows += lane.pe.overflow_rows.len();
            overflow_padding += lane.writer.finished().map(|(.., padded)| padded).sum::<u64>();
            phase1 += lane.pe.phase1_cycles.get();
            phase2 += lane.pe.phase2_cycles.get();
            per_lane_attribution.push(lane.attribution());
        }
        let mem_stats = state.hbm.stats();
        let per_pe_nnz = (0..lanes_n).map(|l| machine.ac.channel_nnz(l) as u64).collect();

        Ok(RunOutcome {
            c,
            stats: MatRaptorStats {
                total_cycles: state.t + 1,
                clock_ghz: cfg.clock_ghz,
                breakdown,
                per_pe_breakdown,
                multiplies,
                additions,
                bytes_read: mem_stats.bytes_read,
                bytes_written: mem_stats.bytes_written,
                traffic_read: mem_stats.traffic_read,
                traffic_written: mem_stats.traffic_written,
                per_pe_nnz,
                overflow_rows,
                overflow_padding_entries: overflow_padding,
                phase1_cycles: phase1,
                phase2_cycles: phase2,
                per_lane_attribution,
            },
        })
    }
}

/// Arms `plan` on a machine reset for its job. Lane-targeted faults are
/// remapped to a lane that actually has work so a sampled site on an empty
/// lane cannot silently skip the injection.
fn arm_fault(machine: &mut Machine, plan: &FaultPlan, lanes_n: usize) {
    let (ac, state) = (&machine.ac, &mut machine.state);
    state.hbm.set_faults(plan.mem_faults());
    let site = {
        let preferred = plan.site % lanes_n;
        if ac.channel_nnz(preferred) > 0 {
            preferred
        } else {
            (0..lanes_n).find(|&l| ac.channel_nnz(l) > 0).unwrap_or(preferred)
        }
    };
    match plan.kind {
        FaultKind::StreamTruncation | FaultKind::StreamCorruption => {
            let tokens = ac.channel_nnz(site) as u64;
            if tokens > 0 {
                state.stream_fault = Some(StreamInjector {
                    lane: site,
                    target: plan.ordinal % tokens,
                    seen: 0,
                    truncate: plan.kind == FaultKind::StreamTruncation,
                    corrupt_to: (machine.bc.rows() as u32)
                        .saturating_add(1 + (plan.ordinal % 97) as u32),
                });
            }
        }
        FaultKind::QueueOverflowForce => {
            state.lanes[site].pe.fault_force_overflow_after = Some(plan.ordinal % 32);
            state.lanes[site].pe.cpu_fallback = false;
        }
        FaultKind::DroppedWrite => {
            state.lanes[site].writer.fault_drop_append = Some(plan.ordinal % 64);
        }
        FaultKind::ChannelStall | FaultKind::BurstRefusal => {}
    }
}

/// Builds the structured deadlock payload from the watchdog's report plus
/// the machine state at the moment the wedge was declared.
fn deadlock_diagnostic(report: &WatchdogReport, lanes: &[Lane], hbm: &Hbm) -> DeadlockDiagnostic {
    let lane_diags = lanes
        .iter()
        .enumerate()
        .map(|(l, lane)| {
            let (spal_in_flight, spal_staging, spal_rows_remaining) = lane.spal.occupancy();
            let (spbl_jobs, spbl_in_flight, spbl_staging) = lane.spbl.occupancy();
            let (writer_queued, writer_pending) = lane.writer.occupancy();
            LaneDiagnostic {
                lane: l,
                last_progress: report.sources.get(l).map_or(0, |s| s.last_progress.as_u64()),
                spal_in_flight,
                spal_staging,
                spal_rows_remaining,
                spbl_jobs,
                spbl_in_flight,
                spbl_staging,
                coupling_a_tokens: lane.spal_out.len(),
                coupling_products: lane.pe_in.len(),
                pe_active: lane.pe.is_active(),
                writer_queued,
                writer_pending,
            }
        })
        .collect();
    let channels = hbm
        .queue_depths()
        .enumerate()
        .map(|(channel, queue_depth)| ChannelDiagnostic { channel, queue_depth })
        .collect();
    DeadlockDiagnostic {
        declared_at: report.declared_at.as_u64(),
        window: report.window,
        last_progress: report.last_progress.as_u64(),
        lanes: lane_diags,
        channels,
    }
}

/// The dense accumulator of [`reference_row`], kept across calls: one slot
/// per column of B, a flag per slot saying whether the row touched it, and
/// the touched columns. Grown on the first fallback, empty otherwise.
#[derive(Debug, Default)]
struct DenseRow {
    sums: Vec<f64>,
    touched: Vec<bool>,
    cols: Vec<u32>,
}

/// Software computation of one output row, appended to `cols` and `vals`
/// — the CPU-fallback path for sorting-queue overflows (Section VII). Each
/// column's products are summed from `0.0` in the order they are met, and
/// columns summing to zero are dropped.
fn reference_row(
    a: &Csr<f64>,
    b: &Csr<f64>,
    i: usize,
    acc: &mut DenseRow,
    cols: &mut Vec<u32>,
    vals: &mut Vec<f64>,
) {
    if acc.sums.len() < b.cols() {
        acc.sums.resize(b.cols(), 0.0);
        acc.touched.resize(b.cols(), false);
    }
    for (k, av) in a.row(i) {
        for (j, bv) in b.row(k as usize) {
            let slot = j as usize;
            if !acc.touched[slot] {
                acc.touched[slot] = true;
                acc.sums[slot] = 0.0;
                acc.cols.push(j);
            }
            acc.sums[slot] += av * bv;
        }
    }
    acc.cols.sort_unstable();
    for j in acc.cols.drain(..) {
        let slot = j as usize;
        acc.touched[slot] = false;
        if acc.sums[slot] != 0.0 {
            cols.push(j);
            vals.push(acc.sums[slot]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use matraptor_mem::HbmConfig;
    use matraptor_sparse::gen;

    /// The checked pair `(a, b)`.
    fn ops<'m>(a: &'m Csr<f64>, b: &'m Csr<f64>) -> Operands<&'m Csr<f64>> {
        Operands::new(a, b).expect("valid operands")
    }

    #[test]
    fn tiny_identity_product() {
        let eye = Csr::<f64>::identity(8);
        let outcome = Accelerator::new(MatRaptorConfig::small_test()).run(&eye, &eye);
        assert_eq!(outcome.c, eye);
        assert_eq!(outcome.stats.overflow_rows, 0);
    }

    #[test]
    fn paper_fig2_matrix_squared() {
        // The 4x4 example matrix of Fig. 2/3.
        let mut coo = matraptor_sparse::Coo::new(4, 4);
        for &(r, c, v) in &[
            (0u32, 0u32, 1.0),
            (0, 2, 2.0),
            (0, 3, 3.0),
            (1, 3, 4.0),
            (2, 1, 5.0),
            (3, 1, 6.0),
            (3, 2, 7.0),
        ] {
            coo.push(r, c, v);
        }
        let a = coo.compress();
        let outcome = Accelerator::new(MatRaptorConfig::small_test()).run(&a, &a);
        assert!(outcome.c.approx_eq(&spgemm::gustavson(&a, &a), 1e-9));
    }

    #[test]
    fn random_product_matches_reference() {
        let a = gen::uniform(60, 60, 320, 5);
        let b = gen::uniform(60, 60, 300, 6);
        let outcome = Accelerator::new(MatRaptorConfig::small_test()).run(&a, &b);
        // verify_against_reference already asserts; sanity-check stats too.
        assert_eq!(outcome.stats.multiplies, spgemm::multiply_count(&a, &b));
        assert!(outcome.stats.total_cycles > 0);
        assert!(outcome.stats.bytes_read > 0);
        assert!(outcome.stats.bytes_written > 0);
    }

    #[test]
    fn empty_rows_and_columns_are_handled() {
        // Matrix with several all-zero rows.
        let a =
            Csr::from_parts(6, 6, vec![0, 2, 2, 2, 3, 3, 3], vec![1, 3, 0], vec![1.0, 2.0, 3.0])
                .expect("structurally valid CSR");
        let outcome = Accelerator::new(MatRaptorConfig::small_test()).run(&a, &a);
        assert!(outcome.c.approx_eq(&spgemm::gustavson(&a, &a), 1e-9));
    }

    #[test]
    fn zero_matrix_product() {
        let z = Csr::<f64>::zero(10, 10);
        let outcome = Accelerator::new(MatRaptorConfig::small_test()).run(&z, &z);
        assert_eq!(outcome.c.nnz(), 0);
    }

    #[test]
    fn power_law_matrix_exercises_merge_path() {
        // RMAT rows force vectors > Q-1, exercising the merge+helper path.
        let a = gen::rmat(128, 1200, gen::RmatParams::default(), 9);
        let outcome = Accelerator::new(MatRaptorConfig::small_test()).run(&a, &a);
        let (busy, merge, mem, _) = outcome.stats.breakdown.fractions();
        assert!(busy > 0.0);
        assert!(merge > 0.0, "merge stalls expected on power-law inputs");
        assert!(mem >= 0.0);
    }

    #[test]
    fn queue_overflow_falls_back_to_cpu() {
        // Tiny queues + a dense-ish matrix forces overflow; the result
        // must still be correct and overflows reported.
        let cfg = MatRaptorConfig {
            queue_bytes: 64, // 8 entries per queue
            ..MatRaptorConfig::small_test()
        };
        let a = gen::uniform(32, 32, 512, 11);
        let outcome = Accelerator::new(cfg).run(&a, &a);
        assert!(outcome.stats.overflow_rows > 0, "expected overflows with 8-entry queues");
        assert!(outcome.c.approx_eq(&spgemm::gustavson(&a, &a), 1e-6));
    }

    #[test]
    fn default_config_eight_lanes() {
        let a = gen::uniform(64, 64, 400, 12);
        let outcome = Accelerator::new(MatRaptorConfig::default()).run(&a, &a);
        assert_eq!(outcome.stats.per_pe_nnz.len(), 8);
        assert!(outcome.stats.load_imbalance() >= 1.0);
    }

    #[test]
    fn rectangular_product() {
        let a = gen::uniform(40, 60, 250, 13);
        let b = gen::uniform(60, 30, 260, 14);
        let outcome = Accelerator::new(MatRaptorConfig::small_test()).run(&a, &b);
        assert_eq!((outcome.c.rows(), outcome.c.cols()), (40, 30));
    }

    /// `a * a` paused at cycle `k`: the checkpoint, or `None` if the run
    /// drained first.
    fn paused_at(accel: &Accelerator, a: &Csr<f64>, k: u64) -> Option<Checkpoint> {
        let fresh = RunStart::Fresh { plan: None, trace: None };
        let mut run = accel.start(ops(a, a), fresh).expect("valid operands");
        let drained = run.advance(k).expect("checkpointing run");
        (!drained).then(|| run.snapshot())
    }

    #[test]
    fn checkpoint_before_completion_resumes_to_identical_outcome() {
        let a = gen::uniform(48, 48, 300, 21);
        let accel = Accelerator::new(MatRaptorConfig::small_test());
        let full = accel.try_run(&a, &a).expect("clean run");
        let ck = paused_at(&accel, &a, 64).expect("run longer than 64 cycles");
        assert_eq!(ck.cycle(), 64);
        let resumed = accel.run_to_end(&a, &a, RunStart::Resume(&ck)).expect("resume");
        assert_eq!(resumed.stats.total_cycles, full.stats.total_cycles);
        assert_eq!(resumed.c, full.c);
    }

    #[test]
    fn checkpoint_after_completion_is_none() {
        let eye = Csr::<f64>::identity(8);
        let accel = Accelerator::new(MatRaptorConfig::small_test());
        let ck = paused_at(&accel, &eye, u64::MAX);
        assert!(ck.is_none(), "run should drain before u64::MAX cycles");
    }

    #[test]
    fn foreign_checkpoint_is_rejected() {
        let a = gen::uniform(48, 48, 300, 22);
        let other = gen::uniform(48, 48, 300, 23);
        let accel = Accelerator::new(MatRaptorConfig::small_test());
        let ck = paused_at(&accel, &a, 64).expect("checkpoint");
        match accel.run_to_end(&other, &other, RunStart::Resume(&ck)) {
            Err(SimError::CheckpointMismatch { .. }) => {}
            other => panic!("expected CheckpointMismatch, got {other:?}"),
        }
    }

    /// The issuing unit of a routed request: 0 for SpAL, 1 for SpBL and 2
    /// for the writer.
    fn unit_of(tag: Tag) -> usize {
        match tag {
            Tag::SpAlInfo { .. } | Tag::SpAlData { .. } => 0,
            Tag::SpBlInfo { .. } | Tag::SpBlData { .. } => 1,
            Tag::WriterAck => 2,
        }
    }

    /// A fresh run of `a * a` walked to the first cycle top with reads of
    /// SpAL and SpBL and a write of the writer all in flight.
    fn run_with_every_unit_in_flight<'a>(
        accel: &Accelerator,
        a: &'a Csr<f64>,
    ) -> Run<&'a Csr<f64>> {
        let fresh = RunStart::Fresh { plan: None, trace: None };
        let mut run = accel.start(ops(a, a), fresh).expect("valid operands");
        let all_units_in_flight = |state: &RunState| {
            let units: Vec<usize> = state.route.iter().map(|(_, r)| unit_of(r.tag)).collect();
            (0..3).all(|u| units.contains(&u))
        };
        while !all_units_in_flight(&run.machine().state) {
            let drained = run.advance(run.cycle() + 1).expect("clean run");
            assert!(!drained, "drained before every unit had a request in flight");
        }
        run
    }

    #[test]
    fn a_restore_routes_every_units_reads_as_the_paused_run_did() {
        let a = gen::uniform(96, 96, 900, 24);
        let accel = Accelerator::new(MatRaptorConfig::small_test());
        let routes = |state: &RunState| -> Vec<(u64, Route)> {
            state.route.iter().map(|(id, &r)| (id, r)).collect()
        };
        let mut run = run_with_every_unit_in_flight(&accel, &a);
        let ck = run.snapshot();
        let mut restored = accel.start(ops(&a, &a), RunStart::Resume(&ck)).expect("own checkpoint");
        assert_eq!(routes(&restored.machine().state), routes(&run.machine().state));
        assert_eq!(restored.snapshot().to_bytes(), ck.to_bytes());
        assert!(run.advance(u64::MAX).expect("clean run"));
        assert!(restored.advance(u64::MAX).expect("clean resume"));
        let (paused, resumed) =
            (run.finish().expect("drained"), restored.finish().expect("drained"));
        assert_eq!(resumed.stats, paused.stats);
        assert_eq!(resumed.c, paused.c);
    }

    /// `ck` with its payload edited by `edit` and its checksum recomputed:
    /// what a handed-over checkpoint with a valid envelope can hold.
    fn forged(ck: &Checkpoint, edit: impl FnOnce(&mut Vec<u8>)) -> Checkpoint {
        let header = Checkpoint::buffer().len();
        let mut payload = ck.to_bytes().split_off(header);
        edit(&mut payload);
        let bytes = Checkpoint::of_payload([Checkpoint::buffer(), payload].concat(), ck.cycle());
        Checkpoint::from_bytes(&bytes.to_bytes()).expect("a valid envelope")
    }

    /// Why resuming `ck` for `a * b` on `accel` is refused, or `None` when
    /// it resumes.
    fn refusal(
        accel: &Accelerator,
        a: &Csr<f64>,
        b: &Csr<f64>,
        ck: &Checkpoint,
    ) -> Option<&'static str> {
        match accel.start(ops(a, b), RunStart::Resume(ck)) {
            Ok(_) => None,
            Err(SimError::CheckpointMismatch { detail }) => Some(detail),
            Err(other) => panic!("expected CheckpointMismatch, got {other:?}"),
        }
    }

    #[test]
    fn a_restore_refuses_routes_that_disagree_with_the_pending_lists() {
        let a = gen::uniform(96, 96, 900, 24);
        let accel = Accelerator::new(MatRaptorConfig::small_test());
        let ck = run_with_every_unit_in_flight(&accel, &a).snapshot();
        let refused = |edit: &dyn Fn(&mut Vec<u8>)| refusal(&accel, &a, &a, &forged(&ck, edit));
        assert_eq!(refused(&|_| {}), None, "the unedited checkpoint restores");
        // The route list follows the three fingerprints, the cycle and the
        // next id: its length, then `(id, lane)` pairs in id order.
        let route = 48;
        let routes = u64::from_le_bytes(ck.to_bytes()[16 + 40..16 + 48].try_into().unwrap());
        let lanes = route + 16 * routes as usize;
        let differ = Some("checkpoint routes differ from its units' pending requests");
        // The first routed id moves past every pending one: the route names
        // an id that no unit's pending list holds, and a list holds an id
        // that the route does not name.
        assert_eq!(refused(&|p| p[route + 7] ^= 0x80), differ);
        // The route sends a pending request to another lane.
        assert_eq!(refused(&|p| p[route + 8] ^= 1), differ);
        // Two units hold the second routed id: the first one's pending
        // entry, the first copy of its id past the route list, names it.
        let twice = refused(&|p| {
            let (first, second) =
                (p[route..route + 8].to_vec(), p[route + 16..route + 24].to_vec());
            let at = lanes + p[lanes..].windows(8).position(|w| w == first).expect("pending");
            p[at..at + 8].copy_from_slice(&second);
        });
        assert_eq!(twice, Some("checkpoint lists a request id as pending twice"));
    }

    /// `ck`, taken of another run, passed off as one of `accel`'s run of
    /// `a * b`: its fingerprints rewritten and its checksum recomputed.
    fn passed_off(ck: &Checkpoint, accel: &Accelerator, a: &Csr<f64>, b: &Csr<f64>) -> Checkpoint {
        let [fa, fb] = ops(a, b).matrix_fingerprints();
        forged(ck, |p| {
            for (i, f) in [fingerprint_config(&accel.cfg), fa, fb].into_iter().enumerate() {
                p[8 * i..8 * i + 8].copy_from_slice(&f.to_le_bytes());
            }
        })
    }

    /// The checkpoint of `a * b` on `cfg` at the first cycle top at which
    /// `hit` holds of the machine.
    fn checkpoint_where(
        cfg: MatRaptorConfig,
        a: &Csr<f64>,
        b: &Csr<f64>,
        hit: impl Fn(&RunState) -> bool,
    ) -> Checkpoint {
        let accel = Accelerator::new(cfg);
        let fresh = RunStart::Fresh { plan: None, trace: None };
        let mut run = accel.start(ops(a, b), fresh).expect("valid operands");
        while !hit(&run.machine().state) {
            assert!(!run.advance(run.cycle() + 1).expect("clean run"), "drained first");
        }
        run.snapshot()
    }

    #[test]
    fn a_resume_refuses_payloads_that_do_not_fit_the_machine() {
        let cfg = MatRaptorConfig {
            coupling_fifo_depth: 2,
            mem: HbmConfig { queue_depth: 4, ..HbmConfig::with_channels(2) },
            ..MatRaptorConfig::small_test()
        };
        let a = gen::uniform(48, 48, 300, 25);
        let accel = Accelerator::new(cfg.clone());
        let want = job_print(&Accelerator::new(cfg.clone()), &a, &a);
        let at_start = |_: &RunState| true;
        let other_cfg = |edit: &dyn Fn(&mut MatRaptorConfig)| {
            let mut other = cfg.clone();
            edit(&mut other);
            other
        };
        let (depth, fifo) = (cfg.mem.queue_depth, cfg.coupling_fifo_depth);
        // A 49-row A gives lane 0 one more row, and with it one more flag.
        let taller = gen::uniform(49, 48, 300, 26);
        let cases: [(Checkpoint, &str); 6] = [
            (
                checkpoint_where(other_cfg(&|c| c.mem.banks_per_channel -= 1), &a, &a, at_start),
                "a channel's bank count differs",
            ),
            (
                checkpoint_where(cfg.clone(), &taller, &a, at_start),
                "SpAL's row count differs from the job's",
            ),
            (
                checkpoint_where(other_cfg(&|c| c.queues_per_pe -= 1), &a, &a, at_start),
                "a PE queue set holds another number of queues",
            ),
            (
                checkpoint_where(other_cfg(&|c| c.mem.queue_depth *= 8), &a, &a, |st| {
                    st.hbm.queue_depths().any(|d| d > depth)
                }),
                "a FIFO holds more entries than its capacity",
            ),
            (
                checkpoint_where(other_cfg(&|c| c.coupling_fifo_depth *= 8), &a, &a, |st| {
                    st.lanes.iter().any(|l| l.spal_out.len().max(l.pe_in.len()) > fifo)
                }),
                "a coupling FIFO holds more tokens than its depth",
            ),
            (
                forged(&checkpoint_where(cfg.clone(), &a, &a, |st| st.t == 64), |p| p.push(0)),
                "bytes are left after the walk",
            ),
        ];
        for (ck, detail) in cases {
            let ck = passed_off(&ck, &accel, &a, &a);
            assert_eq!(refusal(&accel, &a, &a, &ck), Some(detail));
            assert!(job_print(&accel, &a, &a) == want, "a refused resume left a trace: {detail}");
        }
    }

    /// Where two in-flight SpAL reads sit in a checkpoint payload.
    struct SpAlReads {
        /// Where the info read's pending entry starts: its id, then its
        /// row position.
        info: usize,
        /// Where the data read's starts: its id, its row position, then
        /// its first entry and count.
        data: usize,
        /// The row of A the data read fetches from.
        row: usize,
    }

    /// A checkpoint of `a * a` on `accel` taken while SpAL has an info
    /// read and a data read in flight, its payload forged by `edit`.
    fn forged_spal_reads(
        accel: &Accelerator,
        a: &Csr<f64>,
        edit: &dyn Fn(&mut Vec<u8>, &SpAlReads),
    ) -> Checkpoint {
        let fresh = RunStart::Fresh { plan: None, trace: None };
        let mut run = accel.start(ops(a, a), fresh).expect("valid operands");
        let reads = |state: &RunState| {
            let info = state.route.iter().find_map(|(id, r)| match r.tag {
                Tag::SpAlInfo { row_pos } => Some((id, row_pos)),
                _ => None,
            });
            let data = state.route.iter().find_map(|(id, r)| match r.tag {
                Tag::SpAlData { row_pos, first_entry, count } => {
                    Some((id, r.lane, row_pos, first_entry, count))
                }
                _ => None,
            });
            info.zip(data)
        };
        let ((info_id, info_pos), (data_id, lane, data_pos, first_entry, count)) = loop {
            if let Some(found) = reads(&run.machine().state) {
                break found;
            }
            assert!(!run.advance(run.cycle() + 1).expect("clean run"), "drained first");
        };
        let info = [info_id.to_le_bytes(), (info_pos as u64).to_le_bytes()].concat();
        let data = [
            data_id.to_le_bytes().as_slice(),
            &(data_pos as u64).to_le_bytes(),
            &first_entry.to_le_bytes(),
            &count.to_le_bytes(),
        ]
        .concat();
        let row = lane + data_pos * accel.cfg.num_lanes();
        forged(&run.snapshot(), |p| {
            let at = |bytes: &[u8]| {
                p.windows(bytes.len()).position(|w| w == bytes).expect("the pending read")
            };
            let reads = SpAlReads { info: at(&info), data: at(&data), row };
            edit(p, &reads);
        })
    }

    #[test]
    fn a_resume_refuses_spal_reads_that_name_no_entries_of_a() {
        let a = gen::uniform(96, 96, 900, 24);
        let accel = Accelerator::new(MatRaptorConfig::small_test());
        let want = job_print(&accel, &a, &a);
        let refused = |edit: &dyn Fn(&mut Vec<u8>, &SpAlReads)| {
            refusal(&accel, &a, &a, &forged_spal_reads(&accel, &a, edit))
        };
        let far = 9_999u64.to_le_bytes();
        assert_eq!(refused(&|_, _| {}), None, "the unedited reads restore");
        let past_rows = Some("a pending SpAL read names a row past the lane's rows");
        let info_far = refused(&|p, at| p[at.info + 8..at.info + 16].copy_from_slice(&far));
        assert_eq!(info_far, past_rows);
        let data_far = refused(&|p, at| p[at.data + 8..at.data + 16].copy_from_slice(&far));
        assert_eq!(data_far, past_rows);
        // The data read asks for one entry more than its row of A holds.
        let past_row = refused(&|p, at| {
            let first = u32::from_le_bytes(p[at.data + 16..at.data + 20].try_into().expect("u32"));
            let count = a.row_nnz(at.row) as u32 + 1 - first;
            p[at.data + 20..at.data + 24].copy_from_slice(&count.to_le_bytes());
        });
        assert_eq!(past_row, Some("a pending SpAL read runs past its row of A"));
        assert!(job_print(&accel, &a, &a) == want, "a refused resume left a trace");
    }

    /// The 2-lane template of the `par_slices` and `wire_mixed`
    /// benchmarks, with watchdog window `window` (0 turns it off).
    fn two_lane(window: u64) -> Accelerator {
        Accelerator::new(MatRaptorConfig {
            watchdog_window: window,
            verify_against_reference: false,
            abft_verification: true,
            ..MatRaptorConfig::small_test()
        })
    }

    /// `a * a` paused at cycle `k` and resumed with one more write pending
    /// on `lane`, which the memory never acknowledges. The writer waits for
    /// it forever, so the machine wedges once everything else drains. No
    /// memory fault schedule is installed, so the lanes sleep.
    fn lost_ack_run(
        accel: &Accelerator,
        a: &Csr<f64>,
        k: u64,
        lane: usize,
    ) -> Result<RunOutcome, SimError> {
        let ck = paused_at(accel, a, k).expect("run longer than the pause");
        let mut run = accel.start(ops(a, a), RunStart::Resume(&ck))?;
        let st = &mut run.machine.as_mut().expect("a live run holds its machine").state;
        let id = st.next_id;
        st.next_id += 1;
        st.route.insert(id, Route { lane, tag: Tag::WriterAck });
        st.lanes[lane].writer.pending += 1;
        run.advance(u64::MAX)?;
        run.finish()
    }

    /// `(lane, pause cycle, declared_at, last_progress, diagnostic digest)`
    /// of two lost-acknowledgement wedges: one resumed inside the first
    /// stretch in which every lane sleeps, one near the end of the run.
    /// The digest hashes the diagnostic's `Debug` form, per-lane occupancy
    /// included.
    const LOST_ACK_PINS: [(usize, u64, u64, u64, u64); 2] = [
        (0, 64, 3_520, 1_472, 0x693a_87ad_2675_9409),
        (1, 1_200, 3_520, 1_472, 0x91b0_9664_9fab_84d5),
    ];

    /// `(budget, cycles)` of the first wedge with the watchdog off.
    const BUDGET_PIN: (u64, u64) = (2_048_000, 2_048_000);

    #[test]
    fn watchdog_and_budget_exits_of_a_sleeping_wedge_match_the_pins() {
        let a = gen::uniform(16, 16, 32, 7);
        let accel = two_lane(2_000);
        for &(lane, k, declared_at, last_progress, digest) in &LOST_ACK_PINS {
            match lost_ack_run(&accel, &a, k, lane) {
                Err(SimError::Deadlock(diag)) => {
                    let got = (diag.declared_at, diag.last_progress);
                    let debug = matraptor_sim::trace::fnv1a64(format!("{diag:?}").as_bytes());
                    assert_eq!(
                        (lane, k, got.0, got.1, debug),
                        (lane, k, declared_at, last_progress, digest),
                        "{diag:?}"
                    );
                }
                other => panic!("expected a deadlock, got {other:?}"),
            }
        }
        match lost_ack_run(&two_lane(0), &a, 64, 0) {
            Err(SimError::CycleBudgetExceeded { budget, cycles }) => {
                assert_eq!((budget, cycles), BUDGET_PIN);
            }
            other => panic!("expected the cycle budget to trip, got {other:?}"),
        }
    }

    /// What a clean job shows from the outside: the digest of its outcome's
    /// `Debug` form, and the bytes of its checkpoints at cycle 0 and at
    /// mid-run. The mid-run checkpoint, resumed, must finish exactly as
    /// the uninterrupted run did.
    fn job_print(accel: &Accelerator, a: &Csr<f64>, b: &Csr<f64>) -> (u64, Vec<u8>, Vec<u8>) {
        let digest =
            |outcome: &RunOutcome| matraptor_sim::trace::fnv1a64(format!("{outcome:?}").as_bytes());
        let outcome = accel.try_run(a, b).expect("clean run");
        let fresh = RunStart::Fresh { plan: None, trace: None };
        let first = accel.start(ops(a, b), fresh).expect("valid operands").snapshot().to_bytes();
        let mut run = accel.start(ops(a, b), fresh).expect("valid operands");
        let mid = outcome.stats.total_cycles / 2;
        assert!(!run.advance(mid).expect("clean run"), "the run drained before mid-run");
        let ck = run.snapshot();
        drop(run);
        let mut resumed = accel.start(ops(a, b), RunStart::Resume(&ck)).expect("own checkpoint");
        assert!(resumed.advance(u64::MAX).expect("clean resume"));
        let resumed = resumed.finish().expect("drained");
        assert_eq!(digest(&resumed), digest(&outcome), "the resume diverged");
        (digest(&outcome), first, ck.to_bytes())
    }

    /// Runs one job that ends the `i`-th way an accelerator's run can end:
    /// drained, paused and dropped at a deadline, armed with each fault
    /// kind (the overflow one with the CPU fallback off), wedged on a lost
    /// write acknowledgement (over the cycle budget with the watchdog off),
    /// traced, or failed mid-cycle. `None` past the last way.
    fn end_one_job(accel: &Accelerator, a: &Csr<f64>, i: usize) -> Option<&'static str> {
        let fresh = RunStart::Fresh { plan: None, trace: None };
        let kinds = FaultKind::ALL.len();
        match i {
            0 => {
                accel.try_run(a, a).expect("clean run");
                Some("completed")
            }
            1 => {
                let mut run = accel.start(ops(a, a), fresh).expect("valid operands");
                assert!(!run.advance(100).expect("clean run"), "drained before its deadline");
                Some("paused and dropped")
            }
            i if i < 2 + kinds => {
                let kind = FaultKind::ALL[i - 2];
                let plan = FaultPlan::sample(kind, 3, accel.config().num_lanes());
                let start = RunStart::Fresh { plan: Some(&plan), trace: None };
                let _ended = accel.run_to_end(a, a, start);
                Some(kind.name())
            }
            i if i == 2 + kinds => {
                let window = accel.config().watchdog_window;
                match lost_ack_run(accel, a, 64, 0) {
                    Err(SimError::Deadlock(_)) if window > 0 => Some("deadlock"),
                    Err(SimError::CycleBudgetExceeded { .. }) if window == 0 => Some("budget"),
                    other => panic!("expected the lost acknowledgement to wedge, got {other:?}"),
                }
            }
            i if i == 3 + kinds => {
                let trace = TraceConfig::default();
                let start = RunStart::Fresh { plan: None, trace: Some(&trace) };
                let mut run = accel.start(ops(a, a), start).expect("valid operands");
                assert!(run.advance(u64::MAX).expect("traced run"), "drained");
                assert!(run.take_trace().is_some());
                run.finish().expect("traced run");
                Some("traced")
            }
            i if i == 4 + kinds => {
                // On the 2-lane templates this fails mid-cycle, with the
                // other lane's responses of that cycle still undelivered.
                let plan = FaultPlan::sample(FaultKind::StreamCorruption, 17, 2);
                let start = RunStart::Fresh { plan: Some(&plan), trace: None };
                let ended = accel.run_to_end(a, a, start);
                assert!(matches!(ended, Err(SimError::MalformedInput(_))), "{ended:?}");
                Some("mid-cycle failure")
            }
            _ => None,
        }
    }

    #[test]
    fn a_recycled_machine_is_a_fresh_machine() {
        let ending = gen::uniform(48, 48, 300, 21);
        // A `wire_mixed` pool shape and a `par_slices` tiny-job shape.
        let wire = (gen::uniform(12, 12, 24, 31), gen::uniform(12, 12, 24, 32));
        let tiny = (gen::uniform(32, 32, 192, 33), gen::uniform(32, 32, 192, 34));
        let prints = |accel: &Accelerator| {
            [job_print(accel, &wire.0, &wire.1), job_print(accel, &tiny.0, &tiny.1)]
        };
        let eight_lane =
            |window| MatRaptorConfig { watchdog_window: window, ..MatRaptorConfig::default() };
        let templates = [two_lane(2_000).cfg, two_lane(0).cfg, eight_lane(2_000), eight_lane(0)];
        for cfg in templates {
            let want = prints(&Accelerator::new(cfg.clone()));
            let accel = Accelerator::new(cfg.clone());
            let mut i = 0;
            while let Some(ending) = end_one_job(&accel, &ending, i) {
                assert!(
                    prints(&accel) == want,
                    "{} lanes, watchdog {}: a clean job after one {ending} differs from a fresh one",
                    cfg.num_lanes(),
                    cfg.watchdog_window
                );
                i += 1;
            }
            assert_eq!(i, 11, "every ending ran");
        }
    }

    /// The CPU fallback's accumulator before it was made dense: an ordered
    /// map from column to running sum.
    fn btree_reference_row(a: &Csr<f64>, b: &Csr<f64>, i: usize) -> (Vec<u32>, Vec<f64>) {
        let mut acc = std::collections::BTreeMap::<u32, f64>::new();
        for (k, av) in a.row(i) {
            for (j, bv) in b.row(k as usize) {
                *acc.entry(j).or_insert(0.0) += av * bv;
            }
        }
        acc.into_iter().filter(|&(_, v)| v != 0.0).unzip()
    }

    #[test]
    fn the_dense_fallback_row_is_bit_identical_to_the_ordered_map() {
        use matraptor_sparse::rng::ChaCha8Rng;
        let bits = |(cols, vals): (Vec<u32>, Vec<f64>)| -> (Vec<u32>, Vec<u64>) {
            (cols, vals.iter().map(|v| v.to_bits()).collect())
        };
        // Values from a small set with signed zeros and opposite pairs, so
        // columns met from several rows of B repeat, cancel to 0.0 and
        // carry -0.0 products.
        const VALUES: [f64; 8] = [1.0, -1.0, 0.5, -0.5, 3.0, 0.0, -0.0, 0.1];
        let mut rng = ChaCha8Rng::seed_from_u64(0x5eed);
        for trial in 0..40 {
            let (n, k, m) = (12, 10, 9);
            let mut random = |rows: usize, cols: usize, per_row: usize| {
                let mut row_ptr = vec![0];
                let (mut col_idx, mut values) = (Vec::new(), Vec::new());
                for r in 0..rows {
                    // Every fourth row is empty.
                    if r % 4 != 3 {
                        let mut picked: Vec<u32> =
                            (0..per_row).map(|_| rng.gen_range(0..cols as u32)).collect();
                        picked.sort_unstable();
                        picked.dedup();
                        for c in picked {
                            col_idx.push(c);
                            values.push(VALUES[rng.gen_range(0..VALUES.len())]);
                        }
                    }
                    row_ptr.push(col_idx.len());
                }
                Csr::from_parts(rows, cols, row_ptr, col_idx, values).expect("valid CSR")
            };
            let a = random(n, k, 6);
            let b = random(k, m, 5);
            let mut acc = DenseRow::default();
            for i in 0..n {
                let mut dense = (Vec::new(), Vec::new());
                reference_row(&a, &b, i, &mut acc, &mut dense.0, &mut dense.1);
                assert_eq!(
                    bits(dense),
                    bits(btree_reference_row(&a, &b, i)),
                    "trial {trial} row {i}"
                );
            }
        }
        // A product row cancelling to 0.0 in one column and summing -0.0
        // products in another keeps neither.
        let a = Csr::from_parts(1, 2, vec![0, 2], vec![0, 1], vec![1.0, 1.0]).expect("valid");
        let b = Csr::from_parts(2, 3, vec![0, 2, 4], vec![0, 1, 0, 1], vec![2.0, -0.0, -2.0, 0.0])
            .expect("valid");
        let (mut acc, mut cols, mut vals) = (DenseRow::default(), Vec::new(), Vec::new());
        reference_row(&a, &b, 0, &mut acc, &mut cols, &mut vals);
        assert_eq!((cols, vals), (vec![], vec![]));
        assert_eq!(btree_reference_row(&a, &b, 0), (vec![], vec![]));
    }
}
