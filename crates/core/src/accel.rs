//! The top-level accelerator: lanes over a shared HBM.

use std::cell::OnceCell;
use std::collections::{BTreeMap, VecDeque};
use std::ops::Deref;

use matraptor_mem::Hbm;
use matraptor_sim::stats::CycleBreakdown;
use matraptor_sim::trace::StageBreakdown;
use matraptor_sim::watchdog::mix_signature;
use matraptor_sim::{Cycle, IdTable, SourceId, SourceState, Watchdog, WatchdogReport};
use matraptor_sparse::{abft, spgemm, C2sr, Csr};

use crate::checkpoint::{
    fingerprint_config, fingerprint_matrix, Checkpoint, CheckpointState, LaneState,
    StreamFaultState, WdSourceState,
};
use crate::config::MatRaptorConfig;
use crate::error::{
    ChannelDiagnostic, ConfigError, DeadlockDiagnostic, LaneDiagnostic, MalformedInput, SimError,
};
use crate::fault::{FaultKind, FaultPlan};
use crate::layout::{matrix_layout, MatrixLayout, Regions};
use crate::pe::Pe;
use crate::port::MemPort;
use crate::spal::SpAl;
use crate::spbl::SpBl;
use crate::stats::{LaneAttribution, MatRaptorStats};
use crate::tokens::{ATok, PeTok};
use crate::trace::{RunTrace, TraceConfig, TraceSampler};
use crate::writer::Writer;

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
#[derive(Debug, Clone)]
pub struct Accelerator {
    cfg: MatRaptorConfig,
}

/// Result of one accelerator run: the output matrix plus measurements.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// The computed product in CSR form.
    pub c: Csr<f64>,
    /// The same product in the C²SR layout the hardware wrote.
    pub c2sr: C2sr<f64>,
    /// Cycle counts, traffic, and breakdowns.
    pub stats: MatRaptorStats,
}

/// Where a [`RunRequest`] starts. The fault plan and the trace live on the
/// fresh start because they only mean something from cycle 0: a resumed
/// run's armed fault state rides its checkpoint, and a trace sampler's
/// window deltas start at zero.
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

/// One run of `a * b`, as the host's `mtx` handshake describes it: the
/// operands, where the run starts, and where it stops.
#[derive(Debug, Clone, Copy)]
pub struct RunRequest<'r> {
    /// Left operand.
    pub a: &'r Csr<f64>,
    /// Right operand.
    pub b: &'r Csr<f64>,
    /// Fresh start (with optional fault plan and trace) or resume.
    pub start: RunStart<'r>,
    /// Pause at the top of this accelerator cycle if the machine has not
    /// drained by then, returning [`SliceRun::Paused`]. A scheduler's slice
    /// boundary or cycle deadline; `None` runs to completion.
    pub pause_at: Option<u64>,
}

impl<'r> RunRequest<'r> {
    /// A fresh, fault-free, untraced run to completion. Other shapes are
    /// this plus struct-update syntax, e.g.
    /// `RunRequest { pause_at: Some(64), ..RunRequest::new(a, b) }`.
    pub fn new(a: &'r Csr<f64>, b: &'r Csr<f64>) -> Self {
        RunRequest { a, b, start: RunStart::Fresh { plan: None, trace: None }, pause_at: None }
    }
}

/// How an [`Accelerator::execute`] run ended: the job drained, or it paused
/// at [`RunRequest::pause_at`] with a resumable [`Checkpoint`] — possibly
/// resumed on a *different* worker holding an identically-configured
/// accelerator, which is exactly the fleet re-dispatch path.
#[derive(Debug)]
pub enum SliceRun {
    /// The run drained at or before the pause cycle. Boxed to keep the
    /// enum near pointer size next to the slim `Paused` payload.
    Completed(Box<RunOutcome>),
    /// The run paused; resume it with [`RunStart::Resume`].
    Paused(Box<Checkpoint>),
}

impl SliceRun {
    /// The outcome of a request without a pause cycle, which always
    /// drains.
    ///
    /// # Errors
    ///
    /// [`SimError::ProtocolViolation`] if the run paused anyway.
    pub fn completed(self) -> Result<RunOutcome, SimError> {
        match self {
            SliceRun::Completed(outcome) => Ok(*outcome),
            SliceRun::Paused(_) => {
                Err(SimError::ProtocolViolation { detail: "a run without a pause cycle paused" })
            }
        }
    }
}

struct Lane {
    spal: SpAl,
    spbl: SpBl,
    pe: Pe,
    writer: Writer,
    spal_out: VecDeque<ATok>,
    pe_in: VecDeque<PeTok>,
    /// The lane's last tick changed nothing but per-cycle counters, so
    /// until it wakes each cycle only replays them (DESIGN.md §4 item 7).
    /// Derived: every lane starts awake, also after a restore.
    asleep: bool,
    /// The channels the lane's last tick was refused on
    /// ([`MemPort::refused`]); a slot freed on one of them wakes it.
    waits_on: u64,
}

impl Lane {
    /// Whether every stage's last tick changed nothing but its counters.
    fn is_quiet(&self) -> bool {
        self.spal.is_quiet() && self.spbl.is_quiet() && self.pe.is_quiet() && self.writer.is_quiet()
    }

    /// A sleeping lane's cycle: every stage repeats its last tick's
    /// counter updates.
    fn replay_stall(&mut self) {
        self.pe.replay_stall();
        self.spbl.replay_stall();
        self.spal.replay_stall();
        self.writer.replay_stall();
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

/// Read-only context of a run: everything deterministically derived from
/// `(config, A, B)` once, shared by fresh starts and checkpoint resumes.
/// Because it is recomputed — never serialized — a checkpoint stays small
/// and a resume is guaranteed to see the exact layouts and budgets the
/// original run saw (the fingerprints in the checkpoint enforce that the
/// inputs really are the same).
struct RunContext<M> {
    a: M,
    b: M,
    ac: C2sr<f64>,
    bc: C2sr<f64>,
    a_layout: MatrixLayout,
    b_layout: MatrixLayout,
    c_layout: MatrixLayout,
    ratio: u64,
    budget: u64,
    /// The configuration, A and B fingerprints a checkpoint carries,
    /// hashed on first use: a run that never snapshots or restores never
    /// pays for them, and a resident run pays once.
    identity: OnceCell<[u64; 3]>,
}

impl<M: Deref<Target = Csr<f64>>> RunContext<M> {
    /// The `(config, A, B)` fingerprints of this run.
    fn identity(&self, cfg: &MatRaptorConfig) -> [u64; 3] {
        *self.identity.get_or_init(|| {
            [fingerprint_config(cfg), fingerprint_matrix(&self.a), fingerprint_matrix(&self.b)]
        })
    }
}

/// A run held live between slices: the machine and its read-only context,
/// owned together with the operands (`M` is a `&Csr`, `Rc<Csr>` or
/// `Arc<Csr>`) and a copy of the configuration. This is how the host's
/// `mtx` handshake works in the paper — the accelerator is programmed once
/// per job, and its state stays on chip until C drains — so a scheduler
/// that runs a job in slices pays for validation, C²SR conversion and
/// restore once per dispatch instead of once per slice. A [`Checkpoint`]
/// is only taken when the job has to leave the machine
/// ([`Run::snapshot`]).
///
/// # Example
///
/// ```rust
/// use matraptor_core::{Accelerator, MatRaptorConfig, RunStart};
/// use matraptor_sparse::gen;
///
/// let a = gen::uniform(32, 32, 160, 1);
/// let accel = Accelerator::new(MatRaptorConfig::small_test());
/// let mut run =
///     accel.start(&a, &a, RunStart::Fresh { plan: None, trace: None }).expect("valid operands");
/// while !run.advance(run.cycle() + 256).expect("clean run") {}
/// let outcome = run.finish().expect("drained");
/// assert_eq!(outcome.stats.total_cycles, accel.run(&a, &a).stats.total_cycles);
/// ```
pub struct Run<M: Deref<Target = Csr<f64>>> {
    accel: Accelerator,
    ctx: RunContext<M>,
    state: RunState,
    // conformance:allow(checkpoint-coverage): observational only, and a resumed run records no trace
    sampler: Option<TraceSampler>,
    // conformance:allow(checkpoint-coverage): a drained run is finished, never snapshotted
    drained: bool,
}

impl<M: Deref<Target = Csr<f64>>> std::fmt::Debug for Run<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Run")
            .field("cycle", &self.state.t)
            .field("drained", &self.drained)
            .finish_non_exhaustive()
    }
}

impl<M: Deref<Target = Csr<f64>>> Run<M> {
    /// The accelerator cycle the machine stands at: the top of the next
    /// cycle to run while paused, the last cycle once drained.
    pub fn cycle(&self) -> u64 {
        self.state.t
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
            let Run { accel, ctx, state, sampler, .. } = self;
            self.drained = accel.drive(ctx, state, until, sampler.as_mut())?;
        }
        Ok(self.drained)
    }

    /// The paused machine as a resumable [`Checkpoint`]: byte-identical to
    /// the one a run paused at the same cycle by [`Accelerator::execute`]
    /// would return.
    pub fn snapshot(&self) -> Checkpoint {
        self.accel.snapshot_run(&self.ctx, &self.state)
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
        self.accel.finalize(&self.ctx, &self.state)
    }
}

/// The complete mutable state of a run — exactly what a [`Checkpoint`]
/// captures. The per-cycle `inboxes` are deliberately absent: they are
/// provably empty at the top of every cycle (responses are drained in the
/// same iteration they pop), which is where snapshots are taken.
struct RunState {
    t: u64,
    next_id: u64,
    /// In-flight request id → issuing lane.
    route: IdTable<usize>,
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
    /// Panics if the configuration is invalid (see
    /// [`MatRaptorConfig::validate`]).
    pub fn new(cfg: MatRaptorConfig) -> Self {
        cfg.validate();
        Accelerator { cfg }
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
        Ok(Accelerator { cfg })
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
    /// Panics with the [`SimError`] message if the run fails: inner
    /// dimensions disagree, the watchdog declares a deadlock, the cycle
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
    /// [`SimError::MalformedInput`] for bad operands,
    /// [`SimError::Deadlock`] when the forward-progress watchdog fires,
    /// [`SimError::CycleBudgetExceeded`] if the budget backstop trips,
    /// [`SimError::QueueOverflow`] for unrecoverable overflows, and
    /// [`SimError::OutputCorrupted`] when an integrity check fails.
    #[must_use = "dropping the Result loses both the run outcome and any fault diagnosis"]
    pub fn try_run(&self, a: &Csr<f64>, b: &Csr<f64>) -> Result<RunOutcome, SimError> {
        self.execute(&RunRequest::new(a, b))?.0.completed()
    }

    /// Runs one [`RunRequest`] — a [`Run`] started, advanced once and
    /// ended — the entry point behind fault campaigns, traces,
    /// checkpoints, deadlines and slices.
    ///
    /// Starts fresh (arming the plan) or restores the checkpoint, then
    /// drives until the machine drains or reaches `pause_at`. A drained
    /// run is finalized (integrity checks included); a paused one is
    /// captured as a [`Checkpoint`], and resuming it yields bit-identical
    /// cycle counts and output values to the uninterrupted run — the
    /// replay-determinism invariant of DESIGN.md §9. A deadline is a
    /// `pause_at` whose checkpoint the caller drops: a cancelled job costs
    /// exactly the deadline in simulated cycles, never more. The trace, if
    /// requested, covers every cycle the request ran.
    ///
    /// # Errors
    ///
    /// [`SimError::CheckpointMismatch`] for a foreign checkpoint, otherwise
    /// as [`Accelerator::try_run`] for failures before the pause cycle.
    #[must_use = "dropping the Result loses the run outcome, pause checkpoint, or fault diagnosis"]
    pub fn execute(&self, req: &RunRequest<'_>) -> Result<(SliceRun, Option<RunTrace>), SimError> {
        let mut run = self.start(req.a, req.b, req.start)?;
        let drained = run.advance(req.pause_at.unwrap_or(u64::MAX))?;
        let trace = run.sampler.take().map(|sampler| {
            let attrs: Vec<LaneAttribution> =
                run.state.lanes.iter().map(Lane::attribution).collect();
            // A drained run's last cycle is `t`; a paused one stops before it.
            let cycles = if drained { run.state.t + 1 } else { run.state.t };
            sampler.finish(cycles, run.ctx.ratio, &run.state.hbm.channel_stats(), &attrs)
        });
        let run = if drained {
            SliceRun::Completed(Box::new(run.finish()?))
        } else {
            SliceRun::Paused(Box::new(run.snapshot()))
        };
        Ok((run, trace))
    }

    /// Starts a [`Run`] of `a * b` that holds its machine live between
    /// [`Run::advance`] calls: fresh (arming the plan, recording the
    /// trace) or restored from a checkpoint. The operands are owned by the
    /// run, as references or shared handles.
    ///
    /// # Errors
    ///
    /// [`SimError::MalformedInput`] if the inner dimensions disagree and
    /// [`SimError::CheckpointMismatch`] for a foreign checkpoint.
    pub fn start<M: Deref<Target = Csr<f64>>>(
        &self,
        a: M,
        b: M,
        start: RunStart<'_>,
    ) -> Result<Run<M>, SimError> {
        let ctx = self.prepare_context(a, b)?;
        let (state, sampler) = match start {
            RunStart::Fresh { plan, trace } => (
                self.fresh_state(&ctx, plan),
                trace.map(|t| TraceSampler::new(t, self.cfg.mem.num_channels, self.cfg.num_lanes)),
            ),
            RunStart::Resume(checkpoint) => (self.restore_run(&ctx, checkpoint)?, None),
        };
        Ok(Run { accel: self.clone(), ctx, state, sampler, drained: false })
    }

    /// Validates operands and derives the read-only run context.
    fn prepare_context<M: Deref<Target = Csr<f64>>>(
        &self,
        a: M,
        b: M,
    ) -> Result<RunContext<M>, SimError> {
        if a.cols() != b.rows() {
            return Err(SimError::MalformedInput(MalformedInput::InnerDimensionMismatch {
                a_cols: a.cols(),
                b_rows: b.rows(),
            }));
        }
        let cfg = &self.cfg;
        let lanes_n = cfg.num_lanes;
        let ac = C2sr::from_csr(&a, lanes_n);
        let bc = C2sr::from_csr(&b, lanes_n);

        let regions = Regions::DEFAULT;
        let a_layout = matrix_layout(cfg, regions.a_info, regions.a_data);
        let b_layout = matrix_layout(cfg, regions.b_info, regions.b_data);
        let c_layout = matrix_layout(cfg, regions.c_info, regions.c_data);

        let ratio = cfg.mem_clock_ratio();
        // Generous budget: SpGEMM needs at least one cycle per product;
        // allow a large constant factor for memory stalls.
        let flops = spgemm::multiply_count(&a, &b);
        let budget = (flops * 200 + a.nnz() as u64 * 400 + 1_000_000) * ratio;

        Ok(RunContext {
            a,
            b,
            ac,
            bc,
            a_layout,
            b_layout,
            c_layout,
            ratio,
            budget,
            identity: OnceCell::new(),
        })
    }

    /// Builds the watchdog with one source per lane plus the HBM —
    /// identical registration order for fresh starts and restores, so a
    /// restored [`SourceId`] indexes the same source.
    fn build_watchdog(&self) -> (Watchdog, Vec<SourceId>, SourceId) {
        let mut watchdog = Watchdog::new(self.cfg.watchdog_window);
        let lane_sources: Vec<_> = (0..self.cfg.num_lanes)
            .map(|l| watchdog.add_source(LANE_NAMES[l.min(LANE_NAMES.len() - 1)]))
            .collect();
        let hbm_source = watchdog.add_source("hbm");
        (watchdog, lane_sources, hbm_source)
    }

    /// Builds every lane in its cycle-0 state.
    fn build_lanes<M>(&self, ctx: &RunContext<M>) -> Vec<Lane> {
        let cfg = &self.cfg;
        (0..cfg.num_lanes)
            .map(|l| Lane {
                spal: SpAl::new(l, cfg, &ctx.ac, ctx.a_layout),
                spbl: SpBl::new(cfg, ctx.b_layout),
                pe: Pe::new(cfg),
                writer: Writer::new(l, cfg, ctx.c_layout),
                spal_out: VecDeque::new(),
                pe_in: VecDeque::new(),
                asleep: false,
                waits_on: 0,
            })
            .collect()
    }

    /// Builds the machine at cycle 0 and arms the fault plan, if any.
    fn fresh_state<M>(&self, ctx: &RunContext<M>, plan: Option<&FaultPlan>) -> RunState {
        let cfg = &self.cfg;
        let lanes_n = cfg.num_lanes;
        let mut hbm = Hbm::new(cfg.mem.clone());
        let mut lanes = self.build_lanes(ctx);

        // Arm the injected fault, if any. Lane-targeted faults are
        // remapped to a lane that actually has work so a sampled site on
        // an empty lane cannot silently skip the injection.
        let mut stream_fault: Option<StreamInjector> = None;
        if let Some(plan) = plan {
            hbm.set_faults(plan.mem_faults());
            let site = {
                let preferred = plan.site % lanes_n;
                if ctx.ac.channel_nnz(preferred) > 0 {
                    preferred
                } else {
                    (0..lanes_n).find(|&l| ctx.ac.channel_nnz(l) > 0).unwrap_or(preferred)
                }
            };
            match plan.kind {
                FaultKind::StreamTruncation | FaultKind::StreamCorruption => {
                    let tokens = ctx.ac.channel_nnz(site) as u64;
                    if tokens > 0 {
                        stream_fault = Some(StreamInjector {
                            lane: site,
                            target: plan.ordinal % tokens,
                            seen: 0,
                            truncate: plan.kind == FaultKind::StreamTruncation,
                            corrupt_to: (ctx.bc.rows() as u32)
                                .saturating_add(1 + (plan.ordinal % 97) as u32),
                        });
                    }
                }
                FaultKind::QueueOverflowForce => {
                    lanes[site].pe.fault_force_overflow_after = Some(plan.ordinal % 32);
                    lanes[site].pe.cpu_fallback = false;
                }
                FaultKind::DroppedWrite => {
                    lanes[site].writer.fault_drop_append = Some(plan.ordinal % 64);
                }
                FaultKind::ChannelStall | FaultKind::BurstRefusal => {}
            }
        }

        let (watchdog, lane_sources, hbm_source) = self.build_watchdog();
        RunState {
            t: 0,
            next_id: 0,
            route: IdTable::new(),
            lanes,
            hbm,
            stream_fault,
            watchdog,
            lane_sources,
            hbm_source,
        }
    }

    /// Serializes the machine at the top of cycle `state.t`, fingerprinted
    /// against this accelerator's configuration and the run's operands.
    fn snapshot_run<M: Deref<Target = Csr<f64>>>(
        &self,
        ctx: &RunContext<M>,
        state: &RunState,
    ) -> Checkpoint {
        let (wd_last, wd_states) = state.watchdog.export_state();
        let [cfg_fingerprint, a_fingerprint, b_fingerprint] = ctx.identity(&self.cfg);
        Checkpoint {
            state: CheckpointState {
                cfg_fingerprint,
                a_fingerprint,
                b_fingerprint,
                t: state.t,
                next_id: state.next_id,
                route: state.route.iter().map(|(id, &l)| (id, l as u64)).collect(),
                lanes: state
                    .lanes
                    .iter()
                    .map(|lane| LaneState {
                        spal: lane.spal.snapshot(),
                        spbl: lane.spbl.snapshot(),
                        pe: lane.pe.snapshot(),
                        writer: lane.writer.snapshot(),
                        spal_out: lane.spal_out.iter().copied().collect(),
                        pe_in: lane.pe_in.iter().copied().collect(),
                    })
                    .collect(),
                stream_fault: state.stream_fault.as_ref().map(|inj| StreamFaultState {
                    lane: inj.lane as u64,
                    target: inj.target,
                    seen: inj.seen,
                    truncate: inj.truncate,
                    corrupt_to: inj.corrupt_to,
                }),
                hbm: state.hbm.snapshot(),
                wd_last_progress: wd_last.as_u64(),
                wd_sources: wd_states
                    .iter()
                    .map(|s| WdSourceState {
                        last_signature: s.last_signature,
                        last_progress: s.last_progress.as_u64(),
                        observed: s.observed,
                    })
                    .collect(),
            },
        }
    }

    /// Rebuilds a [`RunState`] from a checkpoint, verifying that it was
    /// taken by a run of the same configuration over the same operands.
    fn restore_run<M: Deref<Target = Csr<f64>>>(
        &self,
        ctx: &RunContext<M>,
        checkpoint: &Checkpoint,
    ) -> Result<RunState, SimError> {
        let cfg = &self.cfg;
        let st = &checkpoint.state;
        let [cfg_fingerprint, a_fingerprint, b_fingerprint] = ctx.identity(cfg);
        if st.cfg_fingerprint != cfg_fingerprint {
            return Err(SimError::CheckpointMismatch {
                detail: "configuration differs from the checkpointed run",
            });
        }
        if st.a_fingerprint != a_fingerprint {
            return Err(SimError::CheckpointMismatch {
                detail: "matrix A differs from the checkpointed run",
            });
        }
        if st.b_fingerprint != b_fingerprint {
            return Err(SimError::CheckpointMismatch {
                detail: "matrix B differs from the checkpointed run",
            });
        }
        let lanes_n = cfg.num_lanes;
        if st.lanes.len() != lanes_n
            || st.wd_sources.len() != lanes_n + 1
            || st.hbm.channels.len() != cfg.mem.num_channels
        {
            return Err(SimError::CheckpointMismatch {
                detail: "checkpoint shape disagrees with the configuration",
            });
        }

        let hbm = Hbm::restore(cfg.mem.clone(), &st.hbm);
        let mut lanes = self.build_lanes(ctx);
        for (lane, ls) in lanes.iter_mut().zip(&st.lanes) {
            lane.spal.restore(&ls.spal);
            lane.spbl.restore(&ls.spbl);
            lane.pe.restore(&ls.pe);
            lane.writer.restore(&ls.writer);
            lane.spal_out = ls.spal_out.iter().copied().collect();
            lane.pe_in = ls.pe_in.iter().copied().collect();
        }

        let (mut watchdog, lane_sources, hbm_source) = self.build_watchdog();
        let sources: Vec<SourceState> = st
            .wd_sources
            .iter()
            .map(|s| SourceState {
                last_signature: s.last_signature,
                last_progress: Cycle(s.last_progress),
                observed: s.observed,
            })
            .collect();
        watchdog.import_state(Cycle(st.wd_last_progress), &sources);

        let stream_fault = st.stream_fault.map(|s| StreamInjector {
            lane: s.lane as usize,
            target: s.target,
            seen: s.seen,
            truncate: s.truncate,
            corrupt_to: s.corrupt_to,
        });

        Ok(RunState {
            t: st.t,
            next_id: st.next_id,
            route: st.route.iter().map(|&(id, l)| (id, l as usize)).collect(),
            lanes,
            hbm,
            stream_fault,
            watchdog,
            lane_sources,
            hbm_source,
        })
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
    /// channel that refused it frees a queue slot, so until then each cycle
    /// replays the stall's counter updates instead of ticking. Under a
    /// fault schedule admission depends on the cycle, and no lane sleeps.
    fn drive<M: Deref<Target = Csr<f64>>>(
        &self,
        ctx: &RunContext<M>,
        state: &mut RunState,
        until: u64,
        mut sampler: Option<&mut TraceSampler>,
    ) -> Result<bool, SimError> {
        let cfg = &self.cfg;
        let lanes_n = cfg.num_lanes;
        let ratio = ctx.ratio;
        let fallback = |row: u32| reference_row(&ctx.a, &ctx.b, row as usize);
        let mut inboxes: Vec<Vec<u64>> = vec![Vec::new(); lanes_n];

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
        loop {
            if *t >= until {
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
                    let Some(lane) = route.remove(resp.id.0) else {
                        return Err(SimError::ProtocolViolation {
                            detail: "HBM response for an unissued request id",
                        });
                    };
                    inboxes[lane].push(resp.id.0);
                }
                if let Some(s) = sampler.as_deref_mut() {
                    s.record_queue_depths(hbm.queue_depths());
                }
            }

            let mut all_done = true;
            for (l, lane) in lanes.iter_mut().enumerate() {
                // Nothing the sleeping lane reads has changed: its tick
                // would repeat the last one, so only its counters move.
                if lane.asleep && inboxes[l].is_empty() && lane.waits_on & freed == 0 {
                    lane.replay_stall();
                    all_done &= lane.is_done();
                    continue;
                }
                // Deliver responses.
                for id in inboxes[l].drain(..) {
                    if lane.spal.on_response(id, &ctx.ac) {
                        continue;
                    }
                    if lane.spbl.on_response(id) {
                        continue;
                    }
                    let consumed = lane.writer.on_response(id);
                    debug_assert!(consumed, "orphan response {id}");
                }

                let mut port = MemPort { hbm, mem_now, next_id, route, lane: l, refused: 0 };

                let upstream_done =
                    lane.spal.is_done() && lane.spbl.is_done() && lane.spal_out.is_empty();
                lane.pe.tick(&mut lane.pe_in, &mut lane.writer, cfg, &fallback, upstream_done);
                lane.spbl.tick(
                    &mut port,
                    &ctx.bc,
                    &mut lane.spal_out,
                    &mut lane.pe_in,
                    cfg.coupling_fifo_depth,
                    lane.spal.is_done(),
                );
                let fifo_len_before = lane.spal_out.len();
                lane.spal.tick(&mut port, &ctx.ac, &mut lane.spal_out, cfg.coupling_fifo_depth);
                if let Some(inj) = stream_fault.as_mut() {
                    inj.inspect(l, lane.spal_out.len() > fifo_len_before, &mut lane.spal_out);
                }
                lane.writer.tick(&mut port);
                lane.waits_on = port.refused;
                lane.asleep = can_sleep && lane.is_quiet();

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

                all_done &= lane.is_done();
            }

            if all_done && hbm.is_idle() && inboxes.iter().all(Vec::is_empty) {
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
                    let attrs: Vec<LaneAttribution> = lanes.iter().map(Lane::attribution).collect();
                    s.close_window(*t + 1, &hbm.channel_stats(), &attrs);
                }
            }

            *t += 1;
            mem_phase += 1;
            if mem_phase == ratio {
                mem_phase = 0;
                mem_now = mem_now.next();
            }
            if *t >= ctx.budget {
                return Err(SimError::CycleBudgetExceeded { budget: ctx.budget, cycles: *t });
            }
        }
        Ok(true)
    }

    /// Assembles the functional output and statistics of a drained run,
    /// applying the configured output-integrity checks.
    fn finalize<M: Deref<Target = Csr<f64>>>(
        &self,
        ctx: &RunContext<M>,
        state: &RunState,
    ) -> Result<RunOutcome, SimError> {
        let cfg = &self.cfg;
        let lanes_n = cfg.num_lanes;
        let lanes = &state.lanes;

        // Assemble the functional output in C²SR, per-lane row order. The
        // lane count was validated positive at construction, so a refusal
        // here is a protocol violation, not an input problem.
        let mut c2sr = C2sr::new_for_output(ctx.a.rows(), ctx.b.cols(), lanes_n).map_err(|_| {
            SimError::ProtocolViolation { detail: "output C2SR rejected the validated lane count" }
        })?;
        for lane in lanes {
            for row in &lane.writer.finished {
                c2sr.append_row(row.row as usize, &row.cols, &row.vals);
            }
        }
        if c2sr.validate().is_err() {
            return Err(SimError::OutputCorrupted {
                detail: "output violates C2SR invariants",
                rows: Vec::new(),
            });
        }
        let c = c2sr.to_csr();

        // ABFT first: O(nnz) row checksums localise the damage. The full
        // Gustavson cross-check (when enabled) stays as the belt-and-
        // braces oracle behind it.
        if cfg.abft_verification {
            let report = abft::verify(&ctx.a, &ctx.b, &c, &abft::AbftOptions::default());
            if !report.is_ok() {
                return Err(SimError::OutputCorrupted {
                    detail: "output fails ABFT row-checksum verification",
                    rows: report.offending_rows(),
                });
            }
        }

        if cfg.verify_against_reference {
            let reference = spgemm::gustavson(&ctx.a, &ctx.b);
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
            overflow_padding += lane.writer.finished.iter().map(|r| r.padded_entries).sum::<u64>();
            phase1 += lane.pe.phase1_cycles.get();
            phase2 += lane.pe.phase2_cycles.get();
            per_lane_attribution.push(lane.attribution());
        }
        let mem_stats = state.hbm.stats();
        let per_pe_nnz = (0..lanes_n).map(|l| ctx.ac.channel_nnz(l) as u64).collect();

        Ok(RunOutcome {
            c,
            c2sr,
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

/// Software computation of one output row — the CPU-fallback path for
/// sorting-queue overflows (Section VII).
fn reference_row(a: &Csr<f64>, b: &Csr<f64>, i: usize) -> (Vec<u32>, Vec<f64>) {
    let mut acc: BTreeMap<u32, f64> = BTreeMap::new();
    for (k, av) in a.row(i) {
        for (j, bv) in b.row(k as usize) {
            *acc.entry(j).or_insert(0.0) += av * bv;
        }
    }
    acc.into_iter().filter(|&(_, v)| v != 0.0).unzip()
}

#[cfg(test)]
mod tests {
    use super::*;
    use matraptor_sparse::gen;

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
    fn paused_at(accel: &Accelerator, a: &Csr<f64>, k: u64) -> Option<Box<Checkpoint>> {
        match accel.execute(&RunRequest { pause_at: Some(k), ..RunRequest::new(a, a) }) {
            Ok((SliceRun::Paused(ck), _)) => Some(ck),
            Ok((SliceRun::Completed(_), _)) => None,
            Err(error) => panic!("checkpointing run failed: {error}"),
        }
    }

    /// Resumes `ck` on operands `a * a` and runs it to completion.
    fn resumed(accel: &Accelerator, a: &Csr<f64>, ck: &Checkpoint) -> Result<RunOutcome, SimError> {
        let req = RunRequest { start: RunStart::Resume(ck), ..RunRequest::new(a, a) };
        accel.execute(&req)?.0.completed()
    }

    #[test]
    fn checkpoint_before_completion_resumes_to_identical_outcome() {
        let a = gen::uniform(48, 48, 300, 21);
        let accel = Accelerator::new(MatRaptorConfig::small_test());
        let full = accel.try_run(&a, &a).expect("clean run");
        let ck = paused_at(&accel, &a, 64).expect("run longer than 64 cycles");
        assert_eq!(ck.cycle(), 64);
        let resumed = resumed(&accel, &a, &ck).expect("resume");
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
    fn deadline_run_cancels_at_the_deadline_and_is_resumable() {
        let a = gen::uniform(48, 48, 300, 21);
        let accel = Accelerator::new(MatRaptorConfig::small_test());
        let full = accel.try_run(&a, &a).expect("clean run");
        let deadline = |k: u64| RunRequest { pause_at: Some(k), ..RunRequest::new(&a, &a) };
        match accel.execute(&deadline(64)).expect("bounded run").0 {
            SliceRun::Paused(ck) => {
                assert_eq!(ck.cycle(), 64, "cancellation is exact: the deadline cycle");
                // Cancelled work is a checkpoint — resuming it finishes
                // the run bit-identically to the unbounded machine.
                let resumed = resumed(&accel, &a, &ck).expect("resume");
                assert_eq!(resumed.stats.total_cycles, full.stats.total_cycles);
                assert_eq!(resumed.c, full.c);
            }
            SliceRun::Completed(_) => panic!("48x48 product cannot drain in 64 cycles"),
        }
        match accel.execute(&deadline(u64::MAX)).expect("bounded run").0 {
            SliceRun::Completed(outcome) => {
                assert_eq!(outcome.stats.total_cycles, full.stats.total_cycles);
            }
            SliceRun::Paused(_) => panic!("run should drain before u64::MAX"),
        }
    }

    #[test]
    fn foreign_checkpoint_is_rejected() {
        let a = gen::uniform(48, 48, 300, 22);
        let other = gen::uniform(48, 48, 300, 23);
        let accel = Accelerator::new(MatRaptorConfig::small_test());
        let ck = paused_at(&accel, &a, 64).expect("checkpoint");
        match resumed(&accel, &other, &ck) {
            Err(SimError::CheckpointMismatch { .. }) => {}
            other => panic!("expected CheckpointMismatch, got {other:?}"),
        }
    }
}
