//! Seeded fault plans for robustness campaigns.
//!
//! A [`FaultPlan`] is a *compiled* description of exactly one injected
//! fault: which kind, which channel or lane, which cycle or token ordinal.
//! All sampling happens here, up front, through the in-tree
//! [`ChaCha8Rng`] — no wall-clock, no ambient entropy — so the same
//! `(kind, seed)` pair always produces the same fault site, the same
//! detection verdict, and the same cycle counts. That determinism is what
//! lets `crates/core/tests/fault_campaign.rs` pin an entire campaign as a
//! regression test and lets CI re-run it with a pinned seed.
//!
//! Layering note: the memory-side effects compile into the plain-data
//! [`MemFaults`] schedule (the `mem` crate cannot depend on the RNG, which
//! lives in `sparse`); stream/queue/writer effects are interpreted by
//! `Accelerator::start` in this crate.

use matraptor_mem::{FaultWindow, MemFaults};
use matraptor_sparse::rng::ChaCha8Rng;

use crate::accel::RunOutcome;
use crate::error::SimError;

/// The kinds of fault a campaign can inject, each exercising a different
/// detection path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FaultKind {
    /// One HBM channel stops servicing bursts forever: every lane
    /// eventually wedges behind it. Expected detection: the watchdog,
    /// surfacing [`SimError::Deadlock`].
    ChannelStall,
    /// One HBM channel refuses new bursts for a bounded window; requesters
    /// retry until it lifts. Expected outcome: the run *survives* with a
    /// correct result (and a different cycle count).
    BurstRefusal,
    /// One A-stream token silently vanishes at the SpAL → SpBL boundary.
    /// Expected detection: the output-integrity cross-check,
    /// [`SimError::OutputCorrupted`].
    StreamTruncation,
    /// One A-stream token's column id is corrupted to an out-of-range
    /// value. Expected detection: SpBL's bounds check,
    /// [`SimError::MalformedInput`].
    StreamCorruption,
    /// One PE's sorting queues are forced to overflow mid-row with the
    /// CPU-fallback path disabled. Expected detection:
    /// [`SimError::QueueOverflow`].
    QueueOverflowForce,
    /// One writer silently drops an output append. Expected detection:
    /// the output-integrity cross-check, [`SimError::OutputCorrupted`].
    DroppedWrite,
}

impl FaultKind {
    /// Every kind, in campaign sweep order.
    pub const ALL: [FaultKind; 6] = [
        FaultKind::ChannelStall,
        FaultKind::BurstRefusal,
        FaultKind::StreamTruncation,
        FaultKind::StreamCorruption,
        FaultKind::QueueOverflowForce,
        FaultKind::DroppedWrite,
    ];

    /// Short stable name for reports and JSON output.
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::ChannelStall => "channel_stall",
            FaultKind::BurstRefusal => "burst_refusal",
            FaultKind::StreamTruncation => "stream_truncation",
            FaultKind::StreamCorruption => "stream_corruption",
            FaultKind::QueueOverflowForce => "queue_overflow",
            FaultKind::DroppedWrite => "dropped_write",
        }
    }
}

/// One fully-sampled fault: the unit a campaign runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// What to inject.
    pub kind: FaultKind,
    /// The seed this plan was sampled from (recorded for reports).
    pub seed: u64,
    /// Target channel (memory faults) or lane (stream/queue/writer
    /// faults). `Accelerator::start` remaps a lane with no
    /// assigned work to the busiest one so the fault always engages.
    pub site: usize,
    /// First memory cycle a memory fault is active.
    pub start: u64,
    /// Window length in memory cycles for bounded faults
    /// ([`FaultKind::BurstRefusal`]); ignored by unbounded ones.
    pub duration: u64,
    /// Raw token/entry ordinal for stream, queue, and writer faults; the
    /// accelerator reduces it modulo the lane's actual token count.
    pub ordinal: u64,
}

impl FaultPlan {
    /// Samples the fault site for `kind` from `seed`, targeting a machine
    /// with `num_lanes` lanes (= channels).
    pub fn sample(kind: FaultKind, seed: u64, num_lanes: usize) -> Self {
        // Fold the kind into the stream so e.g. (ChannelStall, 7) and
        // (DroppedWrite, 7) pick unrelated sites.
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ (kind as u64).wrapping_mul(0x9E37_79B9));
        FaultPlan {
            kind,
            seed,
            site: rng.gen_range(0..num_lanes.max(1)),
            start: rng.gen_range(0u64..2_000),
            duration: rng.gen_range(100u64..1_000),
            ordinal: rng.next_u64(),
        }
    }

    /// The memory-side schedule this plan compiles to (empty for faults
    /// that act above the memory system).
    pub fn mem_faults(&self) -> MemFaults {
        match self.kind {
            FaultKind::ChannelStall => MemFaults {
                stalls: vec![FaultWindow::forever(self.site, self.start)],
                refusals: Vec::new(),
            },
            FaultKind::BurstRefusal => MemFaults {
                stalls: Vec::new(),
                refusals: vec![FaultWindow {
                    channel: self.site,
                    start: self.start,
                    end: self.start + self.duration,
                }],
            },
            _ => MemFaults::none(),
        }
    }
}

/// Campaign verdict for one `(plan, result)` pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The run completed with a verified-correct result despite the fault
    /// (graceful degradation: retries absorbed it, or the CPU fallback
    /// covered it).
    Survived,
    /// The run terminated with a structured [`SimError`] — the fault was
    /// caught loudly instead of corrupting results or hanging.
    Detected,
    /// The run completed "successfully" even though this fault kind must
    /// either be survived-by-design or detected — a silent escape. CI
    /// fails on any of these.
    Escaped,
}

impl Verdict {
    /// Short stable name for reports and JSON output.
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Survived => "survived",
            Verdict::Detected => "detected",
            Verdict::Escaped => "escaped",
        }
    }
}

/// Classifies one campaign run. Shared by the `fault_campaign` bench
/// binary and the regression tests so their verdicts cannot drift apart.
///
/// The contract: [`FaultKind::BurstRefusal`] and
/// [`FaultKind::QueueOverflowForce`]-with-fallback are *survivable* —
/// completing with a verified result is the desired outcome. Every other
/// kind corrupts state or wedges the machine, so completing "successfully"
/// means the fault escaped detection.
pub fn classify(kind: FaultKind, result: &Result<RunOutcome, SimError>) -> Verdict {
    match result {
        Err(_) => Verdict::Detected,
        Ok(_) => match kind {
            FaultKind::BurstRefusal => Verdict::Survived,
            // Overflow with the CPU fallback available completes with a
            // correct (verified) result; fault arming only
            // disables the fallback for QueueOverflowForce plans, in which
            // case the run errors and lands in `Detected` above.
            FaultKind::QueueOverflowForce => Verdict::Survived,
            FaultKind::ChannelStall
            | FaultKind::StreamTruncation
            | FaultKind::StreamCorruption
            | FaultKind::DroppedWrite => Verdict::Escaped,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampling_is_deterministic_per_seed_and_kind() {
        let a = FaultPlan::sample(FaultKind::ChannelStall, 42, 8);
        let b = FaultPlan::sample(FaultKind::ChannelStall, 42, 8);
        assert_eq!(a, b);
        let c = FaultPlan::sample(FaultKind::ChannelStall, 43, 8);
        assert_ne!(a, c, "different seeds should pick different sites");
        let d = FaultPlan::sample(FaultKind::DroppedWrite, 42, 8);
        assert_ne!((a.site, a.start, a.ordinal), (d.site, d.start, d.ordinal));
    }

    #[test]
    fn sites_stay_in_range() {
        for seed in 0..50 {
            for kind in FaultKind::ALL {
                let p = FaultPlan::sample(kind, seed, 4);
                assert!(p.site < 4);
                assert!(p.start < 2_000);
                assert!((100..1_000).contains(&p.duration));
            }
        }
    }

    #[test]
    fn only_memory_kinds_compile_to_mem_faults() {
        let stall = FaultPlan::sample(FaultKind::ChannelStall, 1, 2).mem_faults();
        assert_eq!(stall.stalls.len(), 1);
        assert_eq!(stall.stalls[0].end, u64::MAX, "stall never lifts");
        let refusal = FaultPlan::sample(FaultKind::BurstRefusal, 1, 2).mem_faults();
        assert_eq!(refusal.refusals.len(), 1);
        assert!(refusal.refusals[0].end > refusal.refusals[0].start);
        for kind in [
            FaultKind::StreamTruncation,
            FaultKind::StreamCorruption,
            FaultKind::QueueOverflowForce,
            FaultKind::DroppedWrite,
        ] {
            assert!(FaultPlan::sample(kind, 1, 2).mem_faults().is_empty());
        }
    }

    #[test]
    fn every_refused_attempt_under_a_burst_refusal_plan_is_counted() {
        use matraptor_mem::{Hbm, HbmConfig, MemRequest};
        use matraptor_sim::Cycle;

        let cfg = HbmConfig { queue_depth: 1, ..HbmConfig::with_channels(2) };
        for seed in 0..16 {
            let plan = FaultPlan::sample(FaultKind::BurstRefusal, seed, 2);
            let site_bit = 1u64 << plan.site;
            // Reads on the plan's channel: every other interleave block.
            let on_site = |k: u64| (2 * k + plan.site as u64) * cfg.interleave_bytes as u64;
            let mut hbm = Hbm::new(cfg.clone());
            assert!(hbm.submit(Cycle(0), MemRequest::read(0, on_site(0), 8)).is_ok());
            assert_eq!(hbm.full_channels(), site_bit, "seed {seed}: one slot, now taken");
            hbm.set_faults(plan.mem_faults());
            // The full channel is not reported, so requesters keep
            // offering reads and the refusal window sees each one.
            assert_eq!(hbm.full_channels(), 0, "seed {seed}");
            for (k, t) in (plan.start..plan.start + plan.duration).step_by(7).enumerate() {
                let before = hbm.fault_counters().refused_submits;
                let read = MemRequest::read(k as u64 + 1, on_site(k as u64 + 1), 8);
                assert_eq!(hbm.submit(Cycle(t), read), Err(site_bit), "seed {seed} cycle {t}");
                assert_eq!(hbm.fault_counters().refused_submits, before + 1, "seed {seed}");
            }
        }
    }

    #[test]
    fn classification_contract() {
        let err: Result<RunOutcome, SimError> =
            Err(SimError::OutputCorrupted { detail: "test", rows: vec![3] });
        for kind in FaultKind::ALL {
            assert_eq!(classify(kind, &err), Verdict::Detected);
        }
    }
}
