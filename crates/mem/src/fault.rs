//! Deterministic fault hooks for the HBM model.
//!
//! The fault-injection subsystem (see DESIGN.md "Fault model &
//! forward-progress invariants") needs the memory system to misbehave *on
//! schedule*: a channel that stops servicing bursts for a window of
//! cycles, or a channel that refuses new bursts while continuing to drain
//! old ones. This module defines the plain-data schedule those campaigns
//! install via [`crate::Hbm::set_faults`].
//!
//! Everything here is **data**, not randomness: the upstream `FaultPlan`
//! (in `matraptor-core`, which owns the seeded RNG) decides *where* and
//! *when*, and compiles its decisions into [`MemFaults`] windows. Replays
//! of the same plan therefore perturb the exact same cycles, which is what
//! makes fault campaigns regression-testable.

use matraptor_sim::plain_struct;

/// A half-open window `[start, end)` of memory-clock cycles during which a
/// fault effect applies to one channel. `end == u64::MAX` means the fault
/// never lifts (the deadlock-injection case).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultWindow {
    /// Target channel index.
    pub channel: usize,
    /// First memory cycle the fault is active.
    pub start: u64,
    /// First memory cycle after the fault lifts (exclusive).
    pub end: u64,
}

plain_struct!(FaultWindow { channel, start, end });

impl FaultWindow {
    /// A window that never lifts: the injected-deadlock case.
    pub fn forever(channel: usize, start: u64) -> Self {
        FaultWindow { channel, start, end: u64::MAX }
    }

    /// Whether this window covers `(channel, now)`.
    pub fn covers(&self, channel: usize, now: u64) -> bool {
        self.channel == channel && self.start <= now && now < self.end
    }
}

/// The full fault schedule for one [`crate::Hbm`] instance.
///
/// Effects:
///
/// * `stalls` — the channel's service pipeline freezes: queued fragments
///   are not serviced and no bursts complete (models a hung channel /
///   delayed bursts; with an unbounded window this wedges every requester
///   bound to the channel and must be caught by the watchdog upstream);
/// * `refusals` — the channel refuses *admission*: any request with a
///   fragment on the channel is bounced at [`crate::Hbm::submit`] and the
///   requester must retry (models transient arbitration faults and
///   exercises every requester's retry path).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MemFaults {
    /// Service-stall windows.
    pub stalls: Vec<FaultWindow>,
    /// Admission-refusal windows.
    pub refusals: Vec<FaultWindow>,
}

plain_struct!(MemFaults { stalls, refusals });

impl MemFaults {
    /// A schedule with no faults (the default).
    pub fn none() -> Self {
        MemFaults::default()
    }

    /// Whether any fault is scheduled at all. The hot paths check this
    /// once so a fault-free run pays a single branch per cycle.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.stalls.is_empty() && self.refusals.is_empty()
    }

    /// Whether `channel` is service-stalled at memory cycle `now`.
    #[inline]
    pub fn stalled(&self, channel: usize, now: u64) -> bool {
        self.stalls.iter().any(|w| w.covers(channel, now))
    }

    /// Whether `channel` refuses admission at memory cycle `now`.
    #[inline]
    pub fn refusing(&self, channel: usize, now: u64) -> bool {
        self.refusals.iter().any(|w| w.covers(channel, now))
    }
}

/// Counters of fault effects actually exercised, for campaign reports
/// ("was the fault even reached?") and diagnostics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounters {
    /// Channel-cycles in which service was suppressed by a stall window.
    pub stalled_cycles: u64,
    /// Requests bounced by a refusal window.
    pub refused_submits: u64,
}

plain_struct!(FaultCounters { stalled_cycles, refused_submits });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_covers_half_open_range() {
        let w = FaultWindow { channel: 2, start: 10, end: 20 };
        assert!(!w.covers(2, 9));
        assert!(w.covers(2, 10));
        assert!(w.covers(2, 19));
        assert!(!w.covers(2, 20));
        assert!(!w.covers(1, 15));
    }

    #[test]
    fn forever_never_lifts() {
        let w = FaultWindow::forever(0, 5);
        assert!(w.covers(0, u64::MAX - 1));
        assert!(!w.covers(0, 4));
    }

    #[test]
    fn empty_schedule_is_inert() {
        let f = MemFaults::none();
        assert!(f.is_empty());
        assert!(!f.stalled(0, 0));
        assert!(!f.refusing(0, 0));
    }
}
