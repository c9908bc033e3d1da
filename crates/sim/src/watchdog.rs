//! Forward-progress watchdog.
//!
//! Cycle-driven hardware models can deadlock in ways a functional test
//! never exercises: a stalled memory channel, a coupling FIFO that fills
//! and is never drained, a response that is dropped on the floor. The
//! pre-watchdog simulator "detected" these by spinning until a generous
//! cycle budget tripped an `assert!` — hours of wall-clock on large
//! inputs, and no diagnostic beyond the budget number.
//!
//! The [`Watchdog`] replaces that with an explicit forward-progress
//! contract: every pipeline component registers itself as a *source* and
//! reports a cheap occupancy/throughput **signature** (any `u64` that
//! changes whenever the component moves a token — counters, cursor sums,
//! queue depths). The watchdog records, per source, the last cycle its
//! signature changed. If **no** source has changed for a full `window` of
//! cycles, the system as a whole has stopped moving tokens and
//! [`Watchdog::check`] returns a [`WatchdogReport`] naming every source
//! and its last-progress cycle, so the caller can terminate with a
//! structured diagnostic instead of hanging.
//!
//! The watchdog is purely observational: it never mutates simulation
//! state, so enabling it cannot change cycle counts or results.
//!
//! # Example
//!
//! ```rust
//! use matraptor_sim::{Watchdog, Cycle};
//!
//! let mut wd = Watchdog::new(100);
//! let lane = wd.add_source("lane0");
//! wd.observe(lane, Cycle(0), 7);
//! // The lane's signature never changes again...
//! for t in 1..=101 {
//!     wd.observe(lane, Cycle(t), 7);
//! }
//! let report = wd.check(Cycle(101)).expect("wedged");
//! assert_eq!(report.last_progress, Cycle(0));
//! ```

use crate::clock::Cycle;
use crate::codec::{Dec, Enc, Mismatch, Reader};

/// Mixes a value into a running signature (SplitMix64 finalizer). Useful
/// for folding several counters and queue depths into the single `u64`
/// that [`Watchdog::observe`] takes: unlike a plain sum, two counters
/// moving in opposite directions cannot cancel out.
#[must_use]
pub fn mix_signature(acc: u64, value: u64) -> u64 {
    let mut z = acc ^ value.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Handle for a registered progress source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SourceId(usize);

/// Per-source progress state.
#[derive(Debug, Clone)]
struct Source {
    name: &'static str,
    last_signature: u64,
    last_progress: Cycle,
    observed: bool,
}

/// Snapshot of one source at the moment a wedge was declared.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SourceReport {
    /// Name given at registration ("lane3", "hbm", ...).
    pub name: &'static str,
    /// Last cycle this source's signature changed.
    pub last_progress: Cycle,
    /// The signature it has been stuck at.
    pub last_signature: u64,
}

/// The structured diagnostic returned when no source made progress for a
/// full window.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WatchdogReport {
    /// Cycle at which the wedge was declared.
    pub declared_at: Cycle,
    /// The configured window.
    pub window: u64,
    /// Last cycle *any* source made progress.
    pub last_progress: Cycle,
    /// Every registered source, in registration order.
    pub sources: Vec<SourceReport>,
}

/// Forward-progress tracker for a cycle-driven simulation.
///
/// See the [module docs](self) for the contract. Typical driving loop:
/// call [`Watchdog::observe`] once per source per cycle (or per check
/// interval), then [`Watchdog::check`] once per cycle.
#[derive(Debug, Clone)]
pub struct Watchdog {
    // conformance:allow(checkpoint-coverage): configuration, fixed at construction
    window: u64,
    sources: Vec<Source>,
    last_global_progress: Cycle,
}

impl Watchdog {
    /// Creates a watchdog that declares a wedge after `window` cycles
    /// without progress from any source.
    ///
    /// A `window` of 0 disables the watchdog: [`Watchdog::check`] never
    /// fires.
    pub fn new(window: u64) -> Self {
        Watchdog { window, sources: Vec::new(), last_global_progress: Cycle(0) }
    }

    /// The configured window.
    pub fn window(&self) -> u64 {
        self.window
    }

    /// Registers a named progress source and returns its handle.
    pub fn add_source(&mut self, name: &'static str) -> SourceId {
        self.sources.push(Source {
            name,
            last_signature: 0,
            last_progress: Cycle(0),
            observed: false,
        });
        SourceId(self.sources.len() - 1)
    }

    /// Forgets all progress, as at cycle 0, keeping the registered
    /// sources.
    pub fn reset(&mut self) {
        self.last_global_progress = Cycle(0);
        for s in &mut self.sources {
            (s.last_signature, s.last_progress, s.observed) = (0, Cycle(0), false);
        }
    }

    /// Reports `source`'s current signature at cycle `now`. A changed
    /// signature (or the first observation) counts as progress.
    pub fn observe(&mut self, source: SourceId, now: Cycle, signature: u64) {
        let s = &mut self.sources[source.0];
        if !s.observed || s.last_signature != signature {
            s.observed = true;
            s.last_signature = signature;
            s.last_progress = now;
            if now > self.last_global_progress {
                self.last_global_progress = now;
            }
        }
    }

    /// Last cycle any source made progress.
    pub fn last_progress(&self) -> Cycle {
        self.last_global_progress
    }

    /// Writes the progress state (the global last-progress cycle, then each
    /// source's signature, last progress and observed flag, in registration
    /// order) into a checkpoint. Names are fixed at registration, so they
    /// stay out.
    pub fn snapshot(&self, out: &mut Vec<u8>) {
        self.last_global_progress.enc(out);
        self.sources.len().enc(out);
        for s in &self.sources {
            (s.last_signature, s.last_progress, s.observed).enc(out);
        }
    }

    /// Reads a [`Watchdog::snapshot`] back into a watchdog whose sources
    /// were registered in the same order.
    ///
    /// # Errors
    ///
    /// [`Mismatch`] if the checkpoint lists another number of sources or
    /// its bytes are malformed.
    pub fn restore(&mut self, r: &mut Reader<'_>) -> Result<(), Mismatch> {
        self.last_global_progress = Cycle::dec(r)?;
        r.count_of(self.sources.len(), "the watchdog source count differs")?;
        for s in &mut self.sources {
            (s.last_signature, s.last_progress, s.observed) = Dec::dec(r)?;
        }
        Ok(())
    }

    /// Returns a report if no source has made progress for more than the
    /// window (and the window is non-zero).
    pub fn check(&self, now: Cycle) -> Option<WatchdogReport> {
        if self.window == 0 || now.0 - self.last_global_progress.0 <= self.window {
            return None;
        }
        Some(WatchdogReport {
            declared_at: now,
            window: self.window,
            last_progress: self.last_global_progress,
            sources: self
                .sources
                .iter()
                .map(|s| SourceReport {
                    name: s.name,
                    last_progress: s.last_progress,
                    last_signature: s.last_signature,
                })
                .collect(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn progress_resets_the_window() {
        let mut wd = Watchdog::new(10);
        let a = wd.add_source("a");
        for t in 0..100u64 {
            wd.observe(a, Cycle(t), t); // always changing
            assert!(wd.check(Cycle(t)).is_none());
        }
    }

    #[test]
    fn wedged_source_is_detected_within_the_window() {
        // An artificially wedged lane: its signature freezes at cycle 5.
        let mut wd = Watchdog::new(20);
        let lane = wd.add_source("lane0");
        let mut fired_at = None;
        for t in 0..100u64 {
            let sig = if t < 5 { t } else { 5 };
            wd.observe(lane, Cycle(t), sig);
            if let Some(report) = wd.check(Cycle(t)) {
                fired_at = Some((t, report));
                break;
            }
        }
        let (t, report) = fired_at.expect("watchdog must fire");
        // Last progress at t=5 (first frozen observation), window 20:
        // fires at the first cycle strictly beyond 5 + 20.
        assert_eq!(t, 26);
        assert_eq!(report.last_progress, Cycle(5));
        assert_eq!(report.window, 20);
        assert_eq!(report.sources.len(), 1);
        assert_eq!(report.sources[0].name, "lane0");
    }

    #[test]
    fn any_single_active_source_holds_off_the_wedge() {
        let mut wd = Watchdog::new(10);
        let frozen = wd.add_source("frozen");
        let active = wd.add_source("active");
        for t in 0..200u64 {
            wd.observe(frozen, Cycle(t), 42);
            wd.observe(active, Cycle(t), t);
            assert!(wd.check(Cycle(t)).is_none());
        }
    }

    #[test]
    fn zero_window_disables_the_watchdog() {
        let mut wd = Watchdog::new(0);
        let a = wd.add_source("a");
        wd.observe(a, Cycle(0), 1);
        assert!(wd.check(Cycle(1_000_000)).is_none());
    }

    #[test]
    fn report_names_every_source_with_its_last_progress() {
        let mut wd = Watchdog::new(5);
        let a = wd.add_source("a");
        let b = wd.add_source("b");
        wd.observe(a, Cycle(0), 1);
        wd.observe(b, Cycle(0), 1);
        wd.observe(b, Cycle(3), 2); // b progresses later than a
        for t in 4..20u64 {
            wd.observe(a, Cycle(t), 1);
            wd.observe(b, Cycle(t), 2);
        }
        let report = wd.check(Cycle(19)).expect("wedged");
        assert_eq!(report.sources[0].last_progress, Cycle(0));
        assert_eq!(report.sources[1].last_progress, Cycle(3));
        assert_eq!(report.last_progress, Cycle(3));
    }

    #[test]
    fn mix_signature_distinguishes_swapped_depths() {
        // A plain sum would alias (3, 5) with (5, 3); the mixer must not.
        let s1 = mix_signature(mix_signature(0, 3), 5);
        let s2 = mix_signature(mix_signature(0, 5), 3);
        assert_ne!(s1, s2);
    }
}
