//! A circuit breaker over accelerator faults, in simulated time.
//!
//! Repeated faults mean the machine (not the jobs) is sick; continuing to
//! feed it burns every tenant's cycles on work that will fail. The breaker
//! is the classic three-state machine, with all timing in simulated
//! cycles so campaigns replay bit-identically:
//!
//! * **closed** — traffic flows; consecutive faults are counted;
//! * **open** — after `failure_threshold` consecutive faults; traffic is
//!   shed to the CPU fallback until a cooldown expires. Each re-open
//!   doubles the cooldown (capped);
//! * **half-open** — cooldown expired; exactly one probe job is admitted.
//!   Success closes the breaker (and resets the backoff), failure re-opens
//!   it at the doubled cooldown.

use matraptor_sim::Cycle;

use crate::bounded::BoundedLog;

/// Cap on the retained transition history. A flapping breaker under an
/// adversarial campaign transitions without bound; past the cap the
/// oldest half is evicted (and counted in
/// [`CircuitBreaker::transitions_dropped`]) so the history cannot become
/// a slow memory leak.
const TRANSITION_LOG_CAP: usize = 1_024;

/// Tunables for [`CircuitBreaker`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerConfig {
    /// Consecutive accelerator faults (while closed) that trip the breaker.
    pub failure_threshold: u32,
    /// Base cooldown, in simulated cycles, for the first open.
    pub cooldown_cycles: u64,
    /// Cap on cooldown doublings, so the backoff cannot overflow or grow
    /// unboundedly: cooldown = `cooldown_cycles << min(opens, cap)`.
    pub max_backoff_doublings: u32,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig { failure_threshold: 4, cooldown_cycles: 200_000, max_backoff_doublings: 6 }
    }
}

/// The breaker's observable state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Traffic flows to the accelerator.
    Closed,
    /// Traffic is shed to the CPU fallback.
    Open,
    /// One probe job is allowed through.
    HalfOpen,
}

impl BreakerState {
    /// Stable lowercase label used in JSON reports.
    pub fn label(self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half_open",
        }
    }
}

/// One recorded state change, for campaign reports and assertions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerTransition {
    /// Simulated cycle of the change.
    pub at: Cycle,
    /// State before.
    pub from: BreakerState,
    /// State after.
    pub to: BreakerState,
}

/// The breaker itself. Drive it with [`admits`](CircuitBreaker::admits)
/// before each accelerator dispatch and
/// [`record_success`](CircuitBreaker::record_success) /
/// [`record_failure`](CircuitBreaker::record_failure) after.
#[derive(Debug)]
pub struct CircuitBreaker {
    cfg: BreakerConfig,
    state: BreakerState,
    consecutive_failures: u32,
    open_until: Cycle,
    opens: u32,
    transitions: BoundedLog<BreakerTransition>,
}

impl CircuitBreaker {
    /// A closed breaker with no history.
    pub fn new(cfg: BreakerConfig) -> Self {
        CircuitBreaker {
            cfg,
            state: BreakerState::Closed,
            consecutive_failures: 0,
            open_until: Cycle::ZERO,
            opens: 0,
            transitions: BoundedLog::new(TRANSITION_LOG_CAP),
        }
    }

    /// Current state (without advancing the open → half-open timer).
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// The retained state changes, in order. Bounded: once the history
    /// exceeds its cap the oldest half is evicted and counted in
    /// [`CircuitBreaker::transitions_dropped`].
    pub fn transitions(&self) -> &[BreakerTransition] {
        self.transitions.entries()
    }

    /// Transitions evicted from the bounded history over the breaker's
    /// lifetime; `transitions().len() + transitions_dropped()` accounts
    /// for every state change.
    pub fn transitions_dropped(&self) -> u64 {
        self.transitions.dropped()
    }

    /// When an open breaker's cooldown expires — the cycle at which
    /// [`admits`](CircuitBreaker::admits) will move it to half-open.
    /// `None` unless currently open. An event-driven caller (the worker
    /// fleet) uses this to advance idle time to the probe instead of
    /// polling: with every accelerator worker shed and no CPU tier, the
    /// next schedulable event *is* the reopen.
    pub fn reopens_at(&self) -> Option<Cycle> {
        (self.state == BreakerState::Open).then_some(self.open_until)
    }

    /// Whether a job may be dispatched to the accelerator at `now`. An
    /// expired cooldown moves open → half-open here, so the caller's
    /// dispatch becomes the probe.
    pub fn admits(&mut self, now: Cycle) -> bool {
        match self.state {
            BreakerState::Closed | BreakerState::HalfOpen => true,
            BreakerState::Open => {
                if now >= self.open_until {
                    self.transition(now, BreakerState::HalfOpen);
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Report a successful accelerator run at `now`.
    pub fn record_success(&mut self, now: Cycle) {
        self.consecutive_failures = 0;
        if self.state == BreakerState::HalfOpen {
            // The probe succeeded: the machine recovered, forgive the past.
            self.opens = 0;
            self.transition(now, BreakerState::Closed);
        }
    }

    /// Report an accelerator fault at `now`.
    pub fn record_failure(&mut self, now: Cycle) {
        match self.state {
            BreakerState::HalfOpen => self.trip(now),
            BreakerState::Closed => {
                self.consecutive_failures += 1;
                if self.consecutive_failures >= self.cfg.failure_threshold {
                    self.trip(now);
                }
            }
            // Shed traffic never reaches the accelerator, so failures
            // while open can only come from callers ignoring `admits`;
            // tolerate them without resetting the cooldown.
            BreakerState::Open => {}
        }
    }

    fn trip(&mut self, now: Cycle) {
        let shift = self.opens.min(self.cfg.max_backoff_doublings).min(62);
        let cooldown = self.cfg.cooldown_cycles.saturating_mul(1u64 << shift);
        self.open_until = Cycle(now.0.saturating_add(cooldown));
        self.opens = self.opens.saturating_add(1);
        self.consecutive_failures = 0;
        self.transition(now, BreakerState::Open);
    }

    fn transition(&mut self, at: Cycle, to: BreakerState) {
        self.transitions.push(BreakerTransition { at, from: self.state, to });
        self.state = to;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> BreakerConfig {
        BreakerConfig { failure_threshold: 3, cooldown_cycles: 100, max_backoff_doublings: 4 }
    }

    #[test]
    fn full_cycle_closed_open_half_open_closed() {
        let mut b = CircuitBreaker::new(cfg());
        assert_eq!(b.state(), BreakerState::Closed);
        for t in 0..3 {
            assert!(b.admits(Cycle(t)));
            b.record_failure(Cycle(t));
        }
        assert_eq!(b.state(), BreakerState::Open);
        // Cooldown not expired: shed.
        assert!(!b.admits(Cycle(50)));
        // Expired: the next dispatch is the probe.
        assert!(b.admits(Cycle(102 + 100)));
        assert_eq!(b.state(), BreakerState::HalfOpen);
        b.record_success(Cycle(250));
        assert_eq!(b.state(), BreakerState::Closed);
        let kinds: Vec<(BreakerState, BreakerState)> =
            b.transitions().iter().map(|t| (t.from, t.to)).collect();
        assert_eq!(
            kinds,
            vec![
                (BreakerState::Closed, BreakerState::Open),
                (BreakerState::Open, BreakerState::HalfOpen),
                (BreakerState::HalfOpen, BreakerState::Closed),
            ]
        );
    }

    #[test]
    fn failed_probe_reopens_with_doubled_cooldown() {
        let mut b = CircuitBreaker::new(cfg());
        for t in 0..3 {
            b.record_failure(Cycle(t));
        }
        assert!(b.admits(Cycle(200)));
        b.record_failure(Cycle(200));
        assert_eq!(b.state(), BreakerState::Open);
        // Second open: cooldown is 200, not 100.
        assert!(!b.admits(Cycle(200 + 150)));
        assert!(b.admits(Cycle(200 + 200)));
    }

    #[test]
    fn success_resets_the_consecutive_count_and_backoff() {
        let mut b = CircuitBreaker::new(cfg());
        b.record_failure(Cycle(0));
        b.record_failure(Cycle(1));
        b.record_success(Cycle(2));
        b.record_failure(Cycle(3));
        b.record_failure(Cycle(4));
        assert_eq!(b.state(), BreakerState::Closed, "count must reset on success");
        // Trip, recover through a probe, and trip again: the cooldown is
        // back to the base because the successful close reset the backoff.
        b.record_failure(Cycle(5));
        assert_eq!(b.state(), BreakerState::Open);
        assert!(b.admits(Cycle(200)));
        b.record_success(Cycle(200));
        for t in 300..303 {
            b.record_failure(Cycle(t));
        }
        assert!(!b.admits(Cycle(302 + 99)));
        assert!(b.admits(Cycle(302 + 100)));
    }

    #[test]
    fn backoff_doubling_saturates_instead_of_overflowing() {
        let mut b = CircuitBreaker::new(BreakerConfig {
            failure_threshold: 1,
            cooldown_cycles: u64::MAX / 2,
            max_backoff_doublings: 63,
        });
        for _ in 0..10 {
            // Probe at the end of time so each re-trip exercises the
            // saturating cooldown arithmetic rather than overflowing.
            assert!(b.admits(Cycle(u64::MAX)));
            b.record_failure(Cycle(u64::MAX));
        }
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.transitions().iter().filter(|t| t.to == BreakerState::Open).count(), 10);
    }

    #[test]
    fn transition_history_is_bounded_with_eviction_accounting() {
        let mut b = CircuitBreaker::new(BreakerConfig {
            failure_threshold: 1,
            cooldown_cycles: 1,
            max_backoff_doublings: 0,
        });
        // A relentlessly flapping breaker: every probe fails, so each
        // round after the first adds two transitions (open → half-open →
        // open). 2000 rounds is 3999 transitions, well past the cap.
        let mut now = 0u64;
        for _ in 0..2_000 {
            now += 2;
            assert!(b.admits(Cycle(now)));
            b.record_failure(Cycle(now));
        }
        assert!(b.transitions().len() <= TRANSITION_LOG_CAP);
        assert_eq!(b.transitions().len() as u64 + b.transitions_dropped(), 3_999);
        // The newest transition is always retained.
        let last = b.transitions().last().expect("flapping history is non-empty");
        assert_eq!(last.to, BreakerState::Open);
        assert_eq!(last.at, Cycle(now));
    }
}
