//! Simulation time.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in simulated time, measured in clock cycles of the component's
/// own clock domain.
///
/// A newtype rather than a bare `u64` so that cycle counts, byte counts and
/// entry counts — which the timing model juggles constantly — can never be
/// confused (`C-NEWTYPE`).
///
/// # Example
///
/// ```rust
/// use matraptor_sim::Cycle;
///
/// let start = Cycle(10);
/// let end = start + 5;
/// assert_eq!(end - start, 5);
/// assert_eq!(end.as_u64(), 15);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Cycle(pub u64);

impl Cycle {
    /// Time zero.
    pub const ZERO: Cycle = Cycle(0);

    /// The raw cycle count.
    pub fn as_u64(self) -> u64 {
        self.0
    }

    /// The next cycle.
    #[must_use]
    pub fn next(self) -> Cycle {
        Cycle(self.0 + 1)
    }
}

impl Add<u64> for Cycle {
    type Output = Cycle;

    fn add(self, rhs: u64) -> Cycle {
        Cycle(self.0 + rhs)
    }
}

impl AddAssign<u64> for Cycle {
    fn add_assign(&mut self, rhs: u64) {
        self.0 += rhs;
    }
}

impl Sub<Cycle> for Cycle {
    type Output = u64;

    /// Elapsed cycles between two time points.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `rhs` is later than `self` (time cannot
    /// run backwards in a cycle-driven simulation).
    fn sub(self, rhs: Cycle) -> u64 {
        debug_assert!(self.0 >= rhs.0, "cycle subtraction underflow: {self} - {rhs}");
        self.0 - rhs.0
    }
}

impl fmt::Display for Cycle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cycle {}", self.0)
    }
}

/// A shared monotonic simulated-time clock.
///
/// The cycle-driven components below the accelerator each advance their
/// own local `Cycle` inside one run; `SimClock` is the *service-level*
/// time base that spans many runs — queue waits, breaker cooldowns, and
/// SLO accounting are all measured against it. It only ever moves
/// forward, and it moves only when told to (no wall-clock reads), which
/// keeps everything built on it bit-reproducible.
///
/// # Example
///
/// ```rust
/// use matraptor_sim::{Cycle, SimClock};
///
/// let mut clock = SimClock::new();
/// assert_eq!(clock.now(), Cycle::ZERO);
/// clock.advance(100);
/// assert!(!clock.advance_to(Cycle(50)), "time cannot run backwards");
/// assert_eq!(clock.now(), Cycle(100));
/// clock.advance_to(Cycle(250));
/// assert_eq!(clock.now().as_u64(), 250);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimClock {
    now: Cycle,
}

impl SimClock {
    /// A clock at time zero.
    pub fn new() -> Self {
        SimClock { now: Cycle::ZERO }
    }

    /// The current simulated time.
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Advances the clock by `cycles` and returns the new time.
    pub fn advance(&mut self, cycles: u64) -> Cycle {
        self.now = Cycle(self.now.0.saturating_add(cycles));
        self.now
    }

    /// Advances the clock to the absolute time `at`, if it lies in the
    /// future. Returns whether the clock moved; a target in the past is a
    /// no-op (monotonicity), not a panic, so event loops can feed it
    /// unsorted arrival times safely.
    pub fn advance_to(&mut self, at: Cycle) -> bool {
        if at > self.now {
            self.now = at;
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        let c = Cycle(100);
        assert_eq!(c + 28, Cycle(128));
        assert_eq!(Cycle(128) - c, 28);
        assert_eq!(c.next(), Cycle(101));
        let mut c2 = c;
        c2 += 3;
        assert_eq!(c2, Cycle(103));
    }

    #[test]
    fn ordering() {
        assert!(Cycle(3) < Cycle(5));
        assert_eq!(Cycle::ZERO, Cycle(0));
    }

    #[test]
    fn sim_clock_is_monotonic() {
        let mut clock = SimClock::new();
        assert_eq!(clock.advance(10), Cycle(10));
        assert!(clock.advance_to(Cycle(25)));
        assert!(!clock.advance_to(Cycle(25)), "advancing to the present is a no-op");
        assert!(!clock.advance_to(Cycle(3)), "advancing into the past is a no-op");
        assert_eq!(clock.now(), Cycle(25));
        assert_eq!(clock.advance(0), Cycle(25));
    }

    #[test]
    fn sim_clock_saturates_instead_of_wrapping() {
        let mut clock = SimClock::new();
        clock.advance(u64::MAX);
        clock.advance(10);
        assert_eq!(clock.now(), Cycle(u64::MAX));
    }
}
