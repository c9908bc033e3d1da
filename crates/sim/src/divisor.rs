//! Division by a run-time constant, strength-reduced when it can be.

/// A fixed divisor whose `/` and `%` become a shift and a mask when it is
/// a power of two — every geometry the paper evaluates (burst, interleave,
/// channel, row and bank counts) — and fall back to hardware division
/// otherwise. Built once from a configuration, used on every cycle.
///
/// # Example
///
/// ```rust
/// use matraptor_sim::Divisor;
///
/// let d = Divisor::new(64);
/// assert_eq!((d.quotient(200), d.remainder(200)), (3, 8));
/// let odd = Divisor::new(3);
/// assert_eq!((odd.quotient(10), odd.remainder(10)), (3, 1));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Divisor {
    d: u64,
    /// `log2(d)` when `d` is a power of two.
    shift: Option<u32>,
}

impl Divisor {
    /// A divisor of `d`.
    ///
    /// # Panics
    ///
    /// Panics if `d == 0`.
    pub fn new(d: u64) -> Self {
        assert!(d > 0, "division by zero");
        Divisor { d, shift: d.is_power_of_two().then(|| d.trailing_zeros()) }
    }

    /// The divisor itself.
    pub fn get(self) -> u64 {
        self.d
    }

    /// `x / d`.
    #[inline]
    pub fn quotient(self, x: u64) -> u64 {
        match self.shift {
            Some(s) => x >> s,
            None => x / self.d,
        }
    }

    /// `x % d`.
    #[inline]
    pub fn remainder(self, x: u64) -> u64 {
        match self.shift {
            Some(_) => x & (self.d - 1),
            None => x % self.d,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn agrees_with_hardware_division() {
        for d in [1u64, 2, 3, 7, 8, 64, 100, 1024, 1 << 40] {
            let div = Divisor::new(d);
            assert_eq!(div.get(), d);
            for x in [0u64, 1, 2, 63, 64, 65, 1023, 1024, 99_999, u64::MAX - 1, u64::MAX] {
                assert_eq!(div.quotient(x), x / d, "{x} / {d}");
                assert_eq!(div.remainder(x), x % d, "{x} % {d}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn zero_is_rejected() {
        let _ = Divisor::new(0);
    }
}
