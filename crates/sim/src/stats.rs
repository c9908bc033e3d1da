//! Cycle-accounting statistics.
//!
//! The breakdowns the paper reports — Fig. 9's multiplier-busy vs
//! merge-stall vs memory-stall fractions, Fig. 6's achieved bandwidth —
//! are all assembled from the two primitives here: a [`Counter`] per
//! category and a [`Histogram`] for distributions (queue occupancy, row
//! lengths).

use std::fmt;

use crate::plain_struct;

/// A monotonically increasing event counter.
///
/// # Example
///
/// ```rust
/// use matraptor_sim::stats::Counter;
///
/// let mut busy = Counter::default();
/// busy.add(3);
/// busy.incr();
/// assert_eq!(busy.get(), 4);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counter(u64);

impl Counter {
    /// Adds `n` events.
    pub fn add(&mut self, n: u64) {
        self.0 += n;
    }

    /// Adds one event.
    pub fn incr(&mut self) {
        self.0 += 1;
    }

    /// Current count.
    pub fn get(&self) -> u64 {
        self.0
    }

    /// This counter as a fraction of `total` (0 when `total` is 0).
    pub fn fraction_of(&self, total: u64) -> f64 {
        if total == 0 {
            0.0
        } else {
            self.0 as f64 / total as f64
        }
    }
}

impl fmt::Display for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// A fixed-bucket histogram over `u64` samples.
///
/// Bucket `i` covers `[bounds[i-1], bounds[i])`, with an implicit final
/// bucket for samples at or above the last bound.
#[derive(Debug, Clone)]
pub struct Histogram {
    bounds: Vec<u64>,
    counts: Vec<u64>,
    total: u64,
    sum: u128,
    max: u64,
}

impl Histogram {
    /// Creates a histogram with the given ascending bucket boundaries.
    ///
    /// # Panics
    ///
    /// Panics if `bounds` is empty or not strictly ascending.
    pub fn new(bounds: Vec<u64>) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly ascending"
        );
        let n = bounds.len() + 1;
        Histogram { bounds, counts: vec![0; n], total: 0, sum: 0, max: 0 }
    }

    /// Records one sample.
    pub fn record(&mut self, sample: u64) {
        let bucket = self.bounds.partition_point(|&b| b <= sample);
        self.counts[bucket] += 1;
        self.total += 1;
        self.sum += sample as u128;
        self.max = self.max.max(sample);
    }

    /// Number of samples recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Mean of all samples (0 if none).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// Largest recorded sample.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Per-bucket counts. Length is `bounds.len() + 1`; the final entry is
    /// the overflow bucket.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }
}

/// A named busy/stall cycle breakdown — the shape of Fig. 9.
///
/// Exactly one category is charged per cycle, so the fractions always sum
/// to 1 over `total()` cycles.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CycleBreakdown {
    /// Cycles the multipliers did useful work.
    pub busy: Counter,
    /// Cycles stalled on the merge (sorting-queue) logic.
    pub merge_stall: Counter,
    /// Cycles stalled waiting for memory.
    pub memory_stall: Counter,
    /// Cycles with no work available (drained pipeline, startup).
    pub idle: Counter,
}

plain_struct!(CycleBreakdown { busy, merge_stall, memory_stall, idle });

impl CycleBreakdown {
    /// Total cycles accounted.
    pub fn total(&self) -> u64 {
        self.busy.get() + self.merge_stall.get() + self.memory_stall.get() + self.idle.get()
    }

    /// `(busy, merge, memory, idle)` as fractions of the total.
    pub fn fractions(&self) -> (f64, f64, f64, f64) {
        let t = self.total();
        (
            self.busy.fraction_of(t),
            self.merge_stall.fraction_of(t),
            self.memory_stall.fraction_of(t),
            self.idle.fraction_of(t),
        )
    }

    /// Accumulates another breakdown (e.g. across PEs).
    pub fn merge_from(&mut self, other: &CycleBreakdown) {
        self.busy.add(other.busy.get());
        self.merge_stall.add(other.merge_stall.get());
        self.memory_stall.add(other.memory_stall.get());
        self.idle.add(other.idle.get());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates() {
        let mut c = Counter::default();
        c.incr();
        c.add(9);
        assert_eq!(c.get(), 10);
        assert!((c.fraction_of(40) - 0.25).abs() < 1e-12);
        assert_eq!(c.fraction_of(0), 0.0);
    }

    #[test]
    fn histogram_buckets() {
        let mut h = Histogram::new(vec![10, 100]);
        h.record(5); // bucket 0: [0,10)
        h.record(10); // bucket 1: [10,100)
        h.record(99);
        h.record(100); // bucket 2 (overflow)
        assert_eq!(h.counts(), &[1, 2, 1]);
        assert_eq!(h.total(), 4);
        assert_eq!(h.max(), 100);
        assert!((h.mean() - 53.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn unsorted_bounds_panic() {
        let _ = Histogram::new(vec![10, 10]);
    }

    #[test]
    fn breakdown_fractions_sum_to_one() {
        let mut b = CycleBreakdown::default();
        b.busy.add(50);
        b.merge_stall.add(30);
        b.memory_stall.add(15);
        b.idle.add(5);
        let (a, m, mem, i) = b.fractions();
        assert!((a + m + mem + i - 1.0).abs() < 1e-12);
        assert!((a - 0.5).abs() < 1e-12);
    }

    #[test]
    fn breakdown_merging() {
        let mut a = CycleBreakdown::default();
        a.busy.add(1);
        let mut b = CycleBreakdown::default();
        b.memory_stall.add(2);
        a.merge_from(&b);
        assert_eq!(a.total(), 3);
    }
}
