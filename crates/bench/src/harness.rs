//! Minimal micro-benchmark harness.
//!
//! The offline build environment cannot fetch `criterion`, so the
//! `benches/*.rs` targets use this std-only harness instead: warm-up, a
//! fixed measurement budget per benchmark, and median-of-samples reporting.
//! Timing uses wall-clock `Instant` — which is fine here because the bench
//! crate measures *host* simulation throughput, not modelled cycles (the
//! conformance `determinism` rule bans `Instant` only in simulator-state
//! crates).

use std::time::{Duration, Instant};

/// Hard cap on samples per benchmark, so a sub-microsecond body under a
/// generous budget cannot accumulate unbounded memory.
const MAX_SAMPLES: usize = 10_000;

/// One benchmark group, mirroring criterion's `benchmark_group` shape.
#[derive(Debug)]
pub struct Group {
    name: String,
    /// Measurement budget per benchmark.
    budget: Duration,
    /// Minimum number of timed samples.
    min_samples: usize,
}

impl Group {
    /// Creates a group with the default budget (0.5 s per benchmark).
    pub fn new(name: &str) -> Self {
        println!("group {name}");
        Group { name: name.to_string(), budget: Duration::from_millis(500), min_samples: 10 }
    }

    /// Overrides the per-benchmark measurement budget. A zero (or
    /// over-tight) budget is honoured gracefully: at least one timed
    /// sample is always taken, and benchmarks whose sample count was
    /// dictated by a clamp rather than the budget are marked
    /// `budget-clipped` in the output.
    pub fn budget(mut self, budget: Duration) -> Self {
        self.budget = budget;
        self
    }

    /// Times `f` repeatedly and prints `group/name  median  (samples)`.
    ///
    /// Returns the median per-iteration time so callers can assert on it.
    pub fn bench<F, R>(&self, name: &str, mut f: F) -> Duration
    where
        F: FnMut() -> R,
    {
        let (median, n, clipped) = self.run(&mut f);
        println!(
            "  {:<40} {:>12.3?} (n={}{})",
            format!("{}/{}", self.name, name),
            median,
            n,
            if clipped { ", budget-clipped" } else { "" }
        );
        median
    }

    /// The measurement loop behind [`bench`](Group::bench). The returned
    /// flag reports whether the sample count was decided by a clamp (the
    /// minimum-sample floor outlasting the budget, or the [`MAX_SAMPLES`]
    /// cap) instead of by the budget itself.
    fn run<F, R>(&self, f: &mut F) -> (Duration, usize, bool)
    where
        F: FnMut() -> R,
    {
        // One warm-up iteration, then sample until the budget is spent.
        let _ = std::hint::black_box(f());
        let mut samples: Vec<Duration> = Vec::new();
        let started = Instant::now();
        let mut overtight = false;
        // `loop` rather than a guarded `while`: the first sample is taken
        // unconditionally, so the median below is total by construction
        // even under `budget(Duration::ZERO)`.
        let clipped = loop {
            let t0 = Instant::now();
            let _ = std::hint::black_box(f());
            samples.push(t0.elapsed());
            if samples.len() >= MAX_SAMPLES {
                break true;
            }
            let have_min = samples.len() >= self.min_samples.max(1);
            let budget_spent = started.elapsed() >= self.budget;
            if budget_spent && !have_min {
                // The budget ran out first; we keep sampling to the floor,
                // but the count no longer reflects the requested budget.
                overtight = true;
            }
            if budget_spent && have_min {
                break overtight;
            }
        };
        samples.sort_unstable();
        (samples[samples.len() / 2], samples.len(), clipped)
    }
}

/// Nearest-rank percentile of an ascending-sorted sample set.
///
/// Uses the standard nearest-rank definition: the p-th percentile is the
/// smallest value such that at least `p%` of the samples are ≤ it —
/// `sorted[ceil(p·N/100) − 1]`, with `p = 0` mapping to the minimum and
/// `p = 100` to the maximum. `p` above 100 is clamped; an empty slice
/// yields 0.
///
/// This replaces the floor-interpolation form
/// (`sorted[(N−1)·p/100]`) previously open-coded in `stress_campaign`,
/// which under-reported upper percentiles — e.g. for `N = 10` it returned
/// the 9th-ranked sample as "p99" instead of the 10th.
pub fn percentile(sorted: &[u64], p: u64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let p = p.min(100);
    let n = sorted.len() as u64;
    let rank = (p * n).div_ceil(100).max(1);
    sorted[(rank - 1) as usize]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_of_empty_is_zero() {
        assert_eq!(percentile(&[], 0), 0);
        assert_eq!(percentile(&[], 50), 0);
        assert_eq!(percentile(&[], 100), 0);
    }

    #[test]
    fn percentile_of_single_sample_is_that_sample_for_every_p() {
        for p in 0..=100 {
            assert_eq!(percentile(&[42], p), 42, "p{p}");
        }
    }

    #[test]
    fn percentile_endpoints_are_min_and_max() {
        for n in 1..=20u64 {
            let v: Vec<u64> = (1..=n).collect();
            assert_eq!(percentile(&v, 0), 1, "p0 of N={n}");
            assert_eq!(percentile(&v, 100), n, "p100 of N={n}");
        }
    }

    #[test]
    fn percentile_matches_nearest_rank_reference_for_small_n() {
        // Cross-check every (N ≤ 12, p ≤ 100) pair against a direct
        // transcription of the nearest-rank definition: the smallest value
        // with at least p% of samples ≤ it.
        for n in 1..=12u64 {
            let v: Vec<u64> = (0..n).map(|i| 10 * i).collect();
            for p in 0..=100u64 {
                let want = if p == 0 {
                    v[0]
                } else {
                    *v.iter()
                        .find(|&&x| {
                            let le = v.iter().filter(|&&y| y <= x).count() as u64;
                            100 * le >= p * n
                        })
                        .unwrap()
                };
                assert_eq!(percentile(&v, p), want, "N={n} p={p}");
            }
        }
    }

    #[test]
    fn percentile_upper_ranks_are_not_floored() {
        // The motivating bug: N=10, p99 must be the maximum (rank 10),
        // not the 9th-ranked sample as floor interpolation gives.
        let v: Vec<u64> = (1..=10).collect();
        assert_eq!(percentile(&v, 99), 10);
        assert_eq!(percentile(&v, 91), 10);
        assert_eq!(percentile(&v, 90), 9);
        assert_eq!(percentile(&v, 50), 5);
        assert_eq!(percentile(&v, 51), 6);
    }

    #[test]
    fn percentile_handles_ties_and_out_of_range_p() {
        let v = [7, 7, 7, 9];
        assert_eq!(percentile(&v, 50), 7);
        assert_eq!(percentile(&v, 75), 7);
        assert_eq!(percentile(&v, 76), 9);
        assert_eq!(percentile(&v, 250), 9, "p > 100 clamps to the max");
    }

    #[test]
    fn zero_budget_still_produces_a_median_and_is_marked_clipped() {
        let g = Group::new("t").budget(Duration::ZERO);
        let mut calls = 0u32;
        let (median, n, clipped) = g.run(&mut || calls += 1);
        assert!(median >= Duration::ZERO);
        assert!(n >= 1, "at least one timed sample is structural");
        assert_eq!(n, g.min_samples, "the floor, not the budget, set the count");
        assert!(clipped, "an over-tight budget must be flagged");
        assert_eq!(calls, n as u32 + 1, "warm-up plus one call per sample");
    }

    #[test]
    fn generous_budget_is_not_marked_clipped() {
        // A one-sample floor is met by the first sample, however slowly a
        // loaded host runs it; and a sleep never returns early, so the cap
        // of 50 µs samples would take 0.5 s, a hundred budgets. Only the
        // budget can end this run.
        let g = Group { name: "t".to_string(), budget: Duration::from_millis(5), min_samples: 1 };
        let (_, n, clipped) = g.run(&mut || std::thread::sleep(Duration::from_micros(50)));
        assert!(n < MAX_SAMPLES);
        assert!(!clipped, "the budget, not a clamp, ended this run");
    }

    #[test]
    fn instantaneous_bodies_hit_the_sample_cap_and_are_marked() {
        let g = Group::new("t").budget(Duration::from_secs(3600));
        let (_, n, clipped) = g.run(&mut || ());
        assert_eq!(n, MAX_SAMPLES);
        assert!(clipped, "the cap, not the budget, ended this run");
    }
}
