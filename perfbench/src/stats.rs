//! Sample summaries: nearest-rank percentiles, the tail-percentile rule and
//! failure accounting.

use matraptor_bench::harness::percentile;

/// Percentiles considered for a tail, highest first.
const TAIL_CANDIDATES: [u64; 5] = [99, 95, 90, 75, 50];

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: u64 = 10;

/// Latency recorded for a job that was refused, failed or did not complete:
/// it misses any latency limit.
pub const MISSED: u64 = u64::MAX;

/// Nearest-rank position (1-based) of percentile `p` among `n` samples,
/// matching [`percentile`].
fn rank(p: u64, n: u64) -> u64 {
    (p * n).div_ceil(100).max(1)
}

/// The highest candidate percentile with at least [`MIN_BEYOND`] samples
/// beyond its nearest-rank position, or `None` when even the median has
/// fewer.
pub fn tail_pct(n: usize) -> Option<u64> {
    let n = n as u64;
    TAIL_CANDIDATES.into_iter().find(|&p| n.saturating_sub(rank(p, n)) >= MIN_BEYOND)
}

/// A timing distribution reduced to its median and its tail.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub p50: u64,
    /// The tail percentile used (`100` — the maximum — when no candidate
    /// has enough samples beyond it).
    pub tail_pct: u64,
    /// Value at the tail percentile.
    pub tail: u64,
}

impl Summary {
    /// Summarises nanosecond samples (sorted in place).
    pub fn of(samples: &mut [u64]) -> Summary {
        samples.sort_unstable();
        let tail_pct = tail_pct(samples.len()).unwrap_or(100);
        Summary {
            n: samples.len(),
            p50: percentile(samples, 50),
            tail_pct,
            tail: percentile(samples, tail_pct),
        }
    }

    /// One line naming the percentile and the sample count.
    pub fn describe(&self, what: &str) -> String {
        format!("{what}: p50 and p{} over {} samples", self.tail_pct, self.n)
    }
}

/// Jobs or requests attempted and how many did not end `Completed`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Attempted.
    pub attempted: u64,
    /// Refused at admission.
    pub refused: u64,
    /// Resolved with a failure.
    pub failed: u64,
    /// Resolved, but with another disposition than `Completed`.
    pub not_completed: u64,
}

impl Tally {
    /// Every attempt that did not end `Completed`.
    pub fn unsuccessful(&self) -> u64 {
        self.refused + self.failed + self.not_completed
    }

    /// Unsuccessful attempts over attempts (0 when nothing was attempted).
    pub fn failed_ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.unsuccessful() as f64 / self.attempted as f64
        }
    }

    /// Adds another tally.
    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.refused += other.refused;
        self.failed += other.failed;
        self.not_completed += other.not_completed;
    }
}

/// Share of samples at or under `limit`, where [`MISSED`] samples never are.
pub fn met_limit(samples: &[u64], limit: u64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let met = samples.iter().filter(|&&s| s != MISSED && s <= limit).count();
    met as f64 / samples.len() as f64
}

/// Clock ticks per second of the user and system times in
/// `/proc/<pid>/stat` (`USER_HZ`, 100 on every Linux architecture).
const USER_HZ: f64 = 100.0;

/// User plus system CPU seconds from the text of `/proc/<pid>/stat`
/// (fields 14 and 15, counted after the parenthesised command name).
fn cpu_s_of_stat(stat: &str) -> Option<f64> {
    let fields: Vec<&str> = stat.get(stat.rfind(')')? + 1..)?.split_whitespace().collect();
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) as f64 / USER_HZ)
}

/// CPU seconds this process has run, user plus system, over every thread
/// it has had (threads that have exited included). Time the hypervisor
/// stole and time spent waiting for a CPU do not count, so a rate per CPU
/// second depends less on what else runs on the host than one per
/// wall-second does. 0 where `/proc` is missing.
pub fn process_cpu_s() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .as_deref()
        .and_then(cpu_s_of_stat)
        .unwrap_or(0.0)
}

/// Median of floating-point values (the mean of the middle pair for an
/// even count); 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(tail_pct(19), None);
        assert_eq!(tail_pct(20), Some(50));
        assert_eq!(tail_pct(39), Some(50));
        assert_eq!(tail_pct(40), Some(75));
        assert_eq!(tail_pct(99), Some(75));
        assert_eq!(tail_pct(100), Some(90));
        assert_eq!(tail_pct(199), Some(90));
        assert_eq!(tail_pct(200), Some(95));
        assert_eq!(tail_pct(999), Some(95));
        assert_eq!(tail_pct(1000), Some(99));
        for n in 20..3000 {
            let p = tail_pct(n).expect("n >= 20 has a tail");
            assert!(n as u64 - rank(p, n as u64) >= MIN_BEYOND, "n={n} p={p}");
        }
    }

    #[test]
    fn summary_is_nearest_rank() {
        let mut s: Vec<u64> = (1..=1000).rev().collect();
        let sum = Summary::of(&mut s);
        assert_eq!(sum, Summary { n: 1000, p50: 500, tail_pct: 99, tail: 990 });
        let mut few = vec![5, 1, 3];
        let sum = Summary::of(&mut few);
        assert_eq!((sum.p50, sum.tail_pct, sum.tail), (3, 100, 5));
    }

    #[test]
    fn every_unsuccessful_job_counts_as_failed() {
        let mut t = Tally { attempted: 10, refused: 1, failed: 2, not_completed: 1 };
        assert_eq!(t.unsuccessful(), 4);
        assert!((t.failed_ratio() - 0.4).abs() < 1e-12);
        t.add(Tally { attempted: 10, ..Tally::default() });
        assert!((t.failed_ratio() - 0.2).abs() < 1e-12);
        assert_eq!(Tally::default().failed_ratio(), 0.0);
    }

    #[test]
    fn failed_jobs_miss_every_latency_limit() {
        let samples = [10, 20, MISSED, 30];
        assert_eq!(met_limit(&samples, u64::MAX - 1), 0.75);
        assert_eq!(met_limit(&samples, 20), 0.5);
        // Failed jobs sort above every real latency, so they reach the tail.
        let mut s: Vec<u64> = (1..=989).chain(std::iter::repeat_n(MISSED, 11)).collect();
        let sum = Summary::of(&mut s);
        assert_eq!((sum.tail_pct, sum.tail), (99, MISSED));
    }

    #[test]
    fn cpu_seconds_parse_past_the_command_name() {
        let stat = "42 (a) b (c) S 1 42 42 0 -1 4194304 100 0 0 0 250 75 0 0 20 0 3 0";
        assert_eq!(cpu_s_of_stat(stat), Some(3.25));
        assert_eq!(cpu_s_of_stat("42 (short) S 1"), None);
        assert!(process_cpu_s() >= 0.0);
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
