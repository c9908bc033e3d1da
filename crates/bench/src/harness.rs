//! Statistics shared by the campaign binaries and the repository
//! benchmark.

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
}
