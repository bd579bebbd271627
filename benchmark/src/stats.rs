//! The benchmark's own arithmetic: percentiles, geometric means, span
//! self time and the failure and idle-core ratios. Kept free of I/O so
//! the unit tests below pin every formula the README documents.

/// How many samples must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Plain median (mean of the two middle values for an even count).
/// Used for per-repetition figures such as `campaign_s` and `setup_s`.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// A nearest-rank percentile with its sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    pub value: f64,
    pub samples: usize,
    /// Samples strictly after the percentile's rank.
    pub beyond: usize,
}

impl Percentile {
    /// Whether enough samples lie beyond the rank for the figure to mean
    /// anything ([`MIN_BEYOND`]).
    pub fn reportable(&self) -> bool {
        self.beyond >= MIN_BEYOND
    }
}

/// Nearest-rank percentile `p` (0 < p <= 100): the smallest sample with at
/// least `p` % of the samples at or below it. `None` for no samples.
pub fn nearest_rank(values: &[f64], p: f64) -> Option<Percentile> {
    if values.is_empty() {
        return None;
    }
    assert!(p > 0.0 && p <= 100.0, "percentile {p} out of (0, 100]");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    Some(Percentile { value: v[rank - 1], samples: n, beyond: n - rank })
}

/// The percentile if it is reportable, else `None`.
pub fn reportable_percentile(values: &[f64], p: f64) -> Option<Percentile> {
    nearest_rank(values, p).filter(Percentile::reportable)
}

/// Geometric mean of strictly positive values.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geomean of no values");
    assert!(values.iter().all(|&x| x > 0.0), "geomean needs positive values");
    (values.iter().map(|x| x.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Failed operations over attempted operations.
pub fn failed_frac(failed: u64, attempted: u64) -> f64 {
    assert!(attempted > 0, "nothing attempted");
    failed as f64 / attempted as f64
}

/// Share of the worker threads' capacity that no cell used:
/// `1 - busy / (threads * wall)`.
pub fn idle_core_frac(busy_s: f64, threads: usize, wall_s: f64) -> f64 {
    assert!(threads > 0 && wall_s > 0.0, "idle fraction needs threads and time");
    1.0 - busy_s / (threads as f64 * wall_s)
}

/// Self time of a span `[start, end)`: its duration minus the part of it
/// covered by the union of its children (clipped to the span, overlaps
/// counted once).
pub fn self_time(span: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let (start, end) = span;
    let mut kids: Vec<(u64, u64)> =
        children.iter().map(|&(s, e)| (s.max(start), e.min(end))).filter(|(s, e)| s < e).collect();
    kids.sort_unstable();
    let mut covered = 0;
    let mut cursor = start;
    for (s, e) in kids {
        let s = s.max(cursor);
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    (end - start) - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn nearest_rank_picks_the_smallest_sample_covering_p() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let p50 = nearest_rank(&v, 50.0).unwrap();
        assert_eq!((p50.value, p50.samples, p50.beyond), (50.0, 100, 50));
        let p99 = nearest_rank(&v, 99.0).unwrap();
        assert_eq!((p99.value, p99.beyond), (99.0, 1));
        assert_eq!(nearest_rank(&v, 100.0).unwrap().value, 100.0);
        assert_eq!(nearest_rank(&[5.0, 1.0], 1.0).unwrap().value, 1.0);
        assert!(nearest_rank(&[], 50.0).is_none());
    }

    #[test]
    fn percentiles_need_ten_samples_beyond_them() {
        // p99 of 1000 samples has exactly 10 beyond it: reportable.
        let v: Vec<f64> = (0..1000).map(f64::from).collect();
        let p99 = reportable_percentile(&v, 99.0).unwrap();
        assert_eq!((p99.value, p99.beyond), (989.0, 10));
        // One sample fewer leaves only 9 beyond.
        assert!(reportable_percentile(&v[..999], 99.0).is_none());
        // A median needs 20 samples: 19 leave 9 beyond rank 10.
        assert!(reportable_percentile(&v[..20], 50.0).is_some());
        assert!(reportable_percentile(&v[..19], 50.0).is_none());
    }

    #[test]
    fn geomean_matches_the_closed_form() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 8.0, 4.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[3.5]), 3.5);
    }

    #[test]
    fn failed_frac_counts_against_attempts() {
        assert_eq!(failed_frac(0, 40), 0.0);
        assert_eq!(failed_frac(1, 4), 0.25);
    }

    #[test]
    fn idle_core_frac_is_unused_thread_capacity() {
        // Two threads for 10 s with 15 s of cell work: a quarter idle.
        assert!((idle_core_frac(15.0, 2, 10.0) - 0.25).abs() < 1e-12);
        assert_eq!(idle_core_frac(20.0, 2, 10.0), 0.0);
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        assert_eq!(self_time((0, 100), &[]), 100);
        assert_eq!(self_time((0, 100), &[(10, 20), (30, 50)]), 70);
        // Overlapping children are counted once.
        assert_eq!(self_time((0, 100), &[(10, 40), (20, 50)]), 60);
        // Nested children are covered by their enclosing sibling.
        assert_eq!(self_time((0, 100), &[(10, 60), (20, 30)]), 50);
        // Children are clipped to the span.
        assert_eq!(self_time((10, 20), &[(0, 15), (18, 40)]), 3);
        assert_eq!(self_time((10, 20), &[(30, 40)]), 10);
    }
}
