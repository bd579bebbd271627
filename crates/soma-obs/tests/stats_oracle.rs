//! Property tests pinning the streaming stats engine to a sort-based
//! oracle: whatever the constant-space aggregators report must match
//! (exactly, or within the P² paper's expectations) what a full sort of
//! the same sample says.
//!
//! Samples are seed-driven through the vendored proptest + StdRng, so
//! failures reproduce deterministically.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use soma_obs::{P2Quantile, Sample, StreamingStats};

/// The oracle: sort a copy, take nearest-rank directly.
fn oracle_percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.saturating_sub(1).min(sorted.len() - 1)]
}

fn sample_values(seed: u64, len: usize) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len)
        .map(|_| {
            // Uniform in [-1e6, 1e6): 53 random mantissa bits scaled.
            let unit = (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
            (unit - 0.5) * 2.0e6
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// StreamingStats min/max/mean/sum agree with a fold over the raw
    /// sample.
    #[test]
    fn streaming_stats_match_the_oracle(seed in 0u64..1_000_000, len in 1usize..300) {
        let values = sample_values(seed, len);
        let mut s = StreamingStats::new();
        for &x in &values {
            s.observe(x);
        }
        let min = values.iter().copied().fold(f64::INFINITY, f64::min);
        let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let sum: f64 = values.iter().sum();
        prop_assert_eq!(s.count(), len as u64);
        prop_assert_eq!(s.min(), min);
        prop_assert_eq!(s.max(), max);
        prop_assert!((s.mean() - sum / len as f64).abs() <= 1e-9 * sum.abs().max(1.0));
    }

    /// Splitting a stream at any point and merging the two aggregators
    /// reproduces the whole-stream aggregator exactly.
    #[test]
    fn merge_is_stream_concatenation(seed in 0u64..1_000_000, len in 2usize..300, cut_pm in 0u32..1000) {
        let values = sample_values(seed, len);
        let cut = (len * cut_pm as usize) / 1000;
        let (mut whole, mut left, mut right) =
            (StreamingStats::new(), StreamingStats::new(), StreamingStats::new());
        for &x in &values {
            whole.observe(x);
        }
        for &x in &values[..cut] {
            left.observe(x);
        }
        for &x in &values[cut..] {
            right.observe(x);
        }
        left.merge(&right);
        // min/max/count are exact; the sum may differ by float
        // re-association (merge adds the two partial sums).
        prop_assert_eq!(left.count(), whole.count());
        prop_assert_eq!(left.min(), whole.min());
        prop_assert_eq!(left.max(), whole.max());
        prop_assert!((left.sum() - whole.sum()).abs() <= 1e-9 * whole.sum().abs().max(1.0));
    }

    /// Exact-sample percentiles equal the sort-based oracle for every
    /// requested percentile, including the edges.
    #[test]
    fn sample_percentiles_match_the_oracle(seed in 0u64..1_000_000, len in 1usize..300) {
        let values = sample_values(seed, len);
        let mut sample = Sample::new();
        for &x in &values {
            sample.push(x);
        }
        for p in [0.0, 1.0, 25.0, 50.0, 90.0, 99.0, 100.0] {
            prop_assert_eq!(sample.percentile(p), oracle_percentile(&values, p));
        }
    }

    /// The P² estimate stays inside the observed range and lands within
    /// a modest fraction of the range of the exact quantile on
    /// uniform-ish samples — the accuracy regime the estimator is
    /// specified for.
    #[test]
    fn p2_tracks_the_exact_quantile(seed in 0u64..1_000_000, len in 50usize..500, q_pm in 1u32..10) {
        let q = f64::from(q_pm) / 10.0; // 0.1 ..= 0.9
        let values = sample_values(seed, len);
        let mut est = P2Quantile::new(q);
        for &x in &values {
            est.observe(x);
        }
        let exact = oracle_percentile(&values, q * 100.0);
        let min = values.iter().copied().fold(f64::INFINITY, f64::min);
        let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let range = max - min;
        let e = est.estimate();
        prop_assert!(e >= min && e <= max, "estimate {} outside [{}, {}]", e, min, max);
        prop_assert!(
            (e - exact).abs() <= 0.15 * range,
            "estimate {} too far from exact {} (range {})",
            e,
            exact,
            range
        );
    }

    /// P² is exact (equals the oracle) through its first five
    /// observations, for any sample.
    #[test]
    fn p2_is_exact_until_six(seed in 0u64..1_000_000, len in 1usize..6) {
        let values = sample_values(seed, len);
        let mut est = P2Quantile::new(0.5);
        for &x in &values {
            est.observe(x);
        }
        prop_assert_eq!(est.estimate(), oracle_percentile(&values, 50.0));
    }
}
