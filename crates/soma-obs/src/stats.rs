//! The streaming statistics engine: constant-space aggregators for the
//! metrics every observability consumer needs, plus one exact sample
//! type for when the data fits in memory.
//!
//! * [`StreamingStats`] — min/max/mean/sum in O(1) space.
//! * [`Sample`] — an exact sample with nearest-rank percentiles (the
//!   single implementation behind the campaign summary distributions).
//! * [`P2Quantile`] — the P² (Jain & Chlamtac) streaming quantile
//!   estimator for samples too large to keep.
//! * [`sparkline`] — a one-line unicode rendering of a series.
//!
//! Everything here is deterministic: the same observations in the same
//! order produce bit-identical results, which is what lets the campaign
//! summary be byte-stable.

/// Nearest-rank percentile of an **ascending-sorted** slice, `p` in
/// `[0, 100]`. `0.0` on an empty slice. Rank is `ceil(p/100 · n)`
/// clamped into the sample.
fn percentile_nearest_rank(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.saturating_sub(1).min(sorted.len() - 1)]
}

/// Constant-space running min/max/mean/sum.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamingStats {
    count: u64,
    min: f64,
    max: f64,
    sum: f64,
}

impl Default for StreamingStats {
    fn default() -> Self {
        Self::new()
    }
}

impl StreamingStats {
    /// An empty aggregator.
    #[must_use]
    pub fn new() -> Self {
        Self { count: 0, min: f64::INFINITY, max: f64::NEG_INFINITY, sum: 0.0 }
    }

    /// Folds one observation in.
    pub fn observe(&mut self, x: f64) {
        self.count += 1;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
        self.sum += x;
    }

    /// Observations folded so far.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Smallest observation; `0.0` when empty.
    #[must_use]
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest observation; `0.0` when empty.
    #[must_use]
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Sum of all observations.
    #[must_use]
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Arithmetic mean; `0.0` when empty.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

/// An exact in-memory sample: every observation kept, percentiles by
/// nearest rank over the sorted data. The ground truth the streaming
/// estimators are property-tested against — and the right tool whenever
/// the sample is campaign-sized (thousands, not billions).
#[derive(Debug, Clone, Default)]
pub struct Sample {
    values: Vec<f64>,
    dirty: bool,
}

impl Sample {
    /// An empty sample.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.values.push(x);
        self.dirty = true;
    }

    /// Number of observations.
    #[must_use]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the sample is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The sorted observations (sorts lazily on first access).
    pub fn sorted(&mut self) -> &[f64] {
        if self.dirty {
            self.values.sort_by(|a, b| a.partial_cmp(b).expect("observations are finite"));
            self.dirty = false;
        }
        &self.values
    }

    /// Nearest-rank percentile, `p` in `[0, 100]`; `0.0` when empty.
    pub fn percentile(&mut self, p: f64) -> f64 {
        percentile_nearest_rank(self.sorted(), p)
    }

    /// Min/max/mean of the sample as a [`StreamingStats`].
    #[must_use]
    pub fn stats(&self) -> StreamingStats {
        let mut s = StreamingStats::new();
        for &x in &self.values {
            s.observe(x);
        }
        s
    }
}

/// The P² (Jain & Chlamtac 1985) streaming quantile estimator: five
/// markers track the target quantile in O(1) space per observation,
/// exact until the sixth observation arrives. For million-cell
/// campaigns where an exact [`Sample`] would not fit.
#[derive(Debug, Clone)]
pub struct P2Quantile {
    /// Target quantile as a fraction in `[0, 1]`.
    p: f64,
    /// Marker heights.
    q: [f64; 5],
    /// Marker positions (1-based ranks).
    n: [f64; 5],
    /// Desired marker positions.
    np: [f64; 5],
    /// Desired-position increments per observation.
    dn: [f64; 5],
    count: u64,
    /// The first five observations, kept sorted (exact phase).
    init: Vec<f64>,
}

impl P2Quantile {
    /// An estimator for quantile `p` (a fraction: `0.5` = median).
    ///
    /// # Panics
    ///
    /// If `p` is outside `[0, 1]`.
    #[must_use]
    pub fn new(p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "quantile fraction out of range: {p}");
        Self {
            p,
            q: [0.0; 5],
            n: [1.0, 2.0, 3.0, 4.0, 5.0],
            np: [1.0, 1.0 + 2.0 * p, 1.0 + 4.0 * p, 3.0 + 2.0 * p, 5.0],
            dn: [0.0, p / 2.0, p, (1.0 + p) / 2.0, 1.0],
            count: 0,
            init: Vec::with_capacity(5),
        }
    }

    /// Observations folded so far.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Folds one observation in.
    pub fn observe(&mut self, x: f64) {
        self.count += 1;
        if self.count <= 5 {
            let at = self.init.partition_point(|&v| v <= x);
            self.init.insert(at, x);
            if self.count == 5 {
                self.q.copy_from_slice(&self.init);
            }
            return;
        }

        // Locate the cell k with q[k] <= x < q[k+1], stretching the
        // extreme markers when x falls outside them.
        let k = if x < self.q[0] {
            self.q[0] = x;
            0
        } else if x >= self.q[4] {
            self.q[4] = x;
            3
        } else {
            (0..4).rev().find(|&i| self.q[i] <= x).unwrap_or(0)
        };

        for i in (k + 1)..5 {
            self.n[i] += 1.0;
        }
        for i in 0..5 {
            self.np[i] += self.dn[i];
        }

        // Nudge the three interior markers toward their desired ranks,
        // parabolic (P²) when the adjusted height stays monotone,
        // linear otherwise.
        for i in 1..4 {
            let d = self.np[i] - self.n[i];
            if (d >= 1.0 && self.n[i + 1] - self.n[i] > 1.0)
                || (d <= -1.0 && self.n[i - 1] - self.n[i] < -1.0)
            {
                let s = d.signum();
                let parabolic = self.q[i]
                    + s / (self.n[i + 1] - self.n[i - 1])
                        * ((self.n[i] - self.n[i - 1] + s) * (self.q[i + 1] - self.q[i])
                            / (self.n[i + 1] - self.n[i])
                            + (self.n[i + 1] - self.n[i] - s) * (self.q[i] - self.q[i - 1])
                                / (self.n[i] - self.n[i - 1]));
                self.q[i] = if self.q[i - 1] < parabolic && parabolic < self.q[i + 1] {
                    parabolic
                } else {
                    let j = if s > 0.0 { i + 1 } else { i - 1 };
                    self.q[i] + s * (self.q[j] - self.q[i]) / (self.n[j] - self.n[i])
                };
                self.n[i] += s;
            }
        }
    }

    /// The current quantile estimate: exact (nearest rank over the
    /// buffered observations) through the fifth observation, the P²
    /// middle marker after; `0.0` when empty.
    #[must_use]
    pub fn estimate(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        if self.count <= 5 {
            return percentile_nearest_rank(&self.init, self.p * 100.0);
        }
        self.q[2]
    }
}

/// Renders values as a unicode block-element sparkline, one glyph per
/// value, scaled to the value range (a flat series renders mid-height).
/// Empty input renders an empty string.
#[must_use]
pub fn sparkline(values: &[f64]) -> String {
    const GLYPHS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    if values.is_empty() {
        return String::new();
    }
    let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let span = hi - lo;
    values
        .iter()
        .map(|&v| {
            if span <= 0.0 {
                GLYPHS[3]
            } else {
                let t = ((v - lo) / span * 7.0).round() as usize;
                GLYPHS[t.min(7)]
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_historical_convention() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_nearest_rank(&v, 50.0), 50.0);
        assert_eq!(percentile_nearest_rank(&v, 90.0), 90.0);
        assert_eq!(percentile_nearest_rank(&v, 99.0), 99.0);
        assert_eq!(percentile_nearest_rank(&v, 100.0), 100.0);
        assert_eq!(percentile_nearest_rank(&[], 50.0), 0.0);
        assert_eq!(percentile_nearest_rank(&[7.0], 99.0), 7.0);
        assert_eq!(percentile_nearest_rank(&[7.0], 0.0), 7.0);
    }

    #[test]
    fn streaming_stats_fold_and_merge() {
        let mut a = StreamingStats::new();
        assert_eq!((a.min(), a.max(), a.mean(), a.count()), (0.0, 0.0, 0.0, 0));
        for x in [3.0, 1.0, 2.0] {
            a.observe(x);
        }
        assert_eq!((a.min(), a.max(), a.sum(), a.mean()), (1.0, 3.0, 6.0, 2.0));
    }

    #[test]
    fn sample_percentiles_are_exact() {
        let mut s = Sample::new();
        for x in [5.0, 1.0, 4.0, 2.0, 3.0] {
            s.push(x);
        }
        assert_eq!(s.percentile(50.0), 3.0);
        assert_eq!(s.percentile(0.0), 1.0);
        assert_eq!(s.percentile(100.0), 5.0);
        assert_eq!(s.stats().mean(), 3.0);
        // Pushing after a sort re-dirties the order.
        s.push(0.5);
        assert_eq!(s.percentile(0.0), 0.5);
    }

    #[test]
    fn p2_is_exact_through_five_observations() {
        let mut q = P2Quantile::new(0.5);
        assert_eq!(q.estimate(), 0.0);
        for (i, x) in [9.0, 1.0, 7.0, 3.0, 5.0].iter().enumerate() {
            q.observe(*x);
            let mut sorted: Vec<f64> = [9.0, 1.0, 7.0, 3.0, 5.0][..=i].to_vec();
            sorted.sort_by(f64::total_cmp);
            assert_eq!(q.estimate(), percentile_nearest_rank(&sorted, 50.0), "after {} obs", i + 1);
        }
    }

    #[test]
    fn p2_median_tracks_a_linear_ramp() {
        let mut q = P2Quantile::new(0.5);
        for i in 0..1000 {
            q.observe(f64::from(i));
        }
        let est = q.estimate();
        assert!((est - 500.0).abs() < 25.0, "median estimate {est} too far from 500");
        assert_eq!(q.count(), 1000);
    }

    #[test]
    fn sparkline_scales_to_the_range() {
        assert_eq!(sparkline(&[]), "");
        assert_eq!(sparkline(&[1.0, 1.0]), "▄▄");
        let s = sparkline(&[0.0, 7.0]);
        assert_eq!(s, "▁█");
    }
}
