//! Exact percentiles over raw samples.
//!
//! Percentiles use the nearest-rank definition on the sorted samples, so
//! every reported value is a latency that was actually observed. A
//! percentile is only trusted when at least [`MIN_BEYOND`] samples lie
//! beyond it; that rule is why the 80 or so delta acks of one
//! `read-write` run report a median and nothing above it.

/// Samples that must lie beyond a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// Percentiles the benchmark may report, in per-mille.
pub const CANDIDATES: [u32; 4] = [500, 900, 990, 999];

/// Nearest rank (1-based) of the `permille` percentile among `n` samples.
fn rank(n: usize, permille: u32) -> usize {
    (permille as usize * n).div_ceil(1000).max(1)
}

/// Samples strictly beyond the `permille` percentile of `n` samples.
pub fn beyond(n: usize, permille: u32) -> usize {
    n - rank(n, permille).min(n)
}

/// The `permille` percentile of ascending `sorted` samples.
///
/// # Panics
/// Panics on an empty slice.
pub fn percentile(sorted: &[f64], permille: u32) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), permille).min(sorted.len()) - 1]
}

/// The highest of [`CANDIDATES`] with at least [`MIN_BEYOND`] samples
/// beyond it among `n`, or `None` when not even the median qualifies.
pub fn highest_supported(n: usize) -> Option<u32> {
    CANDIDATES
        .iter()
        .copied()
        .rev()
        .find(|&p| beyond(n, p) >= MIN_BEYOND)
}

/// Raw samples of one timing, in milliseconds.
#[derive(Debug, Default, Clone)]
pub struct Samples(Vec<f64>);

impl Samples {
    /// Adds one sample.
    pub fn push(&mut self, ms: f64) {
        self.0.push(ms);
    }

    /// Sample count.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Sum of the samples.
    pub fn sum(&self) -> f64 {
        self.0.iter().sum()
    }

    /// Mean, or 0 with no samples.
    pub fn mean(&self) -> f64 {
        if self.0.is_empty() {
            0.0
        } else {
            self.sum() / self.0.len() as f64
        }
    }

    /// The highest percentile above the median that [`highest_supported`]
    /// allows, as `(permille, value)`.
    pub fn tail(&self) -> Option<(u32, f64)> {
        highest_supported(self.len())
            .filter(|&p| p > 500)
            .map(|p| (p, self.percentile(p)))
    }

    /// The `permille` percentile, or 0 with no samples.
    pub fn percentile(&self, permille: u32) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        let mut sorted = self.0.clone();
        sorted.sort_by(f64::total_cmp);
        percentile(&sorted, permille)
    }
}

/// Median of a short list of measurements.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, 500)
}

/// Length of the slices [`median_rate`] splits a phase into, in seconds.
pub const RATE_WINDOW_S: f64 = 1.0;

/// Answers per second over a phase `span` seconds long, as the median
/// of the rates of its consecutive [`RATE_WINDOW_S`] slices (a shorter
/// last slice is dropped). `intervals` are the answers' `(start, end)`
/// in seconds from the start of the phase; an answer counts in each
/// slice by the share of its time spent there, so a slice's rate has no
/// rounding even when it holds only a few answers. A slow stretch of the
/// host moves the result only when it covers half the slices.
pub fn median_rate(intervals: &[(f64, f64)], span: f64) -> f64 {
    let slices = ((span / RATE_WINDOW_S) as usize).max(1);
    let width = span.min(RATE_WINDOW_S);
    let mut done = vec![0.0; slices];
    for &(start, end) in intervals {
        let took = end - start;
        if took <= 0.0 {
            continue;
        }
        let first = (start.max(0.0) / width) as usize;
        for (i, slot) in done.iter_mut().enumerate().skip(first) {
            let (from, to) = (i as f64 * width, (i + 1) as f64 * width);
            if from >= end {
                break;
            }
            *slot += (end.min(to) - start.max(from)).max(0.0) / took;
        }
    }
    let rates: Vec<f64> = done.iter().map(|d| d / width).collect();
    median(&rates)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_are_observed_values() {
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 500), 50.0);
        assert_eq!(percentile(&sorted, 900), 90.0);
        assert_eq!(percentile(&sorted, 990), 99.0);
        assert_eq!(percentile(&sorted, 999), 100.0);
        assert_eq!(percentile(&[7.0], 500), 7.0);
        assert_eq!(percentile(&[7.0], 999), 7.0);
        // Odd count: the median is the middle sample, not an average.
        assert_eq!(percentile(&[1.0, 2.0, 10.0], 500), 2.0);
    }

    #[test]
    fn samples_sort_before_ranking() {
        let mut s = Samples::default();
        for v in [5.0, 1.0, 4.0, 2.0, 3.0] {
            s.push(v);
        }
        assert_eq!(s.percentile(500), 3.0);
        assert_eq!(s.len(), 5);
        assert_eq!(s.mean(), 3.0);
        assert_eq!(median(&[0.3, 0.1, 0.2]), 0.2);
    }

    #[test]
    fn beyond_counts_samples_above_the_rank() {
        assert_eq!(beyond(100, 900), 10);
        assert_eq!(beyond(99, 900), 9);
        assert_eq!(beyond(1000, 990), 10);
        assert_eq!(beyond(20, 500), 10);
        assert_eq!(beyond(0, 500), 0);
    }

    #[test]
    fn rates_split_answers_across_slices() {
        // Back-to-back 0.4 s answers: 2.5 per second in every slice,
        // although whole answers per slice alternate between 2 and 3.
        let loop_: Vec<(f64, f64)> = (0..25)
            .map(|i| (0.4 * i as f64, 0.4 * (i + 1) as f64))
            .collect();
        assert!((median_rate(&loop_, 10.0) - 2.5).abs() < 1e-9);
        // Two connections, 0.1 s per answer: 20 per second.
        let two: Vec<(f64, f64)> = (0..100)
            .flat_map(|i| [(0.1 * i as f64, 0.1 * (i + 1) as f64); 2])
            .collect();
        assert!((median_rate(&two, 10.0) - 20.0).abs() < 1e-9);
        // A slow stretch covering fewer than half the slices is ignored.
        let mut slow = loop_.clone();
        slow.truncate(10); // 4 s at 2.5/s ...
        slow.push((4.0, 7.0)); // ... 3 s for one answer ...
        slow.extend((0..8).map(|i| (7.0 + 0.4 * i as f64, 7.4 + 0.4 * i as f64)));
        assert!((median_rate(&slow, 10.0) - 2.5).abs() < 1e-9);
        // Only the part of an answer inside the phase counts.
        assert!((median_rate(&[(-1.0, 1.0)], 1.0) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn highest_supported_needs_ten_samples_beyond() {
        assert_eq!(highest_supported(19), None);
        assert_eq!(highest_supported(20), Some(500));
        assert_eq!(highest_supported(99), Some(500));
        assert_eq!(highest_supported(100), Some(900));
        assert_eq!(highest_supported(999), Some(900));
        assert_eq!(highest_supported(1000), Some(990));
        assert_eq!(highest_supported(10_000), Some(999));
    }
}
