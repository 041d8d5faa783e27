//! Small statistics over repetition samples: percentile selection, the
//! tail percentile worth reporting, the per-stage fastest total, the geometric mean, and the attempted/failed tally behind `failed_ratio`.

/// The `p`-th percentile (0..=100) of `values` by nearest rank: the
/// smallest sample with at least `p`% of the samples at or below it. The
/// result is always one of the samples, so a median of run times is a
/// time some run actually took. `None` for an empty slice.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// The nearest-rank median (see [`percentile`]).
pub fn median(values: &[f64]) -> Option<f64> {
    percentile(values, 50.0)
}

/// The highest of the tail percentiles 99, 95, 90 and 75 that has at
/// least ten of `n` samples beyond it; `None` for fewer than 40 samples.
pub fn tail_percentile(n: usize) -> Option<f64> {
    [99.0, 95.0, 90.0, 75.0]
        .into_iter()
        .find(|p| n as f64 * (100.0 - p) / 100.0 >= 10.0)
}

/// The sum over stages of each stage's smallest time across samples:
/// `samples[r][j]` is stage `j`'s time in sample `r`. Stages missing from
/// a sample are skipped there; 0 for no samples.
pub fn fastest_total(samples: &[Vec<f64>]) -> f64 {
    let stages = samples.iter().map(Vec::len).max().unwrap_or(0);
    (0..stages)
        .map(|j| {
            samples
                .iter()
                .filter_map(|s| s.get(j).copied())
                .fold(f64::INFINITY, f64::min)
        })
        .sum()
}

/// Geometric mean of positive values; `None` when empty or any value is
/// not positive.
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|&v| v <= 0.0 || !v.is_finite()) {
        return None;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    Some((log_sum / values.len() as f64).exp())
}

/// Operations attempted and failed. A failure is anything the benchmark
/// checks and finds wrong: an error or rejected response, an engine
/// error, an unclean verification, or output that differs between
/// repetitions that must agree.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations among them that failed.
    pub failed: u64,
}

impl Tally {
    /// Records one operation.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Marks an already attempted operation as failed — a repetition
    /// whose output disagrees with the first one.
    pub fn fail_attempted(&mut self) {
        self.failed = (self.failed + 1).min(self.attempted);
    }

    /// Adds another tally.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// `failed / attempted`, 0 when nothing was attempted.
    pub fn failed_ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_selects_by_nearest_rank() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&v, 20.0), Some(1.0));
        assert_eq!(percentile(&v, 21.0), Some(2.0));
        assert_eq!(median(&v), Some(3.0));
        assert_eq!(percentile(&v, 95.0), Some(5.0));
        assert_eq!(percentile(&v, 100.0), Some(5.0));
        // Even counts take the lower middle sample, never an average.
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.0));
        assert_eq!(median(&[7.5]), Some(7.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(39), None);
        assert_eq!(tail_percentile(0), None);
    }

    #[test]
    fn fastest_total_sums_each_stages_minimum() {
        // Contention slowed a different stage in each sample; the fastest
        // total takes every stage from the sample where it ran fastest.
        let samples = vec![
            vec![10.0, 25.0, 5.0],
            vec![14.0, 20.0, 5.5],
            vec![11.0, 21.0, 9.0],
        ];
        assert_eq!(fastest_total(&samples), 10.0 + 20.0 + 5.0);
        assert_eq!(fastest_total(&[vec![7.0]]), 7.0);
        assert_eq!(fastest_total(&[vec![3.0, 4.0], vec![2.0]]), 2.0 + 4.0);
        assert_eq!(fastest_total(&[]), 0.0);
    }

    #[test]
    fn geomean_of_positive_values() {
        let g = geomean(&[1.0, 4.0, 16.0]).unwrap();
        assert!((g - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), None);
        assert_eq!(geomean(&[1.0, 0.0]), None);
    }

    #[test]
    fn failed_ratio_counts_failures_against_attempts() {
        let mut t = Tally::default();
        assert_eq!(t.failed_ratio(), 0.0);
        for ok in [true, true, false, true] {
            t.record(ok);
        }
        assert_eq!((t.attempted, t.failed), (4, 1));
        assert_eq!(t.failed_ratio(), 0.25);

        // A determinism mismatch fails an operation that already counted
        // as attempted; it never adds an attempt or exceeds them.
        t.fail_attempted();
        assert_eq!((t.attempted, t.failed), (4, 2));
        let mut other = Tally::default();
        other.record(true);
        t.merge(other);
        assert_eq!((t.attempted, t.failed), (5, 2));
        for _ in 0..10 {
            t.fail_attempted();
        }
        assert_eq!(t.failed_ratio(), 1.0);
    }
}
