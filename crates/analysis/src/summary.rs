//! Statistical summaries of measured samples.

/// Summary statistics of a sample of `f64` observations.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Number of observations.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation (0 for fewer than two observations).
    pub stddev: f64,
    /// Minimum observation.
    pub min: f64,
    /// Maximum observation.
    pub max: f64,
    /// Median (50th percentile).
    pub median: f64,
    /// 95th percentile.
    pub p95: f64,
}

impl Summary {
    /// Computes the summary of a sample.  Returns an all-zero summary for an empty
    /// sample.
    pub fn of(samples: &[f64]) -> Summary {
        if samples.is_empty() {
            return Summary {
                count: 0,
                mean: 0.0,
                stddev: 0.0,
                min: 0.0,
                max: 0.0,
                median: 0.0,
                p95: 0.0,
            };
        }
        let count = samples.len();
        let mean = samples.iter().sum::<f64>() / count as f64;
        let var = if count > 1 {
            samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (count as f64 - 1.0)
        } else {
            0.0
        };
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        Summary {
            count,
            mean,
            stddev: var.sqrt(),
            min: sorted[0],
            max: sorted[count - 1],
            median: percentile(&sorted, 0.50),
            p95: percentile(&sorted, 0.95),
        }
    }

    /// Computes the summary of integer observations.
    pub fn of_u64(samples: &[u64]) -> Summary {
        let as_f: Vec<f64> = samples.iter().map(|&x| x as f64).collect();
        Summary::of(&as_f)
    }

    /// 95% confidence half-width of the mean under a normal approximation.
    pub fn ci95_half_width(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            1.96 * self.stddev / (self.count as f64).sqrt()
        }
    }
}

/// Nearest-rank percentile of an already sorted sample.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_known_sample() {
        let s = Summary::of(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert_eq!(s.count, 8);
        assert!((s.mean - 5.0).abs() < 1e-12);
        assert!((s.stddev - 2.138089935299395).abs() < 1e-9);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 9.0);
        assert_eq!(s.median, 4.0);
        assert_eq!(s.p95, 9.0);
        assert!(s.ci95_half_width() > 0.0);
    }

    #[test]
    fn empty_sample_is_all_zero() {
        let s = Summary::of(&[]);
        assert_eq!(s.count, 0);
        assert_eq!(s.mean, 0.0);
        assert_eq!(s.ci95_half_width(), 0.0);
    }

    #[test]
    fn single_sample_has_no_deviation() {
        let s = Summary::of(&[3.5]);
        assert_eq!(s.count, 1);
        assert_eq!(s.mean, 3.5);
        assert_eq!(s.stddev, 0.0);
        assert_eq!(s.median, 3.5);
    }

    #[test]
    fn integer_samples() {
        let s = Summary::of_u64(&[1, 2, 3, 4, 100]);
        assert_eq!(s.count, 5);
        assert_eq!(s.max, 100.0);
        assert_eq!(s.median, 3.0);
    }

    #[test]
    fn percentile_nearest_rank() {
        let sorted = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0];
        assert_eq!(percentile(&sorted, 0.10), 1.0);
        assert_eq!(percentile(&sorted, 0.50), 5.0);
        assert_eq!(percentile(&sorted, 0.95), 10.0);
        assert_eq!(percentile(&sorted, 1.0), 10.0);
    }
}
