//! Order statistics: the median/quartile rule shared with the driver, and
//! the "at least ten samples beyond" rule for tail percentiles.

/// Quartiles of `values` by the exclusive method — the same arithmetic as
/// Python's `statistics.quantiles(values, n=4)`, which is what the driver
/// computes spreads with.  Returns `(q1, median, q3)`; a single value is
/// its own quartiles.
///
/// # Panics
/// On an empty slice.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(!values.is_empty(), "quartiles of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let ld = sorted.len();
    if ld == 1 {
        return (sorted[0], sorted[0], sorted[0]);
    }
    let cut = |i: usize| {
        let m = ld + 1;
        let j = (i * m / 4).clamp(1, ld - 1);
        // `delta` may exceed 4 or go negative after the clamp: the
        // endpoints then extrapolate, exactly as the Python version does.
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Median of `values` (the middle quartile).
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// Inter-quartile distance as a share of the median — the spread the
/// driver holds against a metric's bound.
pub fn iqr_share(values: &[f64]) -> f64 {
    let (q1, med, q3) = quartiles(values);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

/// Nearest-rank percentile `p` (0–100) of an ascending-sorted slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Percentiles a report may quote, lowest first, each with the share of
/// samples beyond it in parts per thousand (kept as integers so the
/// ten-samples rule is exact).
const TAIL_LADDER: [(f64, usize); 5] =
    [(75.0, 250), (90.0, 100), (95.0, 50), (99.0, 10), (99.9, 1)];

/// The highest percentile of [`TAIL_LADDER`] that still has at least ten
/// samples beyond it among `n` samples (p95 needs 200, p99 needs 1000);
/// `None` when even p75 does not.
pub fn supported_tail(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .rev()
        .find(|(_, beyond)| n * beyond >= 10_000)
        .map(|&(p, _)| p)
}

/// Sample count, median and quartiles of one timing series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Median.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Summary {
    /// Summarize a non-empty series.
    pub fn of(values: &[f64]) -> Self {
        let (q1, median, q3) = quartiles(values);
        Self {
            n: values.len(),
            median,
            q1,
            q3,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        // statistics.quantiles([10, 20, 30, 100], n=4) == [12.5, 25.0, 82.5]
        assert_eq!(quartiles(&[10.0, 20.0, 30.0, 100.0]), (12.5, 25.0, 82.5));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0, 7.0));
    }

    #[test]
    fn iqr_share_is_relative_to_the_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_share(&v) - 1.0).abs() < 1e-12);
        assert_eq!(iqr_share(&[0.0, 0.0, 0.0]), 0.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 100.0);
        assert_eq!(percentile(&v, 95.0), 190.0);
        assert_eq!(percentile(&v, 100.0), 200.0);
        assert_eq!(percentile(&[5.0], 95.0), 5.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(supported_tail(39), None);
        assert_eq!(supported_tail(40), Some(75.0));
        assert_eq!(supported_tail(99), Some(75.0));
        assert_eq!(supported_tail(100), Some(90.0));
        assert_eq!(supported_tail(199), Some(90.0));
        assert_eq!(supported_tail(200), Some(95.0));
        assert_eq!(supported_tail(999), Some(95.0));
        assert_eq!(supported_tail(1000), Some(99.0));
        assert_eq!(supported_tail(10_000), Some(99.9));
    }
}
