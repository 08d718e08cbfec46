//! Order statistics for repeated measurements.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the default
//! "exclusive" method), so the spreads this benchmark prints are the same
//! numbers an outside checker computing them in Python would get.

/// Percentiles a timing may be summarised by, lowest first, in per mille so
/// the "samples beyond" count is exact integer arithmetic.
const LADDER_PER_MILLE: [usize; 6] = [500, 750, 900, 950, 990, 999];

/// Samples that must lie beyond a percentile before it is worth reporting.
const MIN_BEYOND: usize = 10;

/// Median, quartiles and the tail percentile of one set of samples.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// The highest ladder percentile with at least ten samples beyond it, as
    /// `(percentile, value)`; `None` below twenty samples.
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    /// Interquartile range as a share of the median (0 when the median is 0).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The three quartile cut points of `values` (exclusive method). A single
/// sample is its own quartiles; an empty slice yields zeros.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let data = sorted(values);
    let ld = data.len();
    match ld {
        0 => return (0.0, 0.0, 0.0),
        1 => return (data[0], data[0], data[0]),
        _ => {}
    }
    let cut = |i: usize| {
        let j = (i * (ld + 1) / 4).clamp(1, ld - 1);
        // Taken after the clamp, so it extrapolates (negative or above 4)
        // at the ends of short inputs exactly as Python does.
        let delta = (i * (ld + 1)) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// The median of `values` (0 for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// The highest ladder percentile that leaves at least ten of `n` samples
/// beyond it.
pub fn tail_percentile(n: usize) -> Option<f64> {
    LADDER_PER_MILLE
        .iter()
        .rev()
        .find(|&&p| n * (1000 - p) / 1000 >= MIN_BEYOND)
        .map(|&p| p as f64 / 10.0)
}

/// Nearest-rank percentile `p` (0–100) of `values`.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let data = sorted(values);
    if data.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * data.len() as f64).ceil() as usize;
    data[rank.clamp(1, data.len()) - 1]
}

/// Summarises `values`.
pub fn summarize(values: &[f64]) -> Summary {
    let (q1, median, q3) = quartiles(values);
    let tail = tail_percentile(values.len()).map(|p| (p, percentile(values, p)));
    Summary { n: values.len(), q1, median, q3, tail }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), (1.5, 4.0, 12.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(39), Some(50.0));
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[5.0], 99.0), 5.0);
    }

    #[test]
    fn summary_reports_spread_and_tail() {
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!(s.n, 40);
        assert_eq!(s.median, 20.5);
        assert_eq!(s.tail, Some((75.0, 30.0)));
        assert!((s.spread() - (s.q3 - s.q1) / 20.5).abs() < 1e-15);
        assert_eq!(summarize(&[0.0, 0.0]).spread(), 0.0);
    }
}
