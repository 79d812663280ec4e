//! Order statistics for the benchmark's reports.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (its
//! default "exclusive" method), so the quartiles this benchmark prints
//! for one run's samples are computed exactly the way a reader would
//! recompute them across runs.

/// Median, quartiles and sample count of one sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// Summarise `values` (any order). `None` for an empty set.
    pub fn of(values: &[f64]) -> Option<Self> {
        let sorted = sorted(values);
        let median = median_sorted(&sorted)?;
        let (q1, q3) = match sorted.len() {
            1 => (median, median),
            _ => {
                let q = quantiles_exclusive(&sorted, 4);
                (q[0], q[2])
            }
        };
        Some(Self {
            median,
            q1,
            q3,
            n: sorted.len(),
        })
    }
}

/// `values` sorted ascending; infinities (the latency of a failed
/// request) sort last.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median of an ascending sample set (mean of the two middle values
/// for an even count), as `statistics.median`.
pub fn median_sorted(sorted: &[f64]) -> Option<f64> {
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// The `n - 1` cut points dividing an ascending sample set (at least two
/// values) into `n` groups, by the "exclusive" method of Python's
/// `statistics.quantiles`.
pub fn quantiles_exclusive(sorted: &[f64], n: usize) -> Vec<f64> {
    let ld = sorted.len();
    assert!(ld >= 2 && n >= 1, "quantiles need at least two samples");
    let m = ld + 1;
    (1..n)
        .map(|i| {
            let j = (i * m / n).clamp(1, ld - 1);
            let delta = (i * m) as f64 - (j * n) as f64;
            (sorted[j - 1] * (n as f64 - delta) + sorted[j] * delta) / n as f64
        })
        .collect()
}

/// The nearest-rank `p`-th percentile (0 < p <= 100) of an ascending
/// sample set.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = nearest_rank(p, sorted.len());
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// The 1-based rank of the nearest-rank `p`-th percentile of `n`
/// samples, `ceil(p n / 100)`, immune to the rounding of `p` (99.9 is not
/// exact in binary).
fn nearest_rank(p: f64, n: usize) -> usize {
    (p * n as f64 / 100.0 - 1e-9).ceil() as usize
}

/// Percentiles the report considers, highest first.
const TAIL_LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// The highest percentile of [`TAIL_LADDER`] with at least ten of `n`
/// samples beyond it: the tail a sample set of this size can support.
pub fn supported_tail(n: usize) -> Option<f64> {
    TAIL_LADDER
        .into_iter()
        .find(|&p| n.saturating_sub(nearest_rank(p, n)) >= 10)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_sets() {
        assert_eq!(median_sorted(&[1.0, 2.0, 9.0]), Some(2.0));
        assert_eq!(median_sorted(&[1.0, 2.0, 4.0, 9.0]), Some(3.0));
        assert_eq!(median_sorted(&[]), None);
    }

    /// Reference values from CPython 3.11:
    /// `statistics.quantiles([1, 2, ..., 10], n=4)` is
    /// `[2.75, 5.5, 8.25]`, and for `[3, 1, 4, 1, 5]` it is `[1.0, 3.0, 4.5]`.
    #[test]
    fn quartiles_match_python_exclusive_method() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantiles_exclusive(&ten, 4), vec![2.75, 5.5, 8.25]);
        let s = Summary::of(&[3.0, 1.0, 4.0, 1.0, 5.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3, s.n), (1.0, 3.0, 4.5, 5));
        // Two samples extrapolate past the end points, as in CPython.
        assert_eq!(quantiles_exclusive(&[1.0, 2.0], 4), vec![0.75, 1.5, 2.25]);
    }

    #[test]
    fn single_sample_summary_is_degenerate() {
        let s = Summary::of(&[7.5]).unwrap();
        assert_eq!((s.q1, s.median, s.q3, s.n), (7.5, 7.5, 7.5, 1));
        assert_eq!(Summary::of(&[]), None);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&hundred, 99.0), Some(99.0));
        assert_eq!(percentile_sorted(&hundred, 50.0), Some(50.0));
        assert_eq!(percentile_sorted(&[4.0], 99.0), Some(4.0));
        // A failed request's infinite latency sorts last and shows in
        // the tail instead of being dropped.
        let with_failure = sorted(&[f64::INFINITY, 1.0, 2.0]);
        assert_eq!(percentile_sorted(&with_failure, 99.0), Some(f64::INFINITY));
    }

    #[test]
    fn supported_tail_keeps_ten_samples_beyond_it() {
        assert_eq!(supported_tail(10), None);
        assert_eq!(supported_tail(20), Some(50.0));
        assert_eq!(supported_tail(40), Some(75.0));
        assert_eq!(supported_tail(100), Some(90.0));
        assert_eq!(supported_tail(999), Some(95.0));
        assert_eq!(supported_tail(1000), Some(99.0));
        assert_eq!(supported_tail(10_000), Some(99.9));
    }
}
