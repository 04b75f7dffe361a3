//! The benchmark's arithmetic: nearest-rank percentiles, quartiles that
//! match Python's `statistics.quantiles(values, n=4)`, the geometric
//! mean, and the slice-spread rule that flags a metric `unresolved`.
//!
//! Percentiles are given in per-mille (`990` is p99) so that the
//! rank arithmetic stays in integers: `0.99 * 1000.0` is not exactly
//! `990.0` in floating point, and the tail rule below counts samples.

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Tail percentiles the report considers, highest first, in per-mille.
const TAIL_CANDIDATES: [u32; 6] = [999, 990, 950, 900, 750, 500];

/// One-based nearest rank of the `permille` percentile of `n` samples.
fn rank(n: usize, permille: u32) -> usize {
    let r = (permille as usize * n).div_ceil(1000);
    r.clamp(1, n.max(1))
}

/// Nearest-rank percentile of an ascending, non-empty slice.
///
/// # Panics
///
/// Panics on an empty slice: a workload that measured nothing has no
/// latency to report.
pub fn percentile(sorted: &[f64], permille: u32) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), permille) - 1]
}

/// Samples strictly above the nearest-rank `permille` percentile of `n`.
pub fn beyond(n: usize, permille: u32) -> usize {
    if n == 0 {
        return 0;
    }
    n - rank(n, permille)
}

/// The highest percentile (per-mille) with at least [`MIN_BEYOND`]
/// samples beyond it, or `None` when `n` is too small for even the
/// median to qualify.
pub fn tail_percentile(n: usize) -> Option<u32> {
    TAIL_CANDIDATES
        .into_iter()
        .find(|&p| beyond(n, p) >= MIN_BEYOND)
}

/// A per-mille percentile as a label: `999` → `p99.9`, `990` → `p99`.
pub fn percentile_label(permille: u32) -> String {
    if permille.is_multiple_of(10) {
        format!("p{}", permille / 10)
    } else {
        format!("p{}.{}", permille / 10, permille % 10)
    }
}

/// Sorts a copy of `values` ascending (total order, so a stray NaN
/// cannot panic the comparison).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// `(q1, median, q3)` exactly as Python's
/// `statistics.quantiles(values, n=4)` computes them (the default
/// `exclusive` method, including its extrapolation at the ends). A
/// single value is its own three quartiles.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(!values.is_empty(), "quartiles of no values");
    let d = sorted(values);
    let ld = d.len() as i64;
    if ld == 1 {
        return (d[0], d[0], d[0]);
    }
    let m = ld + 1;
    let q = |i: i64| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = i * m - j * 4;
        let (lo, hi) = (d[(j - 1) as usize], d[j as usize]);
        (lo * (4 - delta) as f64 + hi * delta as f64) / 4.0
    };
    (q(1), q(2), q(3))
}

/// The median (Python's `statistics.median`).
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// Interquartile distance as a share of the median — the spread the
/// bounds in `BENCHMARK.json` are compared against. Zero for fewer
/// than two values or a zero median.
pub fn spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let (q1, med, q3) = quartiles(values);
    if med == 0.0 {
        return 0.0;
    }
    (q3 - q1) / med.abs()
}

/// Geometric mean of strictly positive values (`None` if any value is
/// zero or negative, or there are none).
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|v| *v <= 0.0 || !v.is_finite()) {
        return None;
    }
    let mean_ln = values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64;
    Some(mean_ln.exp())
}

/// Whether a metric's per-slice values spread wider than its bound, so
/// a single run cannot tell a change of that size from noise.
pub fn unresolved(slice_values: &[f64], bound: f64) -> bool {
    slice_values.len() >= 2 && spread(slice_values) > bound
}

/// The distribution of one timing: sample count, quartiles and the
/// highest percentile that has [`MIN_BEYOND`] samples beyond it.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Samples measured.
    pub n: usize,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// `(percentile in per-mille, value)` of the reportable tail.
    pub tail: Option<(u32, f64)>,
}

impl Summary {
    /// Summarises a non-empty sample set.
    pub fn of(values: &[f64]) -> Summary {
        let s = sorted(values);
        let (q1, median, q3) = quartiles(&s);
        let tail = tail_percentile(s.len()).map(|p| (p, percentile(&s, p)));
        Summary {
            n: s.len(),
            q1,
            median,
            q3,
            tail,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        // 1000 samples: exactly 10 beyond p99, 1 beyond p99.9.
        assert_eq!(beyond(1000, 990), 10);
        assert_eq!(beyond(1000, 999), 1);
        assert_eq!(tail_percentile(1000), Some(990));
        // One sample fewer drops p99 to 9 beyond: the rule falls to p95.
        assert_eq!(beyond(999, 990), 9);
        assert_eq!(tail_percentile(999), Some(950));
        assert_eq!(tail_percentile(10_000), Some(999));
        assert_eq!(tail_percentile(200), Some(950));
        assert_eq!(tail_percentile(100), Some(900));
        assert_eq!(tail_percentile(40), Some(750));
        assert_eq!(tail_percentile(20), Some(500));
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(0), None);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 500), 50.0);
        assert_eq!(percentile(&v, 990), 99.0);
        assert_eq!(percentile(&v, 1000), 100.0);
        assert_eq!(percentile(&v, 0), 1.0);
        assert_eq!(percentile(&[7.0], 990), 7.0);
        assert_eq!(percentile_label(990), "p99");
        assert_eq!(percentile_label(999), "p99.9");
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([4, 1, 3, 2], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 1.0, 3.0, 2.0]), (1.25, 2.5, 3.75));
        // Two points extrapolate: quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        assert_eq!(quartiles(&[3.0]), (3.0, 3.0, 3.0));
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
    }

    #[test]
    fn geomean_of_positive_values() {
        let g = geomean(&[1.0, 4.0, 16.0]).unwrap();
        assert!((g - 4.0).abs() < 1e-12, "{g}");
        let g = geomean(&[2.0, 8.0]).unwrap();
        assert!((g - 4.0).abs() < 1e-12, "{g}");
        assert_eq!(geomean(&[3.5]), Some(3.5));
        assert_eq!(geomean(&[]), None);
        assert_eq!(geomean(&[1.0, 0.0]), None);
        assert_eq!(geomean(&[1.0, -2.0]), None);
    }

    #[test]
    fn slice_spread_is_flagged_against_each_bound() {
        // Quartiles of [90, 95, 100, 105, 110] are 92.5 / 100 / 107.5,
        // so the spread is exactly 15% of the median.
        let slices = [100.0, 95.0, 105.0, 90.0, 110.0];
        assert!((spread(&slices) - 0.15).abs() < 1e-12);
        assert!(unresolved(&slices, 0.10));
        assert!(!unresolved(&slices, 0.15));
        assert!(!unresolved(&slices, 0.25));
        // Tight slices resolve under the tightest bound in use.
        assert!(!unresolved(&[100.0, 101.0, 99.0, 100.5, 99.5], 0.05));
        // One slice can never show a spread.
        assert!(!unresolved(&[1.0], 0.0));
    }

    #[test]
    fn summary_reports_count_quartiles_and_tail() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let s = Summary::of(&v);
        assert_eq!(s.n, 1000);
        assert_eq!(s.median, 500.5);
        assert_eq!(s.tail, Some((990, 990.0)));
    }
}
