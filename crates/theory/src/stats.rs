//! Statistics used by the experiment harness.
//!
//! Nothing here is exotic: Welford's online algorithm for stable means
//! and variances, order statistics, normal-approximation confidence
//! intervals, and ordinary least squares against `log₂ n` — the
//! functional form of every `Θ(log n)` claim in the paper.

use std::fmt;

/// Streaming mean/variance/extrema via Welford's algorithm.
///
/// ```
/// use nc_theory::OnlineStats;
/// let mut s = OnlineStats::new();
/// for x in [1.0, 2.0, 3.0, 4.0] {
///     s.push(x);
/// }
/// assert_eq!(s.count(), 4);
/// assert!((s.mean() - 2.5).abs() < 1e-12);
/// assert!((s.sample_var() - 5.0 / 3.0).abs() < 1e-12);
/// ```
#[derive(Clone, Copy, Debug, Default)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// An empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds an observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 for an empty accumulator).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Unbiased sample variance (0 with fewer than two observations).
    pub fn sample_var(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub(crate) fn sample_sd(&self) -> f64 {
        self.sample_var().sqrt()
    }

    /// Standard error of the mean.
    pub(crate) fn stderr(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.sample_sd() / (self.n as f64).sqrt()
        }
    }

    /// Normal-approximation 95% confidence half-width for the mean.
    pub fn ci95(&self) -> f64 {
        1.96 * self.stderr()
    }

    /// Largest observation (`-∞` when empty).
    pub fn max(&self) -> f64 {
        self.max
    }
}

impl fmt::Display for OnlineStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:.4} ± {:.4} (n={}, min={:.4}, max={:.4})",
            self.mean(),
            self.ci95(),
            self.n,
            self.min,
            self.max
        )
    }
}

/// The `q`-quantile (0 ≤ q ≤ 1) of a sample, by linear interpolation on
/// the sorted order statistics.
///
/// # Panics
///
/// Panics if `samples` is empty or `q` is outside `[0, 1]`.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of an empty sample");
    assert!((0.0..=1.0).contains(&q), "q must be in [0,1], got {q}");
    let mut sorted: Vec<f64> = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = pos - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// A least-squares fit of `y = intercept + slope · log₂(n)`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LogFit {
    /// The fitted intercept `a`.
    pub intercept: f64,
    /// The fitted slope `b` — the per-doubling growth; `Θ(log n)` claims
    /// predict a positive, stable `b`.
    pub slope: f64,
    /// The coefficient of determination on the transformed axis.
    pub r2: f64,
}

impl fmt::Display for LogFit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "y = {:.3} + {:.3}·log2(n)  (R² = {:.3})",
            self.intercept, self.slope, self.r2
        )
    }
}

/// Fits `y = a + b·log₂(n)` to `(n, y)` points by ordinary least squares.
///
/// # Panics
///
/// Panics if fewer than two points are supplied or any `n ≤ 0`.
pub fn fit_log2(points: &[(f64, f64)]) -> LogFit {
    assert!(points.len() >= 2, "need at least two points to fit");
    let xs: Vec<f64> = points
        .iter()
        .map(|&(n, _)| {
            assert!(n > 0.0, "n must be positive, got {n}");
            n.log2()
        })
        .collect();
    let ys: Vec<f64> = points.iter().map(|&(_, y)| y).collect();
    let m = xs.len() as f64;
    let mean_x = xs.iter().sum::<f64>() / m;
    let mean_y = ys.iter().sum::<f64>() / m;
    let sxy: f64 = xs
        .iter()
        .zip(&ys)
        .map(|(x, y)| (x - mean_x) * (y - mean_y))
        .sum();
    let sxx: f64 = xs.iter().map(|x| (x - mean_x) * (x - mean_x)).sum();
    let slope = if sxx == 0.0 { 0.0 } else { sxy / sxx };
    let intercept = mean_y - slope * mean_x;
    let ss_tot: f64 = ys.iter().map(|y| (y - mean_y) * (y - mean_y)).sum();
    let ss_res: f64 = xs
        .iter()
        .zip(&ys)
        .map(|(x, y)| {
            let fit = intercept + slope * x;
            (y - fit) * (y - fit)
        })
        .sum();
    let r2 = if ss_tot == 0.0 {
        1.0
    } else {
        1.0 - ss_res / ss_tot
    };
    LogFit {
        intercept,
        slope,
        r2,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_stats_are_sane() {
        let s = OnlineStats::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.sample_var(), 0.0);
        assert_eq!(s.stderr(), 0.0);
        assert_eq!(s.min, f64::INFINITY);
        assert_eq!(s.max(), f64::NEG_INFINITY);
    }

    #[test]
    fn single_observation() {
        let mut s = OnlineStats::new();
        s.push(7.0);
        assert_eq!(s.mean(), 7.0);
        assert_eq!(s.sample_var(), 0.0);
        assert_eq!(s.min, 7.0);
        assert_eq!(s.max(), 7.0);
    }

    #[test]
    fn welford_matches_naive() {
        let xs = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0];
        let mut s = OnlineStats::new();
        for &x in &xs {
            s.push(x);
        }
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (xs.len() - 1) as f64;
        assert!((s.mean() - mean).abs() < 1e-12);
        assert!((s.sample_var() - var).abs() < 1e-12);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max(), 9.0);
        assert!(s.ci95() > 0.0);
        assert!(s.to_string().contains("n=8"));
    }

    #[test]
    fn quantiles_interpolate() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert_eq!(quantile(&xs, 0.5), 2.5);
        assert_eq!(quantile(&[5.0], 0.5), 5.0);
    }

    #[test]
    #[should_panic(expected = "empty sample")]
    fn quantile_empty_panics() {
        quantile(&[], 0.5);
    }

    #[test]
    #[should_panic(expected = "must be in [0,1]")]
    fn quantile_bad_q_panics() {
        quantile(&[1.0], 1.5);
    }

    #[test]
    fn perfect_log_fit_recovers_coefficients() {
        let points: Vec<(f64, f64)> = [1.0f64, 2.0, 4.0, 8.0, 16.0, 1024.0]
            .iter()
            .map(|&n| (n, 3.0 + 0.5 * n.log2()))
            .collect();
        let fit = fit_log2(&points);
        assert!((fit.intercept - 3.0).abs() < 1e-9);
        assert!((fit.slope - 0.5).abs() < 1e-9);
        assert!((fit.r2 - 1.0).abs() < 1e-9);
        assert!(fit.to_string().contains("log2"));
    }

    #[test]
    fn flat_data_fits_zero_slope() {
        let points = [(1.0, 5.0), (10.0, 5.0), (100.0, 5.0)];
        let fit = fit_log2(&points);
        assert!(fit.slope.abs() < 1e-12);
        assert!((fit.intercept - 5.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least two points")]
    fn fit_needs_two_points() {
        fit_log2(&[(1.0, 1.0)]);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn fit_rejects_nonpositive_n() {
        fit_log2(&[(0.0, 1.0), (2.0, 2.0)]);
    }

    proptest! {
        #[test]
        fn welford_mean_is_bounded_by_extrema(xs in proptest::collection::vec(-1e6f64..1e6, 1..200)) {
            let mut s = OnlineStats::new();
            for &x in &xs {
                s.push(x);
            }
            prop_assert!(s.mean() >= s.min - 1e-9);
            prop_assert!(s.mean() <= s.max() + 1e-9);
            prop_assert!(s.sample_var() >= 0.0);
        }

        #[test]
        fn quantile_is_monotone_in_q(
            xs in proptest::collection::vec(-1e3f64..1e3, 1..100),
            q1 in 0.0f64..1.0,
            q2 in 0.0f64..1.0,
        ) {
            let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
            prop_assert!(quantile(&xs, lo) <= quantile(&xs, hi) + 1e-12);
        }
    }
}
