//! Noise distributions for the noisy-scheduling model (§3.1, §9).
//!
//! The model places almost no restriction on the common distribution `F`
//! of the per-operation delays `X_ij`: it must produce non-negative values
//! and must not be concentrated on a point. This module implements every
//! distribution the paper uses:
//!
//! * the six interarrival distributions of the **Figure 1** simulations
//!   ([`Noise::figure1_suite`]);
//! * the **two-point** distribution `{1, 2}` of the Ω(log n) lower bound
//!   (Theorem 13);
//! * the **pathological** distribution `X = 2^{k²} w.p. 2^{-k}` of the
//!   unfairness result (Theorem 1);
//! * a **constant** (degenerate) distribution, which *violates* the model
//!   assumption and exists to demonstrate why the assumption is needed
//!   (lockstep executions never terminate).

use std::fmt;

use rand::{Rng, RngExt};

/// Cap on `k` for [`Noise::Pathological`]: `2^{30²} = 2^{900}` is the
/// largest representable step before `2^{k²}` overflows `f64`
/// (`2^{31²} = 2^{961}` still fits but leaves no headroom for sums).
pub(crate) const PATHOLOGICAL_MAX_K: u32 = 30;

/// A non-negative delay distribution for operation noise `X_ij`.
///
/// All variants sample non-negative values. [`Noise::is_degenerate`]
/// reports whether the distribution is concentrated on a point (which the
/// model forbids; degenerate variants are provided for adversarial
/// demonstrations only).
///
/// # Example
///
/// ```
/// use nc_sched::Noise;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::SmallRng::seed_from_u64(1);
/// let noise = Noise::Exponential { mean: 1.0 };
/// let x = noise.sample(&mut rng);
/// assert!(x >= 0.0);
/// assert_eq!(noise.mean(), Some(1.0));
/// assert!(!noise.is_degenerate());
/// ```
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Noise {
    /// Exponential with the given mean (a Poisson process with no initial
    /// delay — also equivalent, as the paper notes, to picking one process
    /// uniformly at random per time unit).
    Exponential {
        /// Mean of the distribution (`1/λ`). Must be positive.
        mean: f64,
    },
    /// A fixed delay plus an exponential: the paper's "0.5 + exponential
    /// with mean 0.5" delayed Poisson process.
    DelayedExponential {
        /// The fixed offset added to every sample. Must be non-negative.
        delay: f64,
        /// Mean of the exponential part. Must be positive.
        mean: f64,
    },
    /// Uniform on `[lo, hi)`.
    Uniform {
        /// Inclusive lower endpoint. Must be non-negative.
        lo: f64,
        /// Exclusive upper endpoint. Must exceed `lo`.
        hi: f64,
    },
    /// Two values with equal probability (the paper's `2/3, 4/3` Figure 1
    /// entry and the `{1, 2}` distribution of Theorem 13).
    TwoPoint {
        /// First value. Must be non-negative.
        lo: f64,
        /// Second value. Must be non-negative.
        hi: f64,
    },
    /// Geometric on `{1, 2, 3, …}` with success probability `p`
    /// (`P[X = k] = p (1-p)^{k-1}`).
    Geometric {
        /// Success probability in `(0, 1)`.
        p: f64,
    },
    /// Normal rejected outside `(lo, hi)` — the paper's "normal with mean
    /// 1 and standard deviation 0.2, rejecting points outside (0, 2)".
    TruncatedNormal {
        /// Mean of the underlying normal.
        mean: f64,
        /// Standard deviation of the underlying normal. Must be positive.
        sd: f64,
        /// Lower rejection bound. Must be non-negative.
        lo: f64,
        /// Upper rejection bound. Must exceed `lo`.
        hi: f64,
    },
    /// A point mass. **Violates** the model's non-degeneracy assumption;
    /// kept for demonstrating lockstep non-termination.
    Constant {
        /// The single value produced. Must be non-negative.
        value: f64,
    },
    /// Theorem 1's unfairness distribution: `X = 2^{k²}` with probability
    /// `2^{-k}` for `k = 1, 2, …`, truncated at `k = max_k` (the leftover
    /// tail mass collapses onto `2^{max_k²}`). Its expectation diverges;
    /// even the truncated version has astronomically heavy tails.
    Pathological {
        /// Truncation point; clamped to `PATHOLOGICAL_MAX_K`.
        max_k: u32,
    },
}

impl Noise {
    /// The six interarrival distributions of Figure 1, in the paper's
    /// listing order (§9), with the paper's labels.
    pub fn figure1_suite() -> [(&'static str, Noise); 6] {
        [
            (
                "normal(1,0.04)",
                Noise::TruncatedNormal {
                    mean: 1.0,
                    sd: 0.2,
                    lo: 0.0,
                    hi: 2.0,
                },
            ),
            (
                "2/3,4/3",
                Noise::TwoPoint {
                    lo: 2.0 / 3.0,
                    hi: 4.0 / 3.0,
                },
            ),
            (
                "0.5 + exponential(0.5)",
                Noise::DelayedExponential {
                    delay: 0.5,
                    mean: 0.5,
                },
            ),
            ("geometric(0.5)", Noise::Geometric { p: 0.5 }),
            ("uniform [0,2]", Noise::Uniform { lo: 0.0, hi: 2.0 }),
            ("exponential(1)", Noise::Exponential { mean: 1.0 }),
        ]
    }

    /// The `{1, 2}` equal-probability distribution used in the Ω(log n)
    /// lower bound of Theorem 13.
    pub const fn theorem13() -> Noise {
        Noise::TwoPoint { lo: 1.0, hi: 2.0 }
    }

    /// Draws one delay.
    ///
    /// # Panics
    ///
    /// Panics if the distribution's parameters are invalid (e.g.
    /// non-positive `mean`, `p` outside `(0, 1)`, `hi <= lo`).
    pub fn sample<R: Rng>(&self, rng: &mut R) -> f64 {
        match *self {
            Noise::Exponential { mean } => {
                assert!(mean > 0.0, "exponential mean must be positive");
                sample_exponential(rng, mean)
            }
            Noise::DelayedExponential { delay, mean } => {
                assert!(delay >= 0.0, "delay must be non-negative");
                assert!(mean > 0.0, "exponential mean must be positive");
                delay + sample_exponential(rng, mean)
            }
            Noise::Uniform { lo, hi } => {
                assert!(lo >= 0.0 && hi > lo, "uniform needs 0 <= lo < hi");
                lo + (hi - lo) * rng.random::<f64>()
            }
            Noise::TwoPoint { lo, hi } => {
                assert!(
                    lo >= 0.0 && hi >= 0.0,
                    "two-point values must be non-negative"
                );
                if rng.random::<bool>() {
                    hi
                } else {
                    lo
                }
            }
            Noise::Geometric { p } => {
                assert!(p > 0.0 && p < 1.0, "geometric p must be in (0,1)");
                sample_geometric(rng, p)
            }
            Noise::TruncatedNormal { mean, sd, lo, hi } => {
                assert!(sd > 0.0, "normal sd must be positive");
                assert!(lo >= 0.0 && hi > lo, "truncation needs 0 <= lo < hi");
                loop {
                    let x = mean + sd * sample_standard_normal(rng);
                    if x > lo && x < hi {
                        return x;
                    }
                }
            }
            Noise::Constant { value } => {
                assert!(value >= 0.0, "constant delay must be non-negative");
                value
            }
            Noise::Pathological { max_k } => {
                let cap = max_k.clamp(1, PATHOLOGICAL_MAX_K);
                // k is geometric(1/2) on {1, 2, ...}, clamped to cap (the
                // clamp collects the truncated tail mass).
                let k = (sample_geometric(rng, 0.5) as u32).min(cap);
                2f64.powi((k * k) as i32)
            }
        }
    }

    /// Draws `out.len()` delays into `out`, identical to calling
    /// [`Noise::sample`] once per slot in order.
    ///
    /// # Panics
    ///
    /// Panics if the distribution's parameters are invalid (same rules
    /// as [`Noise::sample`]).
    pub fn fill<R: Rng>(&self, rng: &mut R, out: &mut [f64]) {
        for slot in out {
            *slot = self.sample(rng);
        }
    }

    /// The distribution's mean, if finite and analytically known.
    ///
    /// [`Noise::Pathological`] returns `None`: its untruncated expectation
    /// `Σ 2^{-k} · 2^{k²}` diverges (Theorem 1).
    pub fn mean(&self) -> Option<f64> {
        match *self {
            Noise::Exponential { mean } => Some(mean),
            Noise::DelayedExponential { delay, mean } => Some(delay + mean),
            Noise::Uniform { lo, hi } => Some((lo + hi) / 2.0),
            Noise::TwoPoint { lo, hi } => Some((lo + hi) / 2.0),
            Noise::Geometric { p } => Some(1.0 / p),
            // The truncation at ±5 sd of the Figure 1 parameters removes
            // negligible, *symmetric* mass, so the mean is (to double
            // precision on symmetric bounds) the normal mean.
            Noise::TruncatedNormal {
                mean,
                sd: _,
                lo,
                hi,
            } => {
                let symmetric = (mean - lo - (hi - mean)).abs() < 1e-12;
                if symmetric {
                    Some(mean)
                } else {
                    None
                }
            }
            Noise::Constant { value } => Some(value),
            Noise::Pathological { .. } => None,
        }
    }

    /// A deterministic per-delay timescale for retry timeouts: the mean
    /// when it is finite and known, otherwise a generous constant.
    ///
    /// The `nc_msg` recovery plane multiplies this by its
    /// `timeout_mult` to decide when an unacknowledged quorum phase is
    /// resent — "delay-distribution-derived" so the same retry policy
    /// adapts across the Figure 1 suite without per-distribution tuning.
    /// Heavy-tailed distributions with no usable mean (pathological,
    /// asymmetric truncations) fall back to `4.0`, a few multiples of
    /// every Figure 1 mean: timeouts only trigger resends, so a too-short
    /// hint costs duplicate (idempotent) messages, never correctness.
    pub fn timeout_hint(&self) -> f64 {
        self.mean().unwrap_or(4.0)
    }

    /// Whether the distribution is concentrated on a single point — the
    /// one shape the noisy-scheduling model forbids (§3.1).
    pub fn is_degenerate(&self) -> bool {
        match *self {
            Noise::Constant { .. } => true,
            Noise::Uniform { lo, hi } => hi <= lo,
            Noise::TwoPoint { lo, hi } => lo == hi,
            _ => false,
        }
    }
}

impl fmt::Display for Noise {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Noise::Exponential { mean } => write!(f, "exponential({mean})"),
            Noise::DelayedExponential { delay, mean } => {
                write!(f, "{delay} + exponential({mean})")
            }
            Noise::Uniform { lo, hi } => write!(f, "uniform[{lo},{hi}]"),
            Noise::TwoPoint { lo, hi } => write!(f, "twopoint{{{lo},{hi}}}"),
            Noise::Geometric { p } => write!(f, "geometric({p})"),
            Noise::TruncatedNormal { mean, sd, lo, hi } => {
                write!(f, "normal({mean},{}) on ({lo},{hi})", sd * sd)
            }
            Noise::Constant { value } => write!(f, "constant({value})"),
            Noise::Pathological { max_k } => write!(f, "pathological(k<={max_k})"),
        }
    }
}

fn sample_exponential<R: Rng>(rng: &mut R, mean: f64) -> f64 {
    // Inverse CDF; 1 - u in (0, 1] avoids ln(0).
    let u: f64 = rng.random();
    -mean * (1.0 - u).ln()
}

fn sample_geometric<R: Rng>(rng: &mut R, p: f64) -> f64 {
    // Inverse CDF on {1, 2, ...}: k = ceil(ln(1-u) / ln(1-p)).
    let u: f64 = rng.random();
    let k = ((1.0 - u).ln() / (1.0 - p).ln()).ceil();
    k.max(1.0)
}

fn sample_standard_normal<R: Rng>(rng: &mut R) -> f64 {
    // Box–Muller; u1 in (0, 1] avoids ln(0).
    let u1: f64 = 1.0 - rng.random::<f64>();
    let u2: f64 = rng.random();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    /// Theorem 1's distribution at the default truncation.
    const PATHOLOGICAL: Noise = Noise::Pathological {
        max_k: PATHOLOGICAL_MAX_K,
    };

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(0xC0FFEE)
    }

    fn sample_mean(noise: Noise, n: usize) -> f64 {
        let mut r = rng();
        (0..n).map(|_| noise.sample(&mut r)).sum::<f64>() / n as f64
    }

    #[test]
    fn all_figure1_distributions_are_valid_for_the_model() {
        for (name, noise) in Noise::figure1_suite() {
            assert!(!noise.is_degenerate(), "{name} is degenerate");
            let mut r = rng();
            for _ in 0..1000 {
                let x = noise.sample(&mut r);
                assert!(x >= 0.0, "{name} sampled negative {x}");
                assert!(x.is_finite(), "{name} sampled non-finite {x}");
            }
        }
    }

    #[test]
    fn figure1_means_match_the_paper() {
        // Five of the six Figure 1 distributions have mean 1; the
        // geometric(0.5) entry has mean 1/p = 2.
        for (name, noise) in Noise::figure1_suite() {
            let expected = if name == "geometric(0.5)" { 2.0 } else { 1.0 };
            assert_eq!(noise.mean(), Some(expected), "{name} mean");
        }
    }

    #[test]
    fn empirical_means_match_analytic_means() {
        let cases = [
            Noise::Exponential { mean: 1.0 },
            Noise::Exponential { mean: 2.5 },
            Noise::DelayedExponential {
                delay: 0.5,
                mean: 0.5,
            },
            Noise::Uniform { lo: 0.0, hi: 2.0 },
            Noise::TwoPoint {
                lo: 2.0 / 3.0,
                hi: 4.0 / 3.0,
            },
            Noise::Geometric { p: 0.5 },
            Noise::Geometric { p: 0.1 },
            Noise::TruncatedNormal {
                mean: 1.0,
                sd: 0.2,
                lo: 0.0,
                hi: 2.0,
            },
            Noise::Constant { value: 3.25 },
        ];
        for noise in cases {
            let analytic = noise.mean().unwrap();
            let empirical = sample_mean(noise, 200_000);
            let tol = 0.02 * analytic.max(1.0);
            assert!(
                (empirical - analytic).abs() < tol,
                "{noise}: empirical {empirical} vs analytic {analytic}"
            );
        }
    }

    #[test]
    fn uniform_stays_in_range() {
        let noise = Noise::Uniform { lo: 0.25, hi: 0.75 };
        let mut r = rng();
        for _ in 0..10_000 {
            let x = noise.sample(&mut r);
            assert!((0.25..0.75).contains(&x));
        }
    }

    #[test]
    fn two_point_produces_both_values_roughly_evenly() {
        let noise = Noise::TwoPoint { lo: 1.0, hi: 2.0 };
        let mut r = rng();
        let n = 100_000;
        let his = (0..n).filter(|_| noise.sample(&mut r) == 2.0).count();
        let frac = his as f64 / n as f64;
        assert!((frac - 0.5).abs() < 0.01, "hi fraction {frac}");
    }

    #[test]
    fn geometric_support_is_positive_integers() {
        let noise = Noise::Geometric { p: 0.5 };
        let mut r = rng();
        for _ in 0..10_000 {
            let x = noise.sample(&mut r);
            assert!(x >= 1.0);
            assert_eq!(x.fract(), 0.0, "geometric sampled non-integer {x}");
        }
    }

    #[test]
    fn geometric_pmf_shape() {
        // P[X = 1] should be ~p, P[X = 2] ~ p(1-p).
        let noise = Noise::Geometric { p: 0.5 };
        let mut r = rng();
        let n = 100_000;
        let mut ones = 0;
        let mut twos = 0;
        for _ in 0..n {
            match noise.sample(&mut r) as u64 {
                1 => ones += 1,
                2 => twos += 1,
                _ => {}
            }
        }
        assert!((ones as f64 / n as f64 - 0.5).abs() < 0.01);
        assert!((twos as f64 / n as f64 - 0.25).abs() < 0.01);
    }

    #[test]
    fn truncated_normal_respects_bounds() {
        let noise = Noise::TruncatedNormal {
            mean: 1.0,
            sd: 0.8,
            lo: 0.0,
            hi: 2.0,
        };
        let mut r = rng();
        for _ in 0..10_000 {
            let x = noise.sample(&mut r);
            assert!(x > 0.0 && x < 2.0);
        }
    }

    #[test]
    fn truncated_normal_asymmetric_mean_unknown() {
        let noise = Noise::TruncatedNormal {
            mean: 1.0,
            sd: 0.2,
            lo: 0.5,
            hi: 2.0,
        };
        assert_eq!(noise.mean(), None);
    }

    #[test]
    fn pathological_support_is_powers() {
        let noise = PATHOLOGICAL;
        let mut r = rng();
        for _ in 0..10_000 {
            let x = noise.sample(&mut r);
            assert!(x.is_finite());
            // Every sample is 2^{k²}: log2 is a perfect square.
            let l = x.log2().round() as u32;
            let k = (l as f64).sqrt().round() as u32;
            assert_eq!(k * k, l, "sample {x} is not 2^(k^2)");
            assert!((1..=PATHOLOGICAL_MAX_K).contains(&k));
        }
    }

    #[test]
    fn pathological_mean_diverges() {
        assert_eq!(PATHOLOGICAL.mean(), None);
        // Truncated means grow without bound in the truncation point:
        // E[X | k <= K] >= 2^{-K} 2^{K²} = 2^{K² - K}, monotone in K.
        // Check the partial series Σ_{k<=K} 2^{-k} 2^{k²} is strictly
        // increasing and astronomically large already at K = 10.
        let mut partial = 0.0f64;
        let mut last = 0.0f64;
        for k in 1..=10u32 {
            partial += 2f64.powi(-(k as i32)) * 2f64.powi((k * k) as i32);
            assert!(partial > last);
            last = partial;
        }
        assert!(partial > 1e20);
    }

    #[test]
    fn timeout_hint_tracks_the_mean_with_a_heavy_tail_fallback() {
        assert_eq!(Noise::Exponential { mean: 2.5 }.timeout_hint(), 2.5);
        assert_eq!(Noise::Uniform { lo: 0.0, hi: 2.0 }.timeout_hint(), 1.0);
        // No finite/known mean => the fixed fallback.
        assert_eq!(PATHOLOGICAL.timeout_hint(), 4.0);
        assert_eq!(
            Noise::TruncatedNormal {
                mean: 1.0,
                sd: 0.2,
                lo: 0.5,
                hi: 2.0
            }
            .timeout_hint(),
            4.0
        );
    }

    #[test]
    fn constant_is_degenerate() {
        assert!(Noise::Constant { value: 1.0 }.is_degenerate());
        assert!(!Noise::theorem13().is_degenerate());
        assert!(Noise::TwoPoint { lo: 1.0, hi: 1.0 }.is_degenerate());
    }

    #[test]
    fn theorem13_distribution_is_one_or_two() {
        let noise = Noise::theorem13();
        let mut r = rng();
        for _ in 0..1000 {
            let x = noise.sample(&mut r);
            assert!(x == 1.0 || x == 2.0);
        }
    }

    #[test]
    fn fill_matches_sequential_sampling_exactly() {
        let cases = [
            Noise::Exponential { mean: 1.0 },
            Noise::DelayedExponential {
                delay: 0.5,
                mean: 0.5,
            },
            Noise::Uniform { lo: 0.0, hi: 2.0 },
            Noise::TwoPoint {
                lo: 2.0 / 3.0,
                hi: 4.0 / 3.0,
            },
            Noise::Geometric { p: 0.5 },
            Noise::TruncatedNormal {
                mean: 1.0,
                sd: 0.2,
                lo: 0.0,
                hi: 2.0,
            },
            Noise::Constant { value: 1.0 },
            PATHOLOGICAL,
        ];
        for noise in cases {
            let mut a = rng();
            let mut b = rng();
            let sequential: Vec<f64> = (0..257).map(|_| noise.sample(&mut a)).collect();
            let mut batched = vec![0.0; 257];
            // Uneven batch boundaries must not matter.
            noise.fill(&mut b, &mut batched[..100]);
            noise.fill(&mut b, &mut batched[100..103]);
            noise.fill(&mut b, &mut batched[103..]);
            assert_eq!(sequential, batched, "{noise}");
        }
    }

    #[test]
    fn display_formats() {
        assert_eq!(
            Noise::Exponential { mean: 1.0 }.to_string(),
            "exponential(1)"
        );
        assert_eq!(PATHOLOGICAL.to_string(), "pathological(k<=30)");
        assert_eq!(
            Noise::TruncatedNormal {
                mean: 1.0,
                sd: 0.2,
                lo: 0.0,
                hi: 2.0
            }
            .to_string(),
            "normal(1,0.04000000000000001) on (0,2)"
        );
    }

    #[test]
    #[should_panic(expected = "exponential mean must be positive")]
    fn invalid_exponential_panics() {
        Noise::Exponential { mean: 0.0 }.sample(&mut rng());
    }

    #[test]
    #[should_panic(expected = "geometric p must be in (0,1)")]
    fn invalid_geometric_panics() {
        Noise::Geometric { p: 1.0 }.sample(&mut rng());
    }

    #[test]
    fn normal_sampler_moments() {
        let mut r = rng();
        let n = 200_000;
        let xs: Vec<f64> = (0..n).map(|_| sample_standard_normal(&mut r)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((var - 1.0).abs() < 0.02, "var {var}");
    }
}
