//! The noisy-scheduling timing model (§3.1).
//!
//! The paper's adversary chooses, for each process `i`, a starting time
//! `Δ_i0`, a non-negative delay `Δ_ij ≤ M` before each operation, and
//! the noise law of the i.i.d. extra delays `X_ij` (one per operation
//! type, restricted only to non-negative, non-degenerate laws). The
//! experiments set less of it, and so does this model:
//!
//! 1. every process starts at [`start_time`]: time 0 plus a uniform
//!    dither below `1e-8`, the Figure 1 setting;
//! 2. the delays `Δ_ij` are [`DelayPolicy`]: none, or §10's
//!    save-and-spend statistical adversary;
//! 3. reads and writes draw `X_ij` from one [`Noise`].
//!
//! With random halting failures (§3.1.2), each operation additionally
//! carries `H_ij ∈ {0, ∞}` with `P[H_ij = ∞] = h(n)` ([`FailureModel`]).
//! The time of process `i`'s `j`-th operation is
//! `S'_ij = Δ_i0 + Σ_{k≤j} (Δ_ik + X_ik + H_ik)`; once any `H` is
//! infinite, the process never performs another operation.
//!
//! [`TimingModel`] bundles the delays, the noise and the failures. The
//! discrete-event engine holds one per simulation, calls [`start_time`]
//! once per process and draws `Δ_ij + X_ij + H_ij` once per operation.

use rand::{Rng, RngExt};

use crate::noise::Noise;

/// Width of the uniform window every start time falls in. The paper's
/// Figure 1 simulations dither a common start by `1e-8` to rule out
/// simultaneous operations.
const START_DITHER: f64 = 1e-8;

/// Draws a process's starting time `Δ_i0`: time 0 plus a uniform dither
/// in `[0, 1e-8)`, one draw from `rng` (the engine passes the process's
/// own start-time stream).
pub fn start_time<R: Rng>(rng: &mut R) -> f64 {
    START_DITHER * rng.random::<f64>()
}

/// The adversary's per-operation delays `Δ_ij`.
///
/// These are the *deterministic* part of the schedule — the paper's
/// analysis must hold for every choice here.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub enum DelayPolicy {
    /// No adversarial delay (`Δ_ij = 0`): pure noise.
    #[default]
    None,
    /// The §10 *statistical adversary*: no per-operation bound, only the
    /// budget constraint `Σ_{j≤r} Δ_ij ≤ r·m`. This policy saves its
    /// budget for `period - 1` operations and spends the accumulated
    /// `period · m` in one burst — a Zeno-flavoured schedule the paper
    /// conjectures still yields O(log n) termination (its proof of
    /// Lemma 9 does not cover it).
    SaveAndSpend {
        /// The per-operation *average* budget `m`.
        m: f64,
        /// Burst period in operations (≥ 1): delays `0, …, 0, period·m`.
        period: u64,
    },
}

impl DelayPolicy {
    /// The delay `Δ_ij` before operation number `op_index` (1-based,
    /// matching the paper's `j ≥ 1`) of any process.
    pub fn delta(&self, op_index: u64) -> f64 {
        match *self {
            DelayPolicy::None => 0.0,
            DelayPolicy::SaveAndSpend { m, period } => {
                let p = period.max(1);
                if op_index.is_multiple_of(p) {
                    m * p as f64
                } else {
                    0.0
                }
            }
        }
    }
}

/// Random halting failures: `H_ij = ∞` with probability `h(n)` per
/// operation, independently (§3.1.2).
///
/// The paper's analysis assumes `h(n) = o(1)`; the experiments sweep
/// constants. Adaptive (schedule-dependent) crashes are *not* expressible
/// here by design — they live in [`crate::adversary::CrashAdversary`] and
/// are applied by the engine.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub enum FailureModel {
    /// No random failures (`h(n) = 0`).
    #[default]
    None,
    /// Each operation independently halts the process with probability
    /// `per_op`.
    Random {
        /// The per-operation halting probability `h(n)`, in `[0, 1]`.
        per_op: f64,
    },
}

impl FailureModel {
    /// Samples `H_ij`: `true` means the process halts before this
    /// operation (the operation never occurs).
    ///
    /// # Panics
    ///
    /// Panics if the configured probability is outside `[0, 1]`.
    pub fn halts<R: Rng>(&self, rng: &mut R) -> bool {
        match *self {
            FailureModel::None => false,
            FailureModel::Random { per_op } => {
                assert!(
                    (0.0..=1.0).contains(&per_op),
                    "halting probability must be in [0,1]"
                );
                per_op > 0.0 && rng.random::<f64>() < per_op
            }
        }
    }
}

/// The complete noisy-scheduling timing model: everything the adversary
/// and nature choose about *when* operations happen, besides the common
/// dithered start ([`start_time`]).
///
/// # Example
///
/// ```
/// use nc_sched::{start_time, Noise, TimingModel};
/// use rand::SeedableRng;
///
/// let model = TimingModel::figure1(Noise::Exponential { mean: 1.0 });
/// let mut rng = rand::rngs::SmallRng::seed_from_u64(3);
/// assert!(start_time(&mut rng) < 1e-8);
/// assert!(!model.noise.is_degenerate());
/// ```
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct TimingModel {
    /// Adversarial per-operation delays `Δ_ij`.
    pub delay: DelayPolicy,
    /// Operation noise `X_ij`, the same law for reads and writes.
    pub noise: Noise,
    /// Random halting failures `H_ij`.
    pub failures: FailureModel,
}

impl TimingModel {
    /// The Figure 1 configuration for a given interarrival distribution:
    /// no adversarial delays, no failures.
    pub fn figure1(noise: Noise) -> Self {
        TimingModel {
            delay: DelayPolicy::None,
            noise,
            failures: FailureModel::None,
        }
    }

    /// Replaces the failure model (builder-style).
    pub fn with_failures(mut self, failures: FailureModel) -> Self {
        self.failures = failures;
        self
    }

    /// Replaces the delay policy (builder-style).
    pub fn with_delay(mut self, delay: DelayPolicy) -> Self {
        self.delay = delay;
        self
    }

    /// Draws the time increment `Δ_ij + X_ij + H_ij` for a process's
    /// operation number `op_index` (1-based).
    ///
    /// Returns `None` if the process halts (`H_ij = ∞`); otherwise the
    /// finite increment.
    pub fn op_increment<R: Rng>(
        &self,
        op_index: u64,
        noise_rng: &mut R,
        failure_rng: &mut R,
    ) -> Option<f64> {
        if self.failures.halts(failure_rng) {
            return None;
        }
        Some(self.delay.delta(op_index) + self.noise.sample(noise_rng))
    }
}

impl Default for TimingModel {
    /// The Figure 1 configuration with exponential(1) noise — the
    /// "schedule one uniformly random process per unit time" model.
    fn default() -> Self {
        TimingModel::figure1(Noise::Exponential { mean: 1.0 })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(99)
    }

    #[test]
    fn dithered_starts_are_tiny_and_distinct() {
        let mut r = rng();
        let starts: Vec<f64> = (0..100).map(|_| start_time(&mut r)).collect();
        for &s in &starts {
            assert!((0.0..1e-8).contains(&s));
        }
        let mut sorted = starts.clone();
        sorted.sort_by(f64::total_cmp);
        sorted.dedup();
        assert_eq!(sorted.len(), starts.len(), "dithered starts collided");
    }

    #[test]
    fn save_and_spend_respects_the_statistical_budget() {
        // Σ_{j<=r} Δ_ij <= r·m for every prefix r.
        let policy = DelayPolicy::SaveAndSpend { m: 0.5, period: 8 };
        let mut total = 0.0;
        for op in 1..=200u64 {
            total += policy.delta(op);
            assert!(
                total <= 0.5 * op as f64 + 1e-12,
                "budget violated at op {op}: {total}"
            );
        }
        // And the budget is actually spent (bursts of period·m).
        assert_eq!(policy.delta(8), 4.0);
        assert_eq!(policy.delta(7), 0.0);
    }

    #[test]
    fn delay_policies_respect_bound_m() {
        // Each policy with its model constant `M`; for SaveAndSpend that
        // is the burst size `m · period`.
        let policies = [
            (DelayPolicy::None, 0.0),
            (DelayPolicy::SaveAndSpend { m: 0.5, period: 4 }, 2.0),
        ];
        for (policy, m) in policies {
            for op in 1..20u64 {
                let d = policy.delta(op);
                assert!(d >= 0.0 && d <= m, "{policy:?} delta {d} > M {m}");
            }
        }
    }

    #[test]
    fn failure_model_none_never_halts() {
        let mut r = rng();
        for _ in 0..1000 {
            assert!(!FailureModel::None.halts(&mut r));
        }
    }

    #[test]
    fn failure_model_rate_is_respected() {
        let fm = FailureModel::Random { per_op: 0.1 };
        let mut r = rng();
        let n = 100_000;
        let halts = (0..n).filter(|_| fm.halts(&mut r)).count();
        let frac = halts as f64 / n as f64;
        assert!((frac - 0.1).abs() < 0.01, "halt fraction {frac}");
    }

    #[test]
    fn failure_model_zero_probability_never_halts() {
        let fm = FailureModel::Random { per_op: 0.0 };
        let mut r = rng();
        for _ in 0..1000 {
            assert!(!fm.halts(&mut r));
        }
    }

    #[test]
    #[should_panic(expected = "halting probability")]
    fn failure_model_invalid_probability_panics() {
        FailureModel::Random { per_op: 1.5 }.halts(&mut rng());
    }

    #[test]
    fn op_increment_combines_delay_and_noise() {
        // Period 1 spends the whole budget `m` before every operation.
        let model = TimingModel::figure1(Noise::Constant { value: 1.0 })
            .with_delay(DelayPolicy::SaveAndSpend { m: 0.25, period: 1 });
        let mut nr = rng();
        let mut fr = rng();
        let inc = model.op_increment(1, &mut nr, &mut fr).unwrap();
        assert_eq!(inc, 1.25);
    }

    #[test]
    fn op_increment_none_when_halted() {
        let model = TimingModel::default().with_failures(FailureModel::Random { per_op: 1.0 });
        let mut nr = rng();
        let mut fr = rng();
        assert_eq!(model.op_increment(1, &mut nr, &mut fr), None);
    }

    #[test]
    fn builders_replace_fields() {
        let delay = DelayPolicy::SaveAndSpend { m: 0.5, period: 2 };
        let m = TimingModel::default()
            .with_delay(delay)
            .with_failures(FailureModel::Random { per_op: 0.01 });
        assert_eq!(m.delay, delay);
        assert_eq!(m.failures, FailureModel::Random { per_op: 0.01 });
        assert_eq!(m.noise, TimingModel::default().noise);
    }

    #[test]
    fn default_model_is_figure1_exponential() {
        let m = TimingModel::default();
        assert_eq!(m.noise, Noise::Exponential { mean: 1.0 });
        assert_eq!(m.failures, FailureModel::None);
        assert_eq!(m.delay, DelayPolicy::None);
    }
}
