//! The noisy-scheduling timing model (§3.1).
//!
//! The adversary chooses, for each process `i`:
//!
//! 1. an arbitrary starting time `Δ_i0` ([`StartTimes`]);
//! 2. a non-negative delay `Δ_ij ≤ M` before each operation
//!    ([`DelayPolicy`]);
//! 3. the common noise distribution of the i.i.d. extra delays `X_ij`
//!    ([`crate::noise::OpNoise`]; per operation type, not restricted
//!    beyond non-negativity and non-degeneracy).
//!
//! With random halting failures (§3.1.2), each operation additionally
//! carries `H_ij ∈ {0, ∞}` with `P[H_ij = ∞] = h(n)` ([`FailureModel`]).
//! The time of process `i`'s `j`-th operation is
//! `S'_ij = Δ_i0 + Σ_{k≤j} (Δ_ik + X_ik + H_ik)`; once any `H` is
//! infinite, the process never performs another operation.
//!
//! [`TimingModel`] bundles all four choices. The discrete-event engine
//! holds one per simulation and calls [`TimingModel::start_for`] once per
//! process and [`TimingModel::op_increment`] once per operation.

use rand::{Rng, RngExt};

use nc_memory::OpKind;

use crate::noise::{Noise, OpNoise};

/// The adversary's choice of starting times `Δ_i0`.
#[derive(Clone, PartialEq, Debug)]
pub enum StartTimes {
    /// All processes start at time 0, plus an independent uniform dither
    /// in `[0, dither)`. The paper's Figure 1 simulations use
    /// `dither = 1e-8` to rule out simultaneous operations.
    Simultaneous {
        /// Width of the uniform dither window.
        dither: f64,
    },
    /// Process `i` starts at `i · gap`, plus a uniform dither.
    ///
    /// Models staggered arrivals — e.g. one early process racing ahead of
    /// late joiners, the regime where lean-consensus's adaptivity shows.
    Staggered {
        /// Gap between consecutive processes' starts.
        gap: f64,
        /// Width of the uniform dither window.
        dither: f64,
    },
    /// Explicit per-process starting times (the fully general adversary).
    /// Process `i` uses entry `i`; processes beyond the vector start at 0.
    Explicit(Vec<f64>),
}

impl StartTimes {
    /// The paper's Figure 1 setting: common start, `1e-8` dither.
    pub const fn dithered() -> Self {
        StartTimes::Simultaneous { dither: 1e-8 }
    }

    /// Draws the starting time `Δ_i0` for process `pid`.
    pub fn start_for<R: Rng>(&self, pid: usize, rng: &mut R) -> f64 {
        match self {
            StartTimes::Simultaneous { dither } => dither * rng.random::<f64>(),
            StartTimes::Staggered { gap, dither } => {
                pid as f64 * gap + dither * rng.random::<f64>()
            }
            StartTimes::Explicit(starts) => starts.get(pid).copied().unwrap_or(0.0),
        }
    }
}

impl Default for StartTimes {
    fn default() -> Self {
        StartTimes::dithered()
    }
}

/// The adversary's per-operation delays `Δ_ij`, bounded by the model
/// constant `M`.
///
/// These are the *deterministic* part of the schedule — the paper's
/// analysis must hold for every choice here, so the experiment suite
/// exercises several shapes.
#[derive(Clone, PartialEq, Debug, Default)]
pub enum DelayPolicy {
    /// No adversarial delay (`Δ_ij = 0`): pure noise.
    #[default]
    None,
    /// The same fixed delay before every operation of every process.
    Constant {
        /// The delay; also the model bound `M`.
        delta: f64,
    },
    /// Every `period`-th operation of each process suffers an extra
    /// delay — a bursty adversary that stalls processes rhythmically.
    Periodic {
        /// Burst period in operations (≥ 1).
        period: u64,
        /// Extra delay applied on burst operations.
        extra: f64,
    },
    /// A distinct constant delay per process (handicapping chosen
    /// processes). Processes beyond the vector get zero.
    PerProcess(Vec<f64>),
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
    /// The delay `Δ_ij` for process `pid`'s operation number `op_index`
    /// (1-based, matching the paper's `j ≥ 1`).
    pub fn delta(&self, pid: usize, op_index: u64) -> f64 {
        match self {
            DelayPolicy::None => 0.0,
            DelayPolicy::Constant { delta } => *delta,
            DelayPolicy::Periodic { period, extra } => {
                let p = (*period).max(1);
                if op_index.is_multiple_of(p) {
                    *extra
                } else {
                    0.0
                }
            }
            DelayPolicy::PerProcess(deltas) => deltas.get(pid).copied().unwrap_or(0.0),
            DelayPolicy::SaveAndSpend { m, period } => {
                let p = (*period).max(1);
                if op_index.is_multiple_of(p) {
                    *m * p as f64
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
/// and nature choose about *when* operations happen.
///
/// # Example
///
/// ```
/// use nc_sched::{Noise, TimingModel};
/// use rand::SeedableRng;
///
/// let model = TimingModel::figure1(Noise::Exponential { mean: 1.0 });
/// let mut rng = rand::rngs::SmallRng::seed_from_u64(3);
/// let start = model.start.start_for(0, &mut rng);
/// assert!(start < 1e-8);
/// ```
#[derive(Clone, PartialEq, Debug)]
pub struct TimingModel {
    /// Starting times `Δ_i0`.
    pub start: StartTimes,
    /// Adversarial per-operation delays `Δ_ij`.
    pub delay: DelayPolicy,
    /// Operation noise `X_ij`.
    pub noise: OpNoise,
    /// Random halting failures `H_ij`.
    pub failures: FailureModel,
}

impl TimingModel {
    /// The Figure 1 configuration for a given interarrival distribution:
    /// common dithered start, no adversarial delays, no failures.
    pub fn figure1(noise: Noise) -> Self {
        TimingModel {
            start: StartTimes::dithered(),
            delay: DelayPolicy::None,
            noise: OpNoise::same(noise),
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

    /// Draws the starting time `Δ_i0` of process `pid`.
    pub fn start_for<R: Rng>(&self, pid: usize, rng: &mut R) -> f64 {
        self.start.start_for(pid, rng)
    }

    /// Draws the time increment `Δ_ij + X_ij + H_ij` for process `pid`'s
    /// operation number `op_index` (1-based) of kind `kind`.
    ///
    /// Returns `None` if the process halts (`H_ij = ∞`); otherwise the
    /// finite increment.
    pub fn op_increment<R: Rng>(
        &self,
        pid: usize,
        op_index: u64,
        kind: OpKind,
        noise_rng: &mut R,
        failure_rng: &mut R,
    ) -> Option<f64> {
        if self.failures.halts(failure_rng) {
            return None;
        }
        Some(self.delay.delta(pid, op_index) + self.noise.sample(kind, noise_rng))
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
        let st = StartTimes::dithered();
        let mut r = rng();
        let starts: Vec<f64> = (0..100).map(|i| st.start_for(i, &mut r)).collect();
        for &s in &starts {
            assert!((0.0..1e-8).contains(&s));
        }
        let mut sorted = starts.clone();
        sorted.sort_by(f64::total_cmp);
        sorted.dedup();
        assert_eq!(sorted.len(), starts.len(), "dithered starts collided");
    }

    #[test]
    fn staggered_starts_grow_with_pid() {
        let st = StartTimes::Staggered {
            gap: 10.0,
            dither: 0.0,
        };
        let mut r = rng();
        assert_eq!(st.start_for(0, &mut r), 0.0);
        assert_eq!(st.start_for(3, &mut r), 30.0);
    }

    #[test]
    fn explicit_starts_fall_back_to_zero() {
        let st = StartTimes::Explicit(vec![5.0, 7.0]);
        let mut r = rng();
        assert_eq!(st.start_for(0, &mut r), 5.0);
        assert_eq!(st.start_for(1, &mut r), 7.0);
        assert_eq!(st.start_for(2, &mut r), 0.0);
    }

    #[test]
    fn save_and_spend_respects_the_statistical_budget() {
        // Σ_{j<=r} Δ_ij <= r·m for every prefix r.
        let policy = DelayPolicy::SaveAndSpend { m: 0.5, period: 8 };
        let mut total = 0.0;
        for op in 1..=200u64 {
            total += policy.delta(0, op);
            assert!(
                total <= 0.5 * op as f64 + 1e-12,
                "budget violated at op {op}: {total}"
            );
        }
        // And the budget is actually spent (bursts of period·m).
        assert_eq!(policy.delta(0, 8), 4.0);
        assert_eq!(policy.delta(0, 7), 0.0);
    }

    #[test]
    fn delay_policies_respect_bound_m() {
        // Each policy with its model constant `M`; for SaveAndSpend that
        // is the burst size `m · period`.
        let policies = [
            (DelayPolicy::None, 0.0),
            (DelayPolicy::Constant { delta: 0.5 }, 0.5),
            (
                DelayPolicy::Periodic {
                    period: 3,
                    extra: 2.0,
                },
                2.0,
            ),
            (DelayPolicy::PerProcess(vec![0.1, 0.9, 0.4]), 0.9),
            (DelayPolicy::SaveAndSpend { m: 0.5, period: 4 }, 2.0),
        ];
        for (policy, m) in policies {
            for pid in 0..5 {
                for op in 1..20u64 {
                    let d = policy.delta(pid, op);
                    assert!(d >= 0.0 && d <= m, "{policy:?} delta {d} > M {m}");
                }
            }
        }
    }

    #[test]
    fn periodic_delays_hit_every_period() {
        let p = DelayPolicy::Periodic {
            period: 4,
            extra: 1.5,
        };
        assert_eq!(p.delta(0, 4), 1.5);
        assert_eq!(p.delta(0, 8), 1.5);
        assert_eq!(p.delta(0, 5), 0.0);
        // period 0 is clamped to 1 (every op)
        let always = DelayPolicy::Periodic {
            period: 0,
            extra: 1.0,
        };
        assert_eq!(always.delta(0, 1), 1.0);
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
        let model = TimingModel::figure1(Noise::Constant { value: 1.0 })
            .with_delay(DelayPolicy::Constant { delta: 0.25 });
        let mut nr = rng();
        let mut fr = rng();
        let inc = model
            .op_increment(0, 1, OpKind::Read, &mut nr, &mut fr)
            .unwrap();
        assert_eq!(inc, 1.25);
    }

    #[test]
    fn op_increment_none_when_halted() {
        let model = TimingModel::default().with_failures(FailureModel::Random { per_op: 1.0 });
        let mut nr = rng();
        let mut fr = rng();
        assert_eq!(
            model.op_increment(0, 1, OpKind::Write, &mut nr, &mut fr),
            None
        );
    }

    #[test]
    fn builders_replace_fields() {
        let m = TimingModel::default()
            .with_delay(DelayPolicy::Constant { delta: 0.5 })
            .with_failures(FailureModel::Random { per_op: 0.01 });
        assert_eq!(m.delay, DelayPolicy::Constant { delta: 0.5 });
        assert_eq!(m.failures, FailureModel::Random { per_op: 0.01 });
        assert_eq!(m.start, TimingModel::default().start);
    }

    #[test]
    fn default_model_is_figure1_exponential() {
        let m = TimingModel::default();
        assert_eq!(
            m.noise.for_kind(OpKind::Read),
            &Noise::Exponential { mean: 1.0 }
        );
        assert_eq!(m.failures, FailureModel::None);
        assert_eq!(m.delay, DelayPolicy::None);
    }
}
