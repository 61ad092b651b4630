//! Statistical checks of the paper's quantitative claims, at test-suite
//! scale (the full-scale versions with tables live in `nc-bench`).
//!
//! All seeds are pinned and tolerances generous: these tests check
//! *shapes* (logarithmic growth, constant bounds, tail decay), not exact
//! constants.

use noisy_consensus::engine::setup::{self, Algorithm};
use noisy_consensus::engine::{Limits, RunOutcome};
use noisy_consensus::sched::hybrid::{HybridSpec, WritePreemptor};
use noisy_consensus::sched::{FailureModel, Noise, TimingModel};
use noisy_consensus::theory::{fit_log2, run_race, OnlineStats, RaceConfig, RaceOutcome};
use noisy_consensus::Sim;

fn mean_first_round(noise: Noise, n: usize, trials: u64, seed0: u64) -> f64 {
    let rounds = Sim::new(Algorithm::Lean)
        .inputs(setup::half_and_half(n))
        .timing(TimingModel::figure1(noise))
        .limits(Limits::first_decision())
        .trials(trials)
        .seed0(seed0)
        .map(|report| report.first_decision_round.expect("must terminate") as f64);
    let mut stats = OnlineStats::new();
    for r in rounds {
        stats.push(r);
    }
    stats.mean()
}

/// Theorem 12's shape: mean rounds grow like a + b·log₂ n with b > 0 and
/// a good logarithmic fit.
#[test]
fn theorem12_logarithmic_growth() {
    let mut points = Vec::new();
    for &n in &[2usize, 8, 32, 128, 512] {
        points.push((
            n as f64,
            mean_first_round(Noise::Exponential { mean: 1.0 }, n, 60, 0xA11CE),
        ));
    }
    let fit = fit_log2(&points);
    assert!(fit.slope > 0.05, "no growth: {fit} from {points:?}");
    assert!(fit.r2 > 0.7, "poor log fit: {fit} from {points:?}");
    // Small constants, per §9: even at n = 512 the mean should be tiny.
    assert!(points.last().unwrap().1 < 15.0, "{points:?}");
}

/// Theorem 12 with failures: h(n) > 0 still terminates (survivors race).
#[test]
fn theorem12_with_random_failures() {
    let trials = 40;
    let inputs = setup::half_and_half(32);
    let decided: usize = Sim::new(Algorithm::Lean)
        .inputs(inputs.clone())
        .timing(
            TimingModel::figure1(Noise::Exponential { mean: 1.0 })
                .with_failures(FailureModel::Random { per_op: 0.01 }),
        )
        .trials(trials)
        .map(|report| {
            report.check_safety(&inputs).unwrap();
            usize::from(report.decided_count() > 0)
        })
        .into_iter()
        .sum();
    // With h = 1%, a 32-process race virtually always produces a winner
    // before extinction.
    assert!(
        decided as u64 >= trials * 9 / 10,
        "only {decided}/{trials} decided"
    );
}

/// Theorem 13's lower-bound mechanism: with the two-point {1,2}
/// distribution, disagreement persists past round k with probability
/// ≈ (1 - (1 - 2^-k)^(n/2))² — in particular the race is measurably
/// slower than with continuous noise.
#[test]
fn theorem13_two_point_is_slowest() {
    // {1, 2} is a pure time-rescaling of the paper's 2/3,4/3 Figure 1
    // entry, so round counts are directly comparable. The growth in n is
    // real but shallow (≈ +1 round across two orders of magnitude), so
    // measure a wide range with enough trials to resolve it.
    let n = 512;
    let two_point = mean_first_round(Noise::theorem13(), n, 200, 0xB0B);
    let exponential = mean_first_round(Noise::Exponential { mean: 1.0 }, n, 200, 0xB0B);
    assert!(
        two_point > exponential + 1.0,
        "two-point {two_point} should be well above exponential {exponential}"
    );
    // And it grows with n (the Ω(log n) direction).
    let small = mean_first_round(Noise::theorem13(), 2, 200, 0xB0B);
    assert!(two_point > small + 0.3, "no growth: {small} -> {two_point}");
}

/// Theorem 14: quantum ≥ 8 ⇒ ≤ 12 ops per process, adversarial
/// preemption included, across sizes and initial-quantum burns.
#[test]
fn theorem14_bound_is_hard() {
    for n in [2usize, 3, 5, 8] {
        for burn in [0u32, 4, 8] {
            let inputs = setup::alternating(n);
            let spec = HybridSpec::uniform(n, 8).with_initial_used(vec![burn; n]);
            let report = Sim::new(Algorithm::Lean)
                .inputs(inputs)
                .hybrid(spec, |_| WritePreemptor)
                .build()
                .run(0);
            assert_eq!(report.outcome, RunOutcome::AllDecided, "n={n} burn={burn}");
            assert!(
                report.ops.iter().all(|&o| o <= 12),
                "n={n} burn={burn}: ops {:?}",
                report.ops
            );
        }
    }
}

/// Theorem 15: expected ops of the bounded protocol stay within a small
/// constant factor of plain lean under noise.
#[test]
fn theorem15_bounded_costs_constant_factor() {
    let n = 16;
    let r_max = noisy_consensus::core::bounded::recommended_r_max(n);
    let timing = TimingModel::figure1(Noise::Exponential { mean: 1.0 });
    let trials = 30;
    let inputs = setup::half_and_half(n);
    let total_ops = |alg: Algorithm| {
        Sim::new(alg)
            .inputs(inputs.clone())
            .timing(timing)
            .trials(trials)
            .map(|report| {
                report.check_safety(&inputs).unwrap();
                report.total_ops as f64
            })
    };
    let mut lean_ops = OnlineStats::new();
    let mut bounded_ops = OnlineStats::new();
    for x in total_ops(Algorithm::Lean) {
        lean_ops.push(x);
    }
    for x in total_ops(Algorithm::Bounded { r_max }) {
        bounded_ops.push(x);
    }
    // Identical seeds, identical timing: the bounded run should cost
    // exactly the same while the cutoff never fires.
    assert!(
        bounded_ops.mean() <= lean_ops.mean() * 1.05 + 8.0,
        "bounded {bounded_ops} vs lean {lean_ops}"
    );
}

/// Corollary 11 on the abstract race: E[R] fits a + b·log₂ n, and the
/// empirical tail decays fast (p99 within a small multiple of the mean).
#[test]
fn corollary11_race_statistics() {
    let mut points = Vec::new();
    for &n in &[4usize, 16, 64, 256] {
        let cfg = RaceConfig::new(n, Noise::Uniform { lo: 0.0, hi: 2.0 });
        let mut stats = OnlineStats::new();
        for seed in 0..80 {
            match run_race(&cfg, seed) {
                RaceOutcome::Winner { round, .. } => stats.push(round as f64),
                other => panic!("race must end: {other:?}"),
            }
        }
        points.push((n as f64, stats.mean()));
    }
    let fit = fit_log2(&points);
    assert!(fit.slope > 0.0, "{fit}");
    assert!(points[3].1 < 30.0, "{points:?}");
}

/// The ablation the paper predicts (§4): skipping "superfluous"
/// operations slows termination (in rounds) under noisy scheduling.
#[test]
fn ablation_skipping_is_slower_in_rounds() {
    let n = 64;
    let trials = 60;
    let timing = TimingModel::figure1(Noise::Exponential { mean: 1.0 });
    let first_rounds = |alg: Algorithm| {
        Sim::new(alg)
            .inputs(setup::half_and_half(n))
            .timing(timing)
            .limits(Limits::first_decision())
            .trials(trials)
            .map(|report| report.first_decision_round.unwrap() as f64)
    };
    let mut lean = OnlineStats::new();
    let mut skipping = OnlineStats::new();
    for x in first_rounds(Algorithm::Lean) {
        lean.push(x);
    }
    for x in first_rounds(Algorithm::Skipping) {
        skipping.push(x);
    }
    assert!(
        skipping.mean() > lean.mean(),
        "paper's paradox not reproduced: lean {lean} vs skipping {skipping}"
    );
}
