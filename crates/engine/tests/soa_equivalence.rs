//! The SoA engine's oracle-pinning suite: the optimized driver (SoA
//! scratch, with or without an empty value-fault spec) must produce
//! **byte identical** [`nc_engine::RunReport`]s to the naive BinaryHeap
//! baseline (`nc_engine::baseline`, the untouched seed implementation)
//! across the full scenario matrix — algorithms × noise distributions ×
//! crash adversaries × failure models × delay policies.
//!
//! Runs only with the `baseline` feature (which compiles the oracle
//! into the library): `cargo test -p nc-engine --features baseline`.
//! Workspace-level `cargo test --workspace` also enables it through
//! `nc-bench`'s feature unification; CI carries an explicit
//! `--features baseline` leg so the suite can never silently vanish.

#![cfg(feature = "baseline")]
// This suite pins the public drive internals against the oracle; their
// equivalence to the `sim::Sim` builder is pinned separately by
// `tests/sim_equivalence.rs`, so the chain
// baseline == drive internals == builder stays closed.

use nc_engine::baseline::{run_noisy_baseline, run_noisy_with_baseline};
use nc_engine::noisy::drive_noisy;
use nc_engine::sim::Sim;
use nc_engine::{setup, Algorithm, EngineScratch, Limits, RunReport};
use nc_memory::{Bit, FaultSpec};
use nc_sched::adversary::{CrashAdversary, CrashScript, LeaderKiller};
use nc_sched::{DelayPolicy, FailureModel, Noise, StartTimes, TimingModel};
use proptest::prelude::*;

fn algorithms() -> [Algorithm; 5] {
    [
        Algorithm::Lean,
        Algorithm::Skipping,
        Algorithm::Randomized,
        Algorithm::Bounded { r_max: 8 },
        Algorithm::Backup,
    ]
}

/// Runs `(alg, inputs, timing, seed, limits)` through the optimized
/// engine and asserts the report equals the baseline's.
fn assert_matches_oracle(
    alg: Algorithm,
    inputs: &[Bit],
    timing: &TimingModel,
    seed: u64,
    limits: Limits,
) -> RunReport {
    let mut scratch = EngineScratch::new();
    let mut inst_opt = setup::build(alg, inputs, seed);
    let mut inst_ref = setup::build(alg, inputs, seed);
    let optimized = drive_noisy(
        &mut scratch,
        &mut inst_opt,
        timing,
        seed,
        limits,
        None,
        None,
    );
    let oracle = run_noisy_baseline(&mut inst_ref, timing, seed, limits);
    assert_eq!(optimized, oracle, "{alg:?} × {timing:?} × seed {seed}");
    optimized
}

/// The headline matrix: every algorithm × every Figure 1 noise
/// distribution, run to completion and to first decision.
#[test]
fn algorithms_by_noise_by_queue_match_oracle() {
    for alg in algorithms() {
        for (_, noise) in Noise::figure1_suite() {
            let timing = TimingModel::figure1(noise);
            for seed in 0..2 {
                assert_matches_oracle(
                    alg,
                    &setup::half_and_half(8),
                    &timing,
                    seed,
                    Limits::run_to_completion(),
                );
                assert_matches_oracle(
                    alg,
                    &setup::alternating(6),
                    &timing,
                    seed,
                    Limits::first_decision(),
                );
            }
        }
    }
}

/// Random halting failures (exercises the general loop's stale-event
/// drain and the failure-RNG stream order).
#[test]
fn random_failures_by_queue_match_oracle() {
    let exponential = Noise::Exponential { mean: 1.0 };
    for (noise, per_op) in [
        (exponential, 0.01),
        (exponential, 0.2),
        (exponential, 0.9),
        (Noise::Uniform { lo: 0.0, hi: 2.0 }, 0.05),
    ] {
        let timing = TimingModel::figure1(noise).with_failures(FailureModel::Random { per_op });
        for seed in 0..3 {
            assert_matches_oracle(
                Algorithm::Lean,
                &setup::half_and_half(8),
                &timing,
                seed,
                Limits::run_to_completion(),
            );
        }
    }
}

/// Adaptive and scripted crash adversaries, with histories compared
/// event by event.
#[test]
fn crash_adversaries_by_queue_match_oracle() {
    let timing = TimingModel::figure1(Noise::Exponential { mean: 1.0 });
    type MakeCrash = fn() -> Box<dyn CrashAdversary>;
    let adversaries: [MakeCrash; 3] = [
        || Box::new(LeaderKiller::new(3, 2)),
        || Box::new(CrashScript::new(vec![(0, 1), (2, 5)])),
        || Box::new(CrashScript::new(vec![(1, 3)])),
    ];
    for make in adversaries {
        for seed in 0..3 {
            let inputs = setup::half_and_half(6);
            let mut scratch = EngineScratch::new();
            let mut inst_opt = setup::build(Algorithm::Lean, &inputs, seed);
            let mut inst_ref = setup::build(Algorithm::Lean, &inputs, seed);
            let mut crash_opt = make();
            let mut crash_ref = make();
            let mut hist_opt = Vec::new();
            let mut hist_ref = Vec::new();
            let optimized = drive_noisy(
                &mut scratch,
                &mut inst_opt,
                &timing,
                seed,
                Limits::run_to_completion(),
                Some(crash_opt.as_mut()),
                Some(&mut hist_opt),
            );
            let oracle = run_noisy_with_baseline(
                &mut inst_ref,
                &timing,
                seed,
                Limits::run_to_completion(),
                Some(crash_ref.as_mut()),
                Some(&mut hist_ref),
            );
            assert_eq!(optimized, oracle, "crash × seed {seed}");
            assert_eq!(hist_opt, hist_ref, "history diverged, seed {seed}");
        }
    }
}

/// Per-kind noise (batching disabled), adversarial delay policies, and
/// non-default start times — the shared step loop's sampling paths.
#[test]
fn general_loop_configs_by_queue_match_oracle() {
    let configs = [
        TimingModel {
            start: StartTimes::dithered(),
            delay: DelayPolicy::Periodic {
                period: 3,
                extra: 0.5,
            },
            noise: nc_sched::OpNoise::per_kind(
                Noise::Exponential { mean: 1.0 },
                Noise::Uniform { lo: 0.0, hi: 2.0 },
            ),
            failures: FailureModel::None,
        },
        TimingModel::figure1(Noise::Uniform { lo: 0.0, hi: 2.0 }).with_start(
            StartTimes::Staggered {
                gap: 50.0,
                dither: 0.25,
            },
        ),
        TimingModel::figure1(Noise::Geometric { p: 0.5 })
            .with_delay(DelayPolicy::SaveAndSpend { m: 0.5, period: 4 }),
    ];
    for timing in &configs {
        for seed in 0..2 {
            assert_matches_oracle(
                Algorithm::Lean,
                &setup::half_and_half(9),
                timing,
                seed,
                Limits::run_to_completion(),
            );
        }
    }
}

/// Large first-decision runs stay pinned to the oracle, at the sizes
/// where the engine once switched to a second queue (n = 4096) and
/// perfbench's by-hand `fig1_n8192` workload.
#[test]
fn large_n_matches_oracle() {
    let timing = TimingModel::figure1(Noise::Uniform { lo: 0.0, hi: 2.0 });
    for n in [4096, 8192] {
        let report = assert_matches_oracle(
            Algorithm::Lean,
            &setup::half_and_half(n),
            &timing,
            1,
            Limits::first_decision(),
        );
        assert!(report.first_decision_round.is_some(), "n = {n}");
    }
}

/// The value-fault plane against the oracle: the builder with an
/// armed empty spec must match the naive `SimMemory` baseline
/// bit for bit across algorithms. (`tests/memory_planes.rs`
/// carries the oracle-free half of this matrix so it also runs without
/// `--features baseline`.)
#[test]
fn fault_free_wrapper_matches_oracle_across_matrix() {
    let timing = TimingModel::figure1(Noise::Uniform { lo: 0.0, hi: 2.0 });
    for alg in algorithms() {
        let inputs = setup::half_and_half(7);
        let wrapped = Sim::new(alg)
            .inputs(inputs.clone())
            .timing(timing.clone())
            .value_faults(FaultSpec::new())
            .trials(4)
            .seed0(60)
            .seed_stride(5)
            .threads(1)
            .reports();
        for (t, report) in wrapped.iter().enumerate() {
            let seed = 60 + 5 * t as u64;
            let mut inst = setup::build(alg, &inputs, seed);
            let oracle = run_noisy_baseline(&mut inst, &timing, seed, Limits::run_to_completion());
            assert_eq!(*report, oracle, "faulty-off vs oracle: {alg:?}, trial {t}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random process counts and seeds: the optimized driver's
    /// `RunReport` must equal the oracle's, `max_round` included.
    #[test]
    fn random_n_and_seed_match_oracle(
        seed in 0u64..1000,
        n in 1usize..36,
    ) {
        let timing = TimingModel::figure1(Noise::Uniform { lo: 0.0, hi: 2.0 });
        let inputs = setup::half_and_half(n);
        let mut inst_ref = setup::build(Algorithm::Lean, &inputs, seed);
        let oracle = run_noisy_baseline(&mut inst_ref, &timing, seed, Limits::run_to_completion());

        let mut scratch = EngineScratch::new();
        let mut inst = setup::build(Algorithm::Lean, &inputs, seed);
        let optimized = drive_noisy(
            &mut scratch,
            &mut inst,
            &timing,
            seed,
            Limits::run_to_completion(),
            None,
            None,
        );
        prop_assert_eq!(optimized.max_round, oracle.max_round, "max_round diverged");
        prop_assert_eq!(optimized, oracle);
    }
}
