//! The optimized engine's oracle-pinning suite: the optimized driver
//! (with or without an empty value-fault spec) must produce
//! **byte identical** [`nc_engine::RunReport`]s to the naive BinaryHeap
//! baseline (`nc_engine::baseline`, the seed implementation)
//! across the full scenario matrix — algorithms × noise distributions ×
//! crash adversaries × failure models × delay policies. The oracle is
//! part of every build, so `cargo test -p nc-engine` runs this suite.

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
use nc_sched::{DelayPolicy, FailureModel, Noise, TimingModel};
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
fn algorithms_by_noise_match_oracle() {
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
fn random_failures_match_oracle() {
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

/// Runs `(alg, inputs, timing, seed)` to completion under the crash
/// adversary `make` builds, recording histories, through the optimized
/// engine and the oracle, and asserts equal reports and equal
/// histories.
fn assert_crashes_match_oracle(
    alg: Algorithm,
    inputs: &[Bit],
    timing: &TimingModel,
    seed: u64,
    make: fn() -> Box<dyn CrashAdversary>,
) {
    let mut scratch = EngineScratch::new();
    let mut inst_opt = setup::build(alg, inputs, seed);
    let mut inst_ref = setup::build(alg, inputs, seed);
    let (mut crash_opt, mut crash_ref) = (make(), make());
    let (mut hist_opt, mut hist_ref) = (Vec::new(), Vec::new());
    let limits = Limits::run_to_completion();
    let optimized = drive_noisy(
        &mut scratch,
        &mut inst_opt,
        timing,
        seed,
        limits,
        Some(crash_opt.as_mut()),
        Some(&mut hist_opt),
    );
    let oracle = run_noisy_with_baseline(
        &mut inst_ref,
        timing,
        seed,
        limits,
        Some(crash_ref.as_mut()),
        Some(&mut hist_ref),
    );
    let case = format!("{alg:?} × crash × {timing:?} × seed {seed}");
    assert_eq!(optimized, oracle, "{case}");
    assert_eq!(hist_opt, hist_ref, "history diverged: {case}");
}

/// Adaptive and scripted crash adversaries, with histories compared
/// event by event.
#[test]
fn crash_adversaries_match_oracle() {
    let timing = TimingModel::figure1(Noise::Exponential { mean: 1.0 });
    let adversaries: [fn() -> Box<dyn CrashAdversary>; 3] = [
        || Box::new(LeaderKiller::new(3, 2)),
        || Box::new(CrashScript::new(vec![(0, 1), (2, 5)])),
        || Box::new(CrashScript::new(vec![(1, 3)])),
    ];
    for make in adversaries {
        for seed in 0..3 {
            let inputs = setup::half_and_half(6);
            assert_crashes_match_oracle(Algorithm::Lean, &inputs, &timing, seed, make);
        }
    }
}

/// Delay policies that read the operation index, on every algorithm and
/// on both loops. Fault-free runs take `loop_fast`, which derives the
/// index from the protocol's `ops_completed()`; random failures, and a
/// crash adversary with history, take the shared step loop, which
/// derives it from its own step count.
#[test]
fn op_index_delays_match_oracle_on_both_loops() {
    for period in [3, 4] {
        let delay = DelayPolicy::SaveAndSpend { m: 0.5, period };
        let timing = TimingModel::figure1(Noise::Exponential { mean: 1.0 }).with_delay(delay);
        let failing = timing.with_failures(FailureModel::Random { per_op: 0.05 });
        for alg in algorithms() {
            let inputs = setup::half_and_half(6);
            for seed in 0..2 {
                let limits = Limits::run_to_completion();
                assert_matches_oracle(alg, &inputs, &timing, seed, limits);
                assert_matches_oracle(alg, &inputs, &failing, seed, limits);
                assert_crashes_match_oracle(alg, &inputs, &timing, seed, || {
                    Box::new(LeaderKiller::new(2, 1))
                });
            }
        }
    }
}

/// Save-and-spend delays on tie-heavy noise: integer-valued draws plus
/// integer bursts keep many processes' clocks a dither apart. None turns
/// on failures, crashes or history, so all run the fast loop.
#[test]
fn fast_loop_timing_configs_match_oracle() {
    let configs = [
        TimingModel::figure1(Noise::Geometric { p: 0.5 })
            .with_delay(DelayPolicy::SaveAndSpend { m: 0.5, period: 4 }),
        TimingModel::figure1(Noise::theorem13())
            .with_delay(DelayPolicy::SaveAndSpend { m: 0.5, period: 2 }),
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
/// carries the oracle-free half of this matrix.)
#[test]
fn fault_free_wrapper_matches_oracle_across_matrix() {
    let timing = TimingModel::figure1(Noise::Uniform { lo: 0.0, hi: 2.0 });
    for alg in algorithms() {
        let inputs = setup::half_and_half(7);
        let wrapped = Sim::new(alg)
            .inputs(inputs.clone())
            .timing(timing)
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
