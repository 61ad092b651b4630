//! The engine's oracle-pinning suite: every noisy configuration run
//! through the [`Sim`] builder must produce **byte identical**
//! [`nc_engine::RunReport`]s, and when it records them identical
//! operation histories, to the naive BinaryHeap driver
//! (`nc_engine::baseline`, the seed implementation) across the full
//! scenario matrix — algorithms × noise distributions × crash
//! adversaries × failure models × delay policies × the lockstep op cap ×
//! an empty value-fault spec, at small and large n. Each configuration
//! is built once and run across its seeds, so the pooled scratch and the
//! in-place lean rebuild are pinned along with the drivers. The oracle
//! is part of every build, so `cargo test -p nc-engine` runs this suite.

use std::ops::Range;

use nc_engine::baseline::{run_noisy_baseline, run_noisy_with_baseline};
use nc_engine::sim::Sim;
use nc_engine::{setup, Algorithm, Limits, RunOutcome, RunReport};
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

/// A fresh crash adversary for one run.
type MakeCrash = fn() -> Box<dyn CrashAdversary>;

/// Builds `(alg, inputs, timing, limits)` once, runs it for every seed
/// in `seeds`, and asserts each report equals the oracle's on a fresh
/// instance. Returns the reports.
fn assert_matches_oracle(
    alg: Algorithm,
    inputs: &[Bit],
    timing: &TimingModel,
    seeds: Range<u64>,
    limits: Limits,
) -> Vec<RunReport> {
    let mut sim = Sim::new(alg)
        .inputs(inputs)
        .timing(*timing)
        .limits(limits)
        .build();
    seeds
        .map(|seed| {
            let built = sim.run(seed);
            let mut inst = setup::build(alg, inputs, seed);
            let oracle = run_noisy_baseline(&mut inst, timing, seed, limits);
            assert_eq!(built, oracle, "{alg:?} × {timing:?} × seed {seed}");
            built
        })
        .collect()
}

/// Builds `(alg, inputs, timing)` once with history recording and the
/// crash adversary `make` builds (if any), runs it to completion for
/// every seed in `seeds`, and asserts equal reports and histories, event
/// by event, against the oracle.
fn assert_history_matches_oracle(
    alg: Algorithm,
    inputs: &[Bit],
    timing: &TimingModel,
    seeds: Range<u64>,
    make: Option<MakeCrash>,
) {
    let limits = Limits::run_to_completion();
    let mut sim = Sim::new(alg)
        .inputs(inputs)
        .timing(*timing)
        .record_history();
    if let Some(make) = make {
        sim = sim.crash_adversary(move |_| make());
    }
    let mut sim = sim.build();
    for seed in seeds {
        let built = sim.run(seed);
        let mut inst = setup::build(alg, inputs, seed);
        let mut crash = make.map(|make| make());
        let mut history = Vec::new();
        let oracle = run_noisy_with_baseline(
            &mut inst,
            timing,
            seed,
            limits,
            crash
                .as_mut()
                .map(|c| c.as_mut() as &mut dyn CrashAdversary),
            Some(&mut history),
        );
        let case = format!(
            "{alg:?} × crash={} × {timing:?} × seed {seed}",
            make.is_some()
        );
        assert_eq!(built, oracle, "{case}");
        assert_eq!(
            sim.history(),
            history.as_slice(),
            "history diverged: {case}"
        );
    }
}

/// The headline matrix: every algorithm × every Figure 1 noise
/// distribution, run to completion and to first decision.
#[test]
fn algorithms_by_noise_match_oracle() {
    for alg in algorithms() {
        for (_, noise) in Noise::figure1_suite() {
            let timing = TimingModel::figure1(noise);
            let to_end = Limits::run_to_completion();
            assert_matches_oracle(alg, &setup::half_and_half(8), &timing, 0..2, to_end);
            let first = Limits::first_decision();
            assert_matches_oracle(alg, &setup::alternating(6), &timing, 0..2, first);
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
        assert_matches_oracle(
            Algorithm::Lean,
            &setup::half_and_half(8),
            &timing,
            0..3,
            Limits::run_to_completion(),
        );
    }
}

/// Adaptive and scripted crash adversaries, with histories compared
/// event by event.
#[test]
fn crash_adversaries_match_oracle() {
    let timing = TimingModel::figure1(Noise::Exponential { mean: 1.0 });
    let adversaries: [MakeCrash; 3] = [
        || Box::new(LeaderKiller::new(3, 2)),
        || Box::new(CrashScript::new(vec![(0, 1), (2, 5)])),
        || Box::new(CrashScript::new(vec![(1, 3)])),
    ];
    for make in adversaries {
        let inputs = setup::half_and_half(6);
        assert_history_matches_oracle(Algorithm::Lean, &inputs, &timing, 0..3, Some(make));
    }
}

/// History recording without a crash adversary, on every algorithm,
/// with and without random failures: recording alone moves a run off
/// the fast loop onto the shared step loop.
#[test]
fn history_without_crashes_matches_oracle() {
    let timing = TimingModel::figure1(Noise::Exponential { mean: 1.0 });
    let failing = timing.with_failures(FailureModel::Random { per_op: 0.05 });
    for alg in algorithms() {
        let inputs = setup::half_and_half(8);
        assert_history_matches_oracle(alg, &inputs, &timing, 0..3, None);
        assert_history_matches_oracle(alg, &inputs, &failing, 0..3, None);
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
            let limits = Limits::run_to_completion();
            assert_matches_oracle(alg, &inputs, &timing, 0..2, limits);
            assert_matches_oracle(alg, &inputs, &failing, 0..2, limits);
            assert_history_matches_oracle(
                alg,
                &inputs,
                &timing,
                0..2,
                Some(|| Box::new(LeaderKiller::new(2, 1))),
            );
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
        assert_matches_oracle(
            Algorithm::Lean,
            &setup::half_and_half(9),
            timing,
            0..2,
            Limits::run_to_completion(),
        );
    }
}

/// Constant noise keeps every process in lockstep, so no run decides:
/// the operation cap must end the run at the same operation, with the
/// same report, as the oracle's.
#[test]
fn lockstep_op_cap_matches_oracle() {
    let timing = TimingModel::figure1(Noise::Constant { value: 1.0 });
    let limits = Limits::run_to_completion().with_max_ops(50_000);
    let reports = assert_matches_oracle(
        Algorithm::Lean,
        &setup::alternating(4),
        &timing,
        2..4,
        limits,
    );
    for report in reports {
        assert_eq!(report.outcome, RunOutcome::OpCapReached);
        assert_eq!(report.total_ops, 50_000);
    }
}

/// Large first-decision runs stay pinned to the oracle, at the sizes
/// where the engine once switched to a second queue (n = 4096) and
/// perfbench's by-hand `fig1_n8192` workload.
#[test]
fn large_n_matches_oracle() {
    let timing = TimingModel::figure1(Noise::Uniform { lo: 0.0, hi: 2.0 });
    for n in [4096, 8192] {
        let reports = assert_matches_oracle(
            Algorithm::Lean,
            &setup::half_and_half(n),
            &timing,
            1..2,
            Limits::first_decision(),
        );
        assert!(reports[0].first_decision_round.is_some(), "n = {n}");
    }
}

/// The value-fault plane against the oracle: a `TrialSet` sweep with an
/// armed empty spec must match the naive `SimMemory` baseline bit for
/// bit across algorithms. (`tests/memory_planes.rs` carries the
/// oracle-free half of this matrix.)
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

    /// Random process counts and seeds: the builder's `RunReport` must
    /// equal the oracle's, `max_round` included.
    #[test]
    fn random_n_and_seed_match_oracle(
        seed in 0u64..1000,
        n in 1usize..36,
    ) {
        let timing = TimingModel::figure1(Noise::Uniform { lo: 0.0, hi: 2.0 });
        let inputs = setup::half_and_half(n);
        let mut inst_ref = setup::build(Algorithm::Lean, &inputs, seed);
        let oracle = run_noisy_baseline(&mut inst_ref, &timing, seed, Limits::run_to_completion());

        let built = Sim::new(Algorithm::Lean)
            .inputs(inputs)
            .timing(timing)
            .build()
            .run(seed);
        prop_assert_eq!(built.max_round, oracle.max_round, "max_round diverged");
        prop_assert_eq!(built, oracle);
    }
}
