//! Cross-driver integration: one algorithm, three scheduling models, one
//! shared-memory semantics.
//!
//! These tests tie the whole workspace together: protocols built by
//! `nc-engine::setup`, driven through the [`Sim`] builder's three
//! schedules (noisy / adversarial / hybrid), recorded as histories,
//! validated against the sequential register specification from
//! `nc-memory`, and checked against the §5 lemmas from `nc-core`.

use std::collections::HashMap;

use noisy_consensus::engine::setup::{self, Algorithm};
use noisy_consensus::engine::{Limits, RunOutcome};
use noisy_consensus::memory::{check_register_semantics_from, Bit, RaceLayout};
use noisy_consensus::sched::adversary::{LeaderKiller, RandomInterleave, Script};
use noisy_consensus::sched::hybrid::{HybridSpec, RandomHybrid};
use noisy_consensus::sched::{stream_rng, Noise, TimingModel};
use noisy_consensus::Sim;

fn all_algorithms() -> Vec<Algorithm> {
    vec![
        Algorithm::Lean,
        Algorithm::Skipping,
        Algorithm::Randomized,
        Algorithm::Bounded { r_max: 8 },
        Algorithm::Backup,
    ]
}

#[test]
fn every_algorithm_under_every_driver_is_safe() {
    let inputs = setup::half_and_half(5);
    for alg in all_algorithms() {
        // Noisy schedule.
        let report = Sim::new(alg)
            .inputs(inputs.clone())
            .timing(TimingModel::figure1(Noise::Exponential { mean: 1.0 }))
            .build()
            .run(1);
        assert_eq!(report.outcome, RunOutcome::AllDecided, "{alg:?} noisy");
        report.check_safety(&inputs).unwrap();

        // Adversarial schedule (random interleave).
        let report = Sim::new(alg)
            .inputs(inputs.clone())
            .adversary(|seed| RandomInterleave::new(stream_rng(seed, 0, 4)))
            .build()
            .run(2);
        assert_eq!(
            report.outcome,
            RunOutcome::AllDecided,
            "{alg:?} adversarial"
        );
        report.check_safety(&inputs).unwrap();

        // Hybrid schedule (random legal policy).
        let report = Sim::new(alg)
            .inputs(inputs.clone())
            .hybrid(HybridSpec::uniform(inputs.len(), 8), |seed| {
                RandomHybrid::new(stream_rng(seed, 0, 4))
            })
            .build()
            .run(3);
        assert_eq!(report.outcome, RunOutcome::AllDecided, "{alg:?} hybrid");
        report.check_safety(&inputs).unwrap();
    }
}

#[test]
fn recorded_histories_satisfy_register_semantics_for_all_algorithms() {
    // End-to-end check that the engine + memory implement the
    // interleaving model the proofs assume, for every protocol's access
    // pattern (including the backup's counters).
    let inputs = setup::half_and_half(4);
    for alg in all_algorithms() {
        let mut sim = Sim::new(alg)
            .inputs(inputs.clone())
            .timing(TimingModel::figure1(Noise::Uniform { lo: 0.0, hi: 2.0 }))
            .record_history()
            .build();
        let report = sim.run(5);
        assert_eq!(report.outcome, RunOutcome::AllDecided, "{alg:?}");
        assert_eq!(sim.history().len() as u64, report.total_ops);

        // Sentinels are pre-seeded initial state for the lean family.
        let layout = RaceLayout::at_base(0);
        let mut initial = HashMap::new();
        if !matches!(alg, Algorithm::Backup) {
            initial.insert(layout.slot(Bit::Zero, 0), 1);
            initial.insert(layout.slot(Bit::One, 0), 1);
        }
        check_register_semantics_from(sim.history(), &initial)
            .unwrap_or_else(|e| panic!("{alg:?}: {e}"));
    }
}

#[test]
fn adversarial_replay_of_a_noisy_schedule_reproduces_its_report() {
    // Both schedules run the same step loop; only the pick differs. A
    // scripted adversary replaying a noisy run's pid sequence (no
    // random failures, the same crash adversary) must therefore
    // reproduce every untimed field of its report. The naive oracle
    // pins the noisy side, so this pins the adversarial side too.
    let inputs = setup::half_and_half(6);
    let mut runs_with_crashes = 0;
    for alg in all_algorithms() {
        for limits in [Limits::run_to_completion(), Limits::first_decision()] {
            for crashes in [false, true] {
                let with_crashes = |sim: Sim| {
                    if crashes {
                        sim.crash_adversary(|_| LeaderKiller::new(2, 1))
                    } else {
                        sim
                    }
                };
                for seed in 0..3 {
                    let mut noisy = with_crashes(
                        Sim::new(alg)
                            .inputs(inputs.clone())
                            .timing(TimingModel::figure1(Noise::Exponential { mean: 1.0 }))
                            .limits(limits)
                            .record_history(),
                    )
                    .build();
                    let timed = noisy.run(seed);
                    let pids: Vec<usize> = noisy.history().iter().map(|e| e.pid.index()).collect();
                    let replayed = with_crashes(
                        Sim::new(alg)
                            .inputs(inputs.clone())
                            .adversary(move |_| Script::new(pids.clone()))
                            .limits(limits),
                    )
                    .build()
                    .run(seed);
                    let untimed = |r: &noisy_consensus::RunReport| {
                        (
                            r.outcome,
                            r.decisions.clone(),
                            r.decision_rounds.clone(),
                            r.ops.clone(),
                            r.halted.clone(),
                            r.first_decision_round,
                            r.total_ops,
                            r.max_round,
                        )
                    };
                    assert_eq!(
                        untimed(&replayed),
                        untimed(&timed),
                        "{alg:?} × {limits:?} × crashes={crashes} × seed {seed}"
                    );
                    runs_with_crashes += usize::from(timed.halted.contains(&true));
                }
            }
        }
    }
    assert!(runs_with_crashes > 0, "the crash adversary never fired");
}

#[test]
fn noisy_and_adversarial_agree_with_native_on_unanimity_cost() {
    // Lemma 3's "8 operations" is driver-independent: check it across
    // the simulated drivers and the native runner.
    for input in Bit::BOTH {
        let inputs = setup::unanimous(4, input);

        let report = Sim::new(Algorithm::Lean)
            .inputs(inputs.clone())
            .timing(TimingModel::figure1(Noise::Geometric { p: 0.5 }))
            .build()
            .run(1);
        assert!(
            report.ops.iter().all(|&o| o == 8),
            "noisy: {:?}",
            report.ops
        );

        let native = noisy_consensus::NativeConsensus::new();
        let d = native.propose(input).unwrap();
        assert_eq!(d.ops, 8);
        assert_eq!(d.value, input);
    }
}

#[test]
fn figure1_distributions_all_terminate_at_moderate_scale() {
    for (name, noise) in Noise::figure1_suite() {
        let inputs = setup::half_and_half(64);
        let report = Sim::new(Algorithm::Lean)
            .inputs(inputs.clone())
            .timing(TimingModel::figure1(noise))
            .build()
            .run(11);
        assert_eq!(report.outcome, RunOutcome::AllDecided, "{name}");
        report.check_safety(&inputs).unwrap();
        // Termination should be fast: generous cap at 100 rounds for
        // n = 64 (theory says ~log n with small constants).
        assert!(
            report.last_decision_round().unwrap() < 100,
            "{name}: {:?}",
            report.last_decision_round()
        );
    }
}

#[test]
fn bounded_protocol_backup_rate_is_low_under_noise() {
    // Theorem 15's economics: with r_max = recommended, the backup
    // should essentially never engage under noisy scheduling.
    let n = 16;
    let r_max = noisy_consensus::core::bounded::recommended_r_max(n);
    let trials = 50;
    let inputs = setup::half_and_half(n);
    let engaged: usize = Sim::new(Algorithm::Bounded { r_max })
        .inputs(inputs.clone())
        .timing(TimingModel::figure1(Noise::Exponential { mean: 1.0 }))
        .trials(trials)
        .map(|report| {
            report.check_safety(&inputs).unwrap();
            assert_eq!(report.outcome, RunOutcome::AllDecided);
            // Backup engagement is visible as rounds beyond r_max.
            usize::from(report.decision_rounds.iter().flatten().any(|&r| r > r_max))
        })
        .into_iter()
        .sum();
    assert_eq!(
        engaged, 0,
        "backup engaged in {engaged}/{trials} noisy runs at r_max={r_max}"
    );
}

#[test]
fn deterministic_reports_across_identical_runs() {
    let inputs = setup::half_and_half(12);
    let run = |seed| {
        let r = Sim::new(Algorithm::Lean)
            .inputs(inputs.clone())
            .timing(TimingModel::figure1(Noise::TwoPoint {
                lo: 2.0 / 3.0,
                hi: 4.0 / 3.0,
            }))
            .build()
            .run(seed);
        (r.decisions.clone(), r.total_ops, r.first_decision_round)
    };
    assert_eq!(run(99), run(99));
}
