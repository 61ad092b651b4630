//! Builder-vs-internals pinning suite: every configuration expressible
//! through the [`nc_engine::sim::Sim`] builder must produce **byte
//! identical** [`nc_engine::RunReport`]s (exact `f64` equality
//! included) to a direct call into the drive internal it wraps
//! ([`drive_noisy`], [`drive_adversarial`], [`drive_hybrid`]), across
//! the matrix algorithms × failure models × history recording — plus
//! `TrialSet` sweeps, the adversarial and hybrid
//! schedules, and the crash-adversary hooks.
//!
//! Together with `tests/soa_equivalence.rs` (internals vs the naive
//! oracle, `--features baseline`) this closes the chain
//! `baseline == drive internals == builder`, so neither the API
//! cutover nor the deletion of the deprecated `run_*` wrappers can
//! move a single golden CSV. `drive_adversarial` and `drive_hybrid`
//! are thin wrappers over the step loop the builder also runs, so for
//! those schedules this suite pins the builder's own plumbing
//! (factories, crash threading, the monomorphized lean instance);
//! `tests/cross_model.rs` ties the adversarial schedule to the noisy
//! one by replay.

use nc_engine::adversarial::drive_adversarial;
use nc_engine::hybrid::drive_hybrid;
use nc_engine::noisy::drive_noisy;
use nc_engine::sim::Sim;
use nc_engine::{setup, Algorithm, EngineScratch, Limits, RunReport};
use nc_sched::adversary::{
    Adversary, CrashAdversary, CrashScript, LeaderKiller, NoCrashes, RandomInterleave, RoundRobin,
    Script,
};
use nc_sched::hybrid::{BenignHybrid, HybridSpec, RandomHybrid, WritePreemptor};
use nc_sched::{stream_rng, FailureModel, Noise, TimingModel};

fn algorithms() -> [Algorithm; 5] {
    [
        Algorithm::Lean,
        Algorithm::Skipping,
        Algorithm::Randomized,
        Algorithm::Bounded { r_max: 8 },
        Algorithm::Backup,
    ]
}

fn failure_models() -> [FailureModel; 2] {
    [FailureModel::None, FailureModel::Random { per_op: 0.05 }]
}

fn exp_timing() -> TimingModel {
    TimingModel::figure1(Noise::Exponential { mean: 1.0 })
}

/// Reference for one noisy run straight through [`drive_noisy`] (fresh
/// scratch per call, like the experiments' historical usage),
/// optionally with history.
fn reference_noisy(
    alg: Algorithm,
    inputs: &[nc_memory::Bit],
    timing: &TimingModel,
    seed: u64,
    limits: Limits,
    history: Option<&mut Vec<nc_memory::Event>>,
) -> RunReport {
    let mut scratch = EngineScratch::new();
    let mut inst = setup::build(alg, inputs, seed);
    drive_noisy(&mut scratch, &mut inst, timing, seed, limits, None, history)
}

/// The headline matrix: algorithms × failure models × history
/// recording, one `SimRun` reused across seeds vs fresh reference runs.
#[test]
fn noisy_builder_matches_internals_across_the_matrix() {
    for alg in algorithms() {
        for failures in failure_models() {
            for record in [false, true] {
                let inputs = setup::half_and_half(8);
                let timing = exp_timing();
                let mut sim = Sim::new(alg)
                    .inputs(inputs.clone())
                    .timing(timing.clone())
                    .faults(failures);
                if record {
                    sim = sim.record_history();
                }
                let mut sim = sim.build();
                let timing = timing.with_failures(failures);
                for seed in 0..3 {
                    let built = sim.run(seed);
                    let mut legacy_history = Vec::new();
                    let legacy = reference_noisy(
                        alg,
                        &inputs,
                        &timing,
                        seed,
                        Limits::run_to_completion(),
                        record.then_some(&mut legacy_history),
                    );
                    assert_eq!(
                        built, legacy,
                        "{alg:?} × {failures:?} × history={record} × seed {seed}"
                    );
                    if record {
                        assert_eq!(
                            sim.history(),
                            legacy_history.as_slice(),
                            "histories diverged: {alg:?} seed {seed}"
                        );
                    }
                }
            }
        }
    }
}

/// `TrialSet` sweeps (span-pooled scratch, the lean instance rebuilt in
/// place) vs per-seed reference runs.
#[test]
fn trialset_matches_internal_sequential_runs() {
    for alg in [Algorithm::Lean, Algorithm::Randomized] {
        let inputs = setup::half_and_half(9);
        let timing = TimingModel::figure1(Noise::Uniform { lo: 0.0, hi: 2.0 });
        let reports = Sim::new(alg)
            .inputs(inputs.clone())
            .timing(timing.clone())
            .limits(Limits::first_decision())
            .trials(13)
            .seed0(400)
            .seed_stride(7)
            .threads(1)
            .reports();
        for (t, report) in reports.iter().enumerate() {
            let seed = 400 + 7 * t as u64;
            let mut scratch = EngineScratch::new();
            let mut inst = setup::build(alg, &inputs, seed);
            let legacy = drive_noisy(
                &mut scratch,
                &mut inst,
                &timing,
                seed,
                Limits::first_decision(),
                None,
                None,
            );
            assert_eq!(*report, legacy, "{alg:?}, trial {t}");
        }
    }
}

/// Crash adversaries through the builder factory vs the internal
/// `Option<&mut dyn CrashAdversary>` threading, with histories.
#[test]
fn crash_adversaries_match_internals() {
    type MakeCrash = fn() -> Box<dyn CrashAdversary>;
    let adversaries: [MakeCrash; 2] = [
        || Box::new(LeaderKiller::new(3, 1)),
        || Box::new(CrashScript::new(vec![(0, 2), (3, 5)])),
    ];
    for make in adversaries {
        let inputs = setup::half_and_half(6);
        let mut sim = Sim::new(Algorithm::Lean)
            .inputs(inputs.clone())
            .timing(exp_timing())
            .crash_adversary(move |_| make())
            .record_history()
            .build();
        for seed in 0..3 {
            let built = sim.run(seed);
            let mut crash = make();
            let mut history = Vec::new();
            let mut scratch = EngineScratch::new();
            let mut inst = setup::build(Algorithm::Lean, &inputs, seed);
            let legacy = drive_noisy(
                &mut scratch,
                &mut inst,
                &exp_timing(),
                seed,
                Limits::run_to_completion(),
                Some(crash.as_mut()),
                Some(&mut history),
            );
            assert_eq!(built, legacy, "seed {seed}");
            assert_eq!(sim.history(), history.as_slice(), "seed {seed}");
        }
    }
}

/// Adversarial schedules (with and without crashes) through the builder
/// vs `drive_adversarial`.
#[test]
fn adversarial_builder_matches_internals() {
    type MakeAdv = fn(u64) -> Box<dyn Adversary>;
    let adversaries: [MakeAdv; 3] = [
        |_| Box::new(RoundRobin::new()),
        |seed| Box::new(RandomInterleave::new(stream_rng(seed, 0, 4))),
        |_| Box::new(Script::new(vec![0, 1, 2, 0, 1, 2, 0])),
    ];
    for alg in algorithms() {
        for make in adversaries {
            for crashes in [false, true] {
                let inputs = setup::half_and_half(3);
                let mut sim = Sim::new(alg)
                    .inputs(inputs.clone())
                    .adversary(make)
                    .limits(Limits::run_to_completion().with_max_ops(100_000));
                if crashes {
                    sim = sim.crash_adversary(|_| CrashScript::new(vec![(1, 3)]));
                }
                let mut sim = sim.build();
                for seed in 0..2 {
                    let built = sim.run(seed);
                    let mut adv = make(seed);
                    let mut inst = setup::build(alg, &inputs, seed);
                    let legacy = if crashes {
                        let mut crash = CrashScript::new(vec![(1, 3)]);
                        drive_adversarial(
                            &mut inst,
                            adv.as_mut(),
                            &mut crash,
                            Limits::run_to_completion().with_max_ops(100_000),
                        )
                    } else {
                        drive_adversarial(
                            &mut inst,
                            adv.as_mut(),
                            &mut NoCrashes,
                            Limits::run_to_completion().with_max_ops(100_000),
                        )
                    };
                    assert_eq!(built, legacy, "{alg:?} crashes={crashes} seed {seed}");
                }
            }
        }
    }
}

/// Hybrid schedules through the builder vs `drive_hybrid`, across
/// policies, quanta, and initial-quantum burns.
#[test]
fn hybrid_builder_matches_internals() {
    for n in [2usize, 4, 6] {
        for quantum in [4u32, 8, 12] {
            for burn in [0u32, quantum / 2] {
                let inputs = setup::alternating(n);
                let spec = HybridSpec::uniform(n, quantum).with_initial_used(vec![burn; n]);
                for kind in 0..3 {
                    let spec_for_builder = spec.clone();
                    let mut sim = match kind {
                        0 => Sim::new(Algorithm::Lean)
                            .inputs(inputs.clone())
                            .hybrid(spec_for_builder, |_| {
                                Box::new(BenignHybrid) as Box<dyn nc_sched::HybridPolicy>
                            }),
                        1 => Sim::new(Algorithm::Lean).inputs(inputs.clone()).hybrid(
                            spec_for_builder,
                            |seed| {
                                Box::new(RandomHybrid::new(stream_rng(seed, 0, 4)))
                                    as Box<dyn nc_sched::HybridPolicy>
                            },
                        ),
                        _ => Sim::new(Algorithm::Lean)
                            .inputs(inputs.clone())
                            .hybrid(spec_for_builder, |_| {
                                Box::new(WritePreemptor) as Box<dyn nc_sched::HybridPolicy>
                            }),
                    }
                    .limits(Limits::run_to_completion().with_max_ops(200_000))
                    .build();
                    for seed in 0..2 {
                        let built = sim.run(seed);
                        let mut inst = setup::build(Algorithm::Lean, &inputs, seed);
                        let mut policy: Box<dyn nc_sched::HybridPolicy> = match kind {
                            0 => Box::new(BenignHybrid),
                            1 => Box::new(RandomHybrid::new(stream_rng(seed, 0, 4))),
                            _ => Box::new(WritePreemptor),
                        };
                        let legacy = drive_hybrid(
                            &mut inst,
                            &spec,
                            policy.as_mut(),
                            Limits::run_to_completion().with_max_ops(200_000),
                        );
                        assert_eq!(
                            built, legacy,
                            "n={n} q={quantum} burn={burn} kind={kind} seed {seed}"
                        );
                    }
                }
            }
        }
    }
}

/// Thread fan-out is per-`TrialSet` state and never changes results.
#[test]
fn trialset_threads_are_invisible() {
    let inputs = setup::half_and_half(10);
    let sweep = |threads: usize| {
        Sim::new(Algorithm::Lean)
            .inputs(inputs.clone())
            .timing(exp_timing())
            .limits(Limits::first_decision())
            .trials(40)
            .seed0(9000)
            .seed_stride(11)
            .threads(threads)
            .reports()
    };
    let reference = sweep(1);
    for threads in [2, 3, 8, 0] {
        assert_eq!(sweep(threads), reference, "{threads} threads");
    }
}
