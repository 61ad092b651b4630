//! Memory-plane pinning suite: the word-store backend behind a run is a
//! pure performance/instrumentation knob. With faults disabled, every
//! [`nc_memory::MemStore`] backend must produce **byte identical**
//! [`nc_engine::RunReport`]s — [`SimMemory`] (the default),
//! [`DenseRaceMemory`], and a disarmed/empty [`FaultyMemory`] wrapper —
//! across algorithms × schedules × queue policies × thread counts.
//! (`tests/soa_equivalence.rs` additionally pins the dense backend to
//! the naive oracle under `--features baseline`, closing the chain
//! `baseline == SimMemory == DenseRaceMemory`.)
//!
//! With faults *enabled*, the requirement becomes determinism: a
//! faulted run is a pure function of its seed — bit-identical fault
//! streams at every thread count.

use nc_engine::sim::Sim;
use nc_engine::{setup, Algorithm, Limits, QueuePolicy, RunReport};
use nc_memory::{Addr, Bit, DenseRaceMemory, FaultSpec, FaultyMemory, MemStore, SimMemory};
use nc_sched::adversary::{LeaderKiller, RandomInterleave, RoundRobin};
use nc_sched::hybrid::{HybridSpec, WritePreemptor};
use nc_sched::{stream_rng, FailureModel, Noise, TimingModel};

const QUEUES: [QueuePolicy; 3] = [QueuePolicy::Heap, QueuePolicy::Tree, QueuePolicy::Auto];

fn algorithms() -> [Algorithm; 5] {
    [
        Algorithm::Lean,
        Algorithm::Skipping,
        Algorithm::Randomized,
        Algorithm::Bounded { r_max: 8 },
        Algorithm::Backup,
    ]
}

fn exp_timing() -> TimingModel {
    TimingModel::figure1(Noise::Exponential { mean: 1.0 })
}

/// One noisy-schedule run of `alg` on the backend `mem`.
fn run_noisy_on<M: MemStore>(
    alg: Algorithm,
    mem: M,
    policy: QueuePolicy,
    failures: FailureModel,
    seed: u64,
) -> RunReport {
    Sim::new(alg)
        .inputs(setup::half_and_half(8))
        .timing(exp_timing())
        .faults(failures)
        .queue_policy(policy)
        .memory_backend(mem)
        .build()
        .run(seed)
}

/// The headline matrix: algorithms × failure models × queue policies,
/// `SimMemory` vs `DenseRaceMemory` vs pass-through `FaultyMemory` over
/// each.
#[test]
fn fault_free_backends_agree_across_the_noisy_matrix() {
    for alg in algorithms() {
        for failures in [FailureModel::None, FailureModel::Random { per_op: 0.05 }] {
            for policy in QUEUES {
                for seed in 0..3 {
                    let reference = run_noisy_on(alg, SimMemory::new(), policy, failures, seed);
                    let dense = run_noisy_on(alg, DenseRaceMemory::new(), policy, failures, seed);
                    assert_eq!(
                        reference, dense,
                        "dense: {alg:?} × {failures:?} × {policy:?} × seed {seed}"
                    );
                    let wrapped_sim = run_noisy_on(
                        alg,
                        FaultyMemory::pass_through(SimMemory::new()),
                        policy,
                        failures,
                        seed,
                    );
                    assert_eq!(
                        reference, wrapped_sim,
                        "faulty(sim): {alg:?} × {failures:?} × {policy:?} × seed {seed}"
                    );
                    let wrapped_dense = run_noisy_on(
                        alg,
                        FaultyMemory::pass_through(DenseRaceMemory::new()),
                        policy,
                        failures,
                        seed,
                    );
                    assert_eq!(
                        reference, wrapped_dense,
                        "faulty(dense): {alg:?} × {failures:?} × {policy:?} × seed {seed}"
                    );
                }
            }
        }
    }
}

/// A tiny dense prefix forces mid-run growth (every algorithm's regions
/// overflow four words immediately): growth must be invisible too.
#[test]
fn dense_growth_path_is_invisible() {
    for alg in algorithms() {
        for seed in 0..2 {
            let reference = run_noisy_on(
                alg,
                SimMemory::new(),
                QueuePolicy::Auto,
                FailureModel::None,
                seed,
            );
            let dense = run_noisy_on(
                alg,
                DenseRaceMemory::with_rounds(1),
                QueuePolicy::Auto,
                FailureModel::None,
                seed,
            );
            assert_eq!(reference, dense, "{alg:?} seed {seed}");
        }
    }
}

/// Backends agree under the adversarial and hybrid schedules as well.
#[test]
fn fault_free_backends_agree_on_other_schedules() {
    for alg in algorithms() {
        let inputs = setup::half_and_half(4);
        let adversarial = |mem: DenseRaceMemory, dense: bool| {
            let sim = Sim::new(alg)
                .inputs(inputs.clone())
                .adversary(|seed| RandomInterleave::new(stream_rng(seed, 0, 4)))
                .limits(Limits::run_to_completion().with_max_ops(100_000));
            if dense {
                sim.memory_backend(mem).build().run(5)
            } else {
                sim.build().run(5)
            }
        };
        assert_eq!(
            adversarial(DenseRaceMemory::new(), false),
            adversarial(DenseRaceMemory::new(), true),
            "adversarial {alg:?}"
        );
    }
    // Hybrid (lean only: the quantum bound is the interesting case).
    let inputs = setup::alternating(4);
    let hybrid = |dense: bool| {
        let sim = Sim::new(Algorithm::Lean)
            .inputs(inputs.clone())
            .hybrid(HybridSpec::uniform(4, 8), |_| WritePreemptor);
        if dense {
            sim.memory_backend(DenseRaceMemory::new()).build().run(0)
        } else {
            sim.build().run(0)
        }
    };
    assert_eq!(hybrid(false), hybrid(true), "hybrid schedule");
}

/// Thread counts and backends compose: a dense-backend `TrialSet` sweep
/// is bit-identical at every `threads` setting and to the plain sweep.
#[test]
fn dense_backend_sweeps_are_invariant_across_threads() {
    let inputs = setup::half_and_half(9);
    let sweep = |threads: usize| {
        Sim::new(Algorithm::Lean)
            .inputs(inputs.clone())
            .timing(exp_timing())
            .limits(Limits::first_decision())
            .memory_backend(DenseRaceMemory::new())
            .trials(13)
            .seed0(400)
            .seed_stride(7)
            .threads(threads)
            .reports()
    };
    let reference = sweep(1);
    for threads in [2, 4, 0] {
        assert_eq!(sweep(threads), reference, "{threads} threads");
    }
    // And the plain-backend sweep is the same sweep.
    let plain = Sim::new(Algorithm::Lean)
        .inputs(inputs.clone())
        .timing(exp_timing())
        .limits(Limits::first_decision())
        .trials(13)
        .seed0(400)
        .seed_stride(7)
        .threads(1)
        .reports();
    assert_eq!(plain, reference, "dense vs plain sweep");
}

fn lossy_spec() -> FaultSpec {
    FaultSpec::new()
        .read_flip(0.02)
        .write_drop(0.02)
        .stuck_at(Addr::new(4), Bit::Zero)
}

/// Value-fault determinism: same seed ⇒ byte-identical reports (the
/// whole fault stream included) at 1 vs 4 threads; different seeds
/// genuinely vary the faults.
#[test]
fn value_faults_are_a_pure_function_of_the_seed() {
    let inputs = setup::half_and_half(8);
    let sweep = |threads: usize| {
        Sim::new(Algorithm::Lean)
            .inputs(inputs.clone())
            .timing(exp_timing())
            .limits(Limits::run_to_completion().with_max_ops(50_000))
            .value_faults(lossy_spec())
            .trials(24)
            .seed0(70)
            .seed_stride(3)
            .threads(threads)
            .reports()
    };
    let reference = sweep(1);
    for threads in [4, 0] {
        assert_eq!(
            sweep(threads),
            reference,
            "fault stream diverged at {threads} threads"
        );
    }
    // Per-seed SimRun calls see the identical faulted executions.
    let mut sim = Sim::new(Algorithm::Lean)
        .inputs(inputs.clone())
        .timing(exp_timing())
        .limits(Limits::run_to_completion().with_max_ops(50_000))
        .value_faults(lossy_spec())
        .build();
    for (t, report) in reference.iter().enumerate() {
        assert_eq!(*report, sim.run(70 + 3 * t as u64), "trial {t}");
    }
    // Faults actually bite: some trial must differ from the clean run.
    let clean = Sim::new(Algorithm::Lean)
        .inputs(inputs)
        .timing(exp_timing())
        .limits(Limits::run_to_completion().with_max_ops(50_000))
        .trials(24)
        .seed0(70)
        .seed_stride(3)
        .threads(1)
        .reports();
    assert_ne!(clean, reference, "the lossy spec changed nothing");
}

/// Stuck-at faults bypass the stochastic stream entirely and compose
/// with any backend; sentinels installed at setup are not faulted.
#[test]
fn stuck_sentinel_registers_change_outcomes_deterministically() {
    // Stick both round-1 frontier slots (addresses 2 and 3 for the
    // race layout at base 0) at One: every process sees a tied frontier
    // forever on those slots, but later rounds proceed normally.
    let spec = FaultSpec::new()
        .stuck_at(Addr::new(2), Bit::One)
        .stuck_at(Addr::new(3), Bit::One);
    let run = |seed: u64| {
        Sim::new(Algorithm::Lean)
            .inputs(setup::half_and_half(6))
            .timing(exp_timing())
            .limits(Limits::run_to_completion().with_max_ops(100_000))
            .memory_backend(DenseRaceMemory::new())
            .value_faults(spec.clone())
            .build()
            .run(seed)
    };
    assert_eq!(run(11), run(11), "stuck faults must be deterministic");
}

/// Value faults work under the untimed adversarial schedule too (they
/// are a memory property, not a timing-model property).
#[test]
fn value_faults_compose_with_adversarial_schedules() {
    let run = || {
        Sim::new(Algorithm::Lean)
            .inputs(setup::unanimous(4, Bit::One))
            .adversary(|_| RoundRobin::new())
            .limits(Limits::run_to_completion().with_max_ops(10_000))
            .value_faults(FaultSpec::new().read_flip(0.5))
            .build()
            .run(3)
    };
    assert_eq!(
        run(),
        run(),
        "adversarial faulted runs must be deterministic"
    );
}

/// The crash-adversary hook and value faults compose (both consult
/// seed-derived streams; neither may perturb the other's).
#[test]
fn value_faults_compose_with_crash_adversaries() {
    let run = || {
        Sim::new(Algorithm::Lean)
            .inputs(setup::half_and_half(6))
            .timing(exp_timing())
            .limits(Limits::run_to_completion().with_max_ops(100_000))
            .crash_adversary(|_| LeaderKiller::new(2, 1))
            .value_faults(FaultSpec::new().write_drop(0.05))
            .build()
            .run(8)
    };
    assert_eq!(run(), run());
}
