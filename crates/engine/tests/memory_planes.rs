//! Value-fault pinning suite: with an empty spec, the word store's
//! fault plane is a pure pass-through. A run on a plain [`SimMemory`]
//! and the same run with an armed empty [`FaultSpec`] must produce
//! **byte identical** [`nc_engine::RunReport`]s across algorithms ×
//! schedules × failure models. (`tests/soa_equivalence.rs` additionally
//! pins the empty-spec store to the naive oracle.)
//!
//! With faults *enabled*, the requirement becomes determinism: a
//! faulted run is a pure function of its seed — bit-identical fault
//! streams at every thread count, pinned to a fixed hash on every path
//! that arms them.
//!
//! [`SimMemory`]: nc_memory::SimMemory

use nc_engine::sim::Sim;
use nc_engine::{setup, Algorithm, Limits, RunReport};
use nc_memory::{Addr, Bit, FaultSpec};
use nc_sched::adversary::{LeaderKiller, RandomInterleave, RoundRobin};
use nc_sched::hybrid::{HybridSpec, WritePreemptor};
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

fn exp_timing() -> TimingModel {
    TimingModel::figure1(Noise::Exponential { mean: 1.0 })
}

/// Runs `sim` with `seed` without value faults and with an empty spec;
/// returns both reports.
fn plain_and_wrapped(sim: impl Fn() -> Sim, seed: u64) -> (RunReport, RunReport) {
    let plain = sim().build().run(seed);
    let wrapped = sim().value_faults(FaultSpec::new()).build().run(seed);
    (plain, wrapped)
}

/// The headline matrix: algorithms × failure models, a plain
/// `SimMemory` vs one with an armed empty spec.
#[test]
fn fault_free_backends_agree_across_the_noisy_matrix() {
    for alg in algorithms() {
        for failures in [FailureModel::None, FailureModel::Random { per_op: 0.05 }] {
            for seed in 0..3 {
                let sim = || {
                    Sim::new(alg)
                        .inputs(setup::half_and_half(8))
                        .timing(exp_timing().with_failures(failures))
                };
                let (plain, wrapped) = plain_and_wrapped(sim, seed);
                assert_eq!(plain, wrapped, "{alg:?} × {failures:?} × seed {seed}");
            }
        }
    }
}

/// The empty spec is a pass-through under the adversarial and hybrid
/// schedules as well.
#[test]
fn fault_free_backends_agree_on_other_schedules() {
    for alg in algorithms() {
        let sim = || {
            Sim::new(alg)
                .inputs(setup::half_and_half(4))
                .adversary(|seed| RandomInterleave::new(stream_rng(seed, 0, 4)))
                .limits(Limits::run_to_completion().with_max_ops(100_000))
        };
        let (plain, wrapped) = plain_and_wrapped(sim, 5);
        assert_eq!(plain, wrapped, "adversarial {alg:?}");
    }
    // Hybrid (lean only: the quantum bound is the interesting case).
    let sim = || {
        Sim::new(Algorithm::Lean)
            .inputs(setup::alternating(4))
            .hybrid(HybridSpec::uniform(4, 8), |_| WritePreemptor)
    };
    let (plain, wrapped) = plain_and_wrapped(sim, 0);
    assert_eq!(plain, wrapped, "hybrid schedule");
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

/// Stuck-at faults bypass the stochastic stream entirely; sentinels
/// installed at setup are not faulted.
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

/// Folds `bytes` into a running FNV-1a (64-bit) hash.
fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// Folds the observable shape of one report into `hash`.
fn fold_report(hash: u64, report: &RunReport) -> u64 {
    let mut hash = fnv1a(hash, format!("{:?}", report.outcome).as_bytes());
    hash = fnv1a(hash, &report.total_ops.to_le_bytes());
    for d in &report.decisions {
        hash = fnv1a(hash, &[d.map_or(2, |b| b.word() as u8)]);
    }
    hash = fnv1a(hash, &(report.max_round as u64).to_le_bytes());
    for ops in &report.ops {
        hash = fnv1a(hash, &ops.to_le_bytes());
    }
    hash
}

/// Pins the value-fault streams themselves, on every path that arms
/// them: the boxed algorithms as well as the lean fast path, under all
/// three schedules, with stuck registers (addresses 4 and 5 are the
/// round-2 slots of the race layout at base 0), write drops and read
/// flips all active at once. Any change to when a fault coin is drawn
/// — or to which runs get the spec at all — moves the hash.
#[test]
fn value_fault_streams_are_pinned() {
    let spec = || {
        FaultSpec::new()
            .read_flip(0.05)
            .write_drop(0.05)
            .stuck_at(Addr::new(4), Bit::One)
            .stuck_at(Addr::new(5), Bit::Zero)
    };
    let capped = Limits::run_to_completion().with_max_ops(20_000);
    let mut hash = 0xCBF2_9CE4_8422_2325_u64;
    for alg in algorithms() {
        let noisy = || {
            Sim::new(alg)
                .inputs(setup::half_and_half(6))
                .timing(exp_timing())
                .limits(capped)
        };
        let clean = noisy().trials(8).seed0(40).threads(1).reports();
        let faulted = noisy()
            .value_faults(spec())
            .trials(8)
            .seed0(40)
            .threads(1)
            .reports();
        assert_ne!(clean, faulted, "{alg:?}: the spec changed nothing");
        hash = faulted.iter().fold(hash, fold_report);
    }
    for alg in algorithms() {
        let mut sim = Sim::new(alg)
            .inputs(setup::half_and_half(4))
            .adversary(|seed| RandomInterleave::new(stream_rng(seed, 0, 4)))
            .limits(capped)
            .value_faults(spec())
            .build();
        for seed in 0..4 {
            hash = fold_report(hash, &sim.run(seed));
        }
    }
    let mut sim = Sim::new(Algorithm::Lean)
        .inputs(setup::alternating(4))
        .hybrid(HybridSpec::uniform(4, 8), |_| WritePreemptor)
        .limits(capped)
        .value_faults(spec())
        .build();
    for seed in 0..4 {
        hash = fold_report(hash, &sim.run(seed));
    }
    assert_eq!(hash, 0x91FA_31AE_8DCE_5F2F, "value-fault stream moved");
}
