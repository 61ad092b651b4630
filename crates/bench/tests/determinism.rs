//! Regression tests for the parallel-sweep determinism contract: a
//! sweep's results are a pure function of its seed — bit-for-bit
//! identical whether trials run serially or fanned out across any
//! number of workers, and identical between the optimized engine and
//! the naive baseline.
//!
//! Parallelism is per-sweep state ([`nc_engine::sim::TrialSet::threads`]
//! and `Scenario::run`'s `threads` argument), so these tests run freely
//! in parallel with each other — the process-global worker knob (and
//! the mutex that once serialized every test here against it) is gone.
//!
//! (The companion property test that the event order itself — `(time,
//! seq)` tie-breaking — is total and stable under equal `f64` times
//! lives next to the queue: `nc_sched::queue::tests`.)

use nc_bench::experiments::fig1;
use nc_bench::scenario::{REGISTRY, SMOKE_SEED};
use nc_engine::baseline::run_noisy_baseline;
use nc_engine::sim::Sim;
use nc_engine::{setup, Limits};
use nc_sched::{Noise, TimingModel};

/// Summary of a point that must match bitwise across worker counts.
fn point_fingerprint(threads: usize) -> Vec<(u64, u64, u64)> {
    Noise::figure1_suite()
        .into_iter()
        .map(|(_, noise)| {
            let p = fig1::point(noise, 12, 64, 99, threads);
            (
                p.rounds.mean().to_bits(),
                p.rounds.ci95().to_bits(),
                p.skipped,
            )
        })
        .collect()
}

#[test]
fn every_scenario_smoke_is_bitwise_identical_serial_vs_parallel() {
    // The registry-wide version of the fig1 fingerprint test below:
    // every registered scenario's smoke preset must produce cell-for-
    // cell identical tables at 1 and 4 workers. (Scenario output cells
    // are strings formatted from the measured values, so equal tables
    // here are exactly what the golden CSVs pin.)
    for sc in REGISTRY {
        let spec = sc.spec();
        let serial = sc.run(spec.smoke, SMOKE_SEED, 1);
        assert_eq!(
            serial,
            sc.run(spec.smoke, SMOKE_SEED, 4),
            "{} diverged between 1 and 4 workers",
            spec.id
        );
    }
}

#[test]
fn fig1_point_is_bitwise_identical_serial_vs_parallel() {
    let serial = point_fingerprint(1);
    for threads in [2, 3, 8] {
        assert_eq!(
            serial,
            point_fingerprint(threads),
            "sweep diverged at {threads} workers"
        );
    }
}

#[test]
fn parallel_sweep_reports_match_baseline_engine_exactly() {
    // Full RunReports from the optimized engine running inside the
    // parallel sweep must equal the naive serial baseline's, trial by
    // trial.
    let timing = TimingModel::figure1(Noise::Uniform { lo: 0.0, hi: 2.0 });
    let inputs = setup::half_and_half(10);
    let parallel = Sim::new(setup::Algorithm::Lean)
        .inputs(inputs.clone())
        .timing(timing)
        .limits(Limits::first_decision())
        .trials(32)
        .seed0(1000)
        .seed_stride(7)
        .threads(4)
        .reports();
    for (t, report) in parallel.into_iter().enumerate() {
        let seed = 1000 + t as u64 * 7;
        let mut inst = setup::build(setup::Algorithm::Lean, &inputs, seed);
        let naive = run_noisy_baseline(&mut inst, &timing, seed, Limits::first_decision());
        assert_eq!(report, naive, "trial {t}");
    }
}

#[test]
fn builder_lean_fast_path_matches_baseline_boxed_instances() {
    // The builder's monomorphized lean fast path (rebuild-in-place,
    // fused step) must produce identical reports to the naive baseline
    // driving boxed trait-object instances.
    let timing = TimingModel::figure1(Noise::Exponential { mean: 1.0 });
    let inputs = setup::half_and_half(16);
    let mut sim = Sim::new(setup::Algorithm::Lean)
        .inputs(inputs.clone())
        .timing(timing)
        .limits(Limits::first_decision())
        .build();
    for seed in 0..16u64 {
        let typed = sim.run(seed);
        let mut boxed_inst = setup::build(setup::Algorithm::Lean, &inputs, seed);
        let boxed = run_noisy_baseline(&mut boxed_inst, &timing, seed, Limits::first_decision());
        assert_eq!(typed, boxed, "seed {seed}");
    }
}

#[test]
fn concurrent_sweeps_with_different_worker_counts_do_not_interfere() {
    // The scenario that forced the old process-global thread knob to be
    // mutex-serialized: two sweeps running at the same time with
    // different worker counts. With per-TrialSet threads both must
    // still match the serial reference exactly.
    let run_sweep =
        |threads: usize| fig1::point(Noise::Uniform { lo: 0.0, hi: 2.0 }, 10, 48, 5, threads);
    let reference = run_sweep(1);
    let (a, b) = std::thread::scope(|s| {
        let a = s.spawn(|| run_sweep(3));
        let b = s.spawn(|| run_sweep(8));
        (a.join().unwrap(), b.join().unwrap())
    });
    for (label, p) in [("3 workers", a), ("8 workers", b)] {
        assert_eq!(
            p.rounds.mean().to_bits(),
            reference.rounds.mean().to_bits(),
            "{label}"
        );
        assert_eq!(
            p.rounds.ci95().to_bits(),
            reference.rounds.ci95().to_bits(),
            "{label}"
        );
        assert_eq!(p.skipped, reference.skipped, "{label}");
    }
}
