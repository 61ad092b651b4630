//! E10 — baselines: deterministic lean vs algorithmic randomness.
//!
//! Three contenders:
//!
//! * `lean` — deterministic, relies entirely on environment noise;
//! * `randomized` — lean + the safe local tie coin;
//! * `backup` — the shared-coin protocol (the Chandra-style baseline:
//!   randomness *in the algorithm*).
//!
//! Under noisy scheduling lean is the cheapest (no coin machinery); the
//! shared-coin protocol pays heavy coin costs. Under exact lockstep the
//! table flips: only the shared coin terminates — "randomness in the
//! environment can substitute for randomness in the algorithm", and
//! vice versa.

use nc_engine::sim::Sim;
use nc_engine::{setup, Algorithm, Limits};
use nc_sched::adversary::RoundRobin;
use nc_sched::{Noise, TimingModel};
use nc_theory::OnlineStats;

use crate::scenario::{Preset, Scenario, Spec};
use crate::table::{f2, Table};

/// Registry entry: E10.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Baselines;

impl Scenario for Baselines {
    fn spec(&self) -> Spec {
        Spec {
            id: "E10",
            title: "Lean vs local-coin vs shared-coin baselines, noisy and lockstep",
            artifact: "§1 framing (randomized baselines)",
            outputs: &["baseline_noisy.csv", "baseline_lockstep.csv"],
            trials_label: "trials",
            size_label: "-",
            // Lean and the local-coin variant never decide under exact
            // lockstep (that is the point of the table), so every such
            // run burns the whole lockstep op cap — the smoke tier
            // shrinks the cap, not just the trial count.
            full: Preset {
                trials: 60,
                size: 0,
                cap: 5_000_000,
            },
            smoke: Preset {
                trials: 2,
                size: 0,
                cap: 40_000,
            },
        }
    }

    fn run(&self, p: Preset, seed: u64, threads: usize) -> Vec<Table> {
        let (noisy, lockstep) = run(p.trials, p.cap, seed, threads);
        vec![noisy, lockstep]
    }
}

/// Runs the baseline comparison with the given lockstep operation cap
/// (non-deciders stop there). Returns the noisy table and the lockstep
/// table.
pub(crate) fn run(trials: u64, lockstep_cap: u64, seed0: u64, threads: usize) -> (Table, Table) {
    let algs = [Algorithm::Lean, Algorithm::Randomized, Algorithm::Backup];

    let mut noisy = Table::new(
        "E10a: under noisy scheduling (exp(1)): mean first round / total ops",
        &["algorithm", "n", "mean first round", "mean total ops"],
    );
    for alg in algs {
        for &n in &[4usize, 16, 64] {
            let timing = TimingModel::figure1(Noise::Exponential { mean: 1.0 });
            let inputs = setup::half_and_half(n);
            let mut rounds = OnlineStats::new();
            let mut ops = OnlineStats::new();
            let results = Sim::new(alg)
                .inputs(inputs.clone())
                .timing(timing)
                .trials(trials)
                .seed0(seed0)
                .seed_stride(41)
                .threads(threads)
                .map(|report| {
                    report.check_safety(&inputs).expect("safety");
                    (report.first_decision_round, report.total_ops as f64)
                });
            for (round, total) in results {
                if let Some(r) = round {
                    rounds.push(r as f64);
                }
                ops.push(total);
            }
            noisy.push(vec![
                alg.label().into(),
                n.to_string(),
                f2(rounds.mean()),
                f2(ops.mean()),
            ]);
        }
    }

    let mut lockstep = Table::new(
        "E10b: under exact lockstep round-robin (split inputs): who terminates?",
        &[
            "algorithm",
            "n",
            "terminates",
            "mean total ops when deciding",
        ],
    );
    for alg in algs {
        for &n in &[2usize, 4] {
            let inputs = setup::alternating(n);
            let mut decided_runs = 0u64;
            let mut ops = OnlineStats::new();
            let runs = 5u64;
            let mut lockstep_sim = Sim::new(alg)
                .inputs(inputs.clone())
                .adversary(|_| RoundRobin::new())
                .limits(Limits::run_to_completion().with_max_ops(lockstep_cap))
                .build();
            for t in 0..runs {
                let seed = seed0 + 1000 + t;
                let report = lockstep_sim.run(seed);
                report.check_safety(&inputs).expect("safety");
                if report.outcome.decided() {
                    decided_runs += 1;
                    ops.push(report.total_ops as f64);
                }
            }
            lockstep.push(vec![
                alg.label().into(),
                n.to_string(),
                format!("{decided_runs}/{runs}"),
                if decided_runs > 0 {
                    f2(ops.mean())
                } else {
                    "-".into()
                },
            ]);
        }
    }

    (noisy, lockstep)
}
