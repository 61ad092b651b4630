//! E2 — Lemma 3: with unanimous inputs, every process decides the input
//! after **exactly 8 operations**, under any schedule and any n.
//!
//! The table reports, per (algorithm, n), the min/max per-process
//! operation count over noisy runs and a round-robin adversarial run —
//! for the paper's algorithm both must be exactly 8.

use nc_engine::sim::Sim;
use nc_engine::{setup, Algorithm};
use nc_memory::Bit;
use nc_sched::adversary::RoundRobin;
use nc_sched::{Noise, TimingModel};

use crate::scenario::{Preset, Scenario, Spec};
use crate::table::Table;

/// Registry entry: E2.
#[derive(Clone, Copy, Debug)]
pub(crate) struct ValidityCost;

impl Scenario for ValidityCost {
    fn spec(&self) -> Spec {
        Spec {
            id: "E2",
            title: "Validity cost: exactly 8 ops with unanimous inputs",
            artifact: "Lemma 3",
            outputs: &["validity_cost.csv"],
            trials_label: "trials",
            size_label: "-",
            full: Preset {
                trials: 20,
                size: 0,
                cap: 0,
            },
            smoke: Preset {
                trials: 2,
                size: 0,
                cap: 0,
            },
        }
    }

    fn run(&self, p: Preset, seed: u64, threads: usize) -> Vec<Table> {
        vec![run(p.trials, seed, threads)]
    }
}

/// Runs the validity-cost experiment.
pub(crate) fn run(trials: u64, seed0: u64, threads: usize) -> Table {
    let mut table = Table::new(
        "E2 / Lemma 3: per-process ops with unanimous inputs (expect exactly 8 for lean)",
        &[
            "algorithm",
            "n",
            "schedule",
            "min ops",
            "max ops",
            "all decided input",
        ],
    );
    let algorithms = [Algorithm::Lean, Algorithm::Skipping, Algorithm::Randomized];
    for alg in algorithms {
        for n in [1usize, 4, 16, 64] {
            for input in Bit::BOTH {
                let inputs = setup::unanimous(n, input);
                // Noisy schedule.
                let mut min_ops = u64::MAX;
                let mut max_ops = 0u64;
                let mut valid = true;
                let timing = TimingModel::figure1(Noise::Exponential { mean: 1.0 });
                let results = Sim::new(alg)
                    .inputs(inputs.clone())
                    .timing(timing)
                    .trials(trials)
                    .seed0(seed0)
                    .threads(threads)
                    .map(|report| {
                        report.check_safety(&inputs).expect("safety");
                        (
                            *report.ops.iter().min().unwrap(),
                            *report.ops.iter().max().unwrap(),
                            report.decisions.iter().all(|&d| d == Some(input)),
                        )
                    });
                for (lo, hi, ok) in results {
                    min_ops = min_ops.min(lo);
                    max_ops = max_ops.max(hi);
                    valid &= ok;
                }
                table.push(vec![
                    alg.label().into(),
                    n.to_string(),
                    format!("noisy exp(1) input {input}"),
                    min_ops.to_string(),
                    max_ops.to_string(),
                    valid.to_string(),
                ]);
            }
            // Adversarial round-robin (one run; deterministic).
            let inputs = setup::unanimous(n, Bit::One);
            let report = Sim::new(alg)
                .inputs(inputs.clone())
                .adversary(|_| RoundRobin::new())
                .build()
                .run(seed0);
            report.check_safety(&inputs).expect("safety");
            table.push(vec![
                alg.label().into(),
                n.to_string(),
                "round-robin".into(),
                report.ops.iter().min().unwrap().to_string(),
                report.ops.iter().max().unwrap().to_string(),
                report
                    .decisions
                    .iter()
                    .all(|&d| d == Some(Bit::One))
                    .to_string(),
            ]);
        }
    }
    table
}
