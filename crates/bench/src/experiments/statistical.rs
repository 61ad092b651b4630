//! E14 — the §10 statistical adversary.
//!
//! The model's fixed per-operation bound `Δ_ij ≤ M` exists only to give
//! the noise a scale; §10 conjectures that the weaker *statistical*
//! constraint `Σ_{j≤r} Δ_ij ≤ r·M` suffices for O(log n) termination.
//! The save-and-spend policy ([`nc_sched::DelayPolicy::SaveAndSpend`])
//! honours the statistical budget while violating any useful
//! per-operation bound — delays of `0, …, 0, period·M` — and this
//! experiment measures lean-consensus against it across burst periods.

use nc_engine::sim::Sim;
use nc_engine::{setup, Algorithm, Limits};
use nc_sched::{DelayPolicy, Noise, TimingModel};
use nc_theory::{fit_log2, OnlineStats};

use crate::scenario::{Preset, Scenario, Spec};
use crate::table::{f2, f3, Table};

/// Registry entry: E14.
#[derive(Clone, Copy, Debug)]
pub(crate) struct StatisticalAdversary;

impl Scenario for StatisticalAdversary {
    fn spec(&self) -> Spec {
        Spec {
            id: "E14",
            title: "Save-and-spend statistical adversary: burst-period sweep",
            artifact: "§10 (statistical adversary)",
            outputs: &["statistical_adversary.csv"],
            trials_label: "trials",
            size_label: "-",
            full: Preset {
                trials: 60,
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

/// Runs the statistical-adversary experiment.
pub(crate) fn run(trials: u64, seed0: u64, threads: usize) -> Table {
    let mut table = Table::new(
        "E14 / §10: save-and-spend statistical adversary (budget m = 1 per op)",
        &["burst period", "n", "mean first round", "ci95"],
    );
    for &period in &[1u64, 8, 64, 512] {
        let delay = DelayPolicy::SaveAndSpend { m: 1.0, period };
        let mut points = Vec::new();
        for &n in &[4usize, 16, 64, 256] {
            let timing = TimingModel::figure1(Noise::Exponential { mean: 1.0 }).with_delay(delay);
            let mut rounds = OnlineStats::new();
            for r in Sim::new(Algorithm::Lean)
                .inputs(setup::half_and_half(n))
                .timing(timing)
                .limits(Limits::first_decision())
                .trials(trials)
                .seed0(seed0)
                .seed_stride(61)
                .threads(threads)
                .map(|report| {
                    report
                        .first_decision_round
                        .expect("statistical adversary must not prevent termination")
                        as f64
                })
            {
                rounds.push(r);
            }
            points.push((n as f64, rounds.mean()));
            table.push(vec![
                period.to_string(),
                n.to_string(),
                f2(rounds.mean()),
                f2(rounds.ci95()),
            ]);
        }
        let fit = fit_log2(&points);
        table.push(vec![
            period.to_string(),
            "fit".into(),
            format!("{} + {}*log2(n)", f3(fit.intercept), f3(fit.slope)),
            format!("R^2 = {}", f3(fit.r2)),
        ]);
    }
    table
}
