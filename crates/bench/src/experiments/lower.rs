//! E4 — Theorem 13: the Ω(log n) lower bound.
//!
//! The construction: every operation takes 1 or 2 time units with equal
//! probability. With probability ≈ `(1 − e^{−1/2})² ≈ 0.155` (as n → ∞)
//! at least one process on *each* team runs its first `log₂ n`
//! operations at full speed, keeping the teams tied for `Ω(log n)`
//! rounds. The table reports the mean first-decision round and the
//! empirically measured probability that disagreement survives past
//! `log₂ n` *operations-at-full-speed* rounds, alongside the asymptotic
//! constant.

use nc_engine::sim::Sim;
use nc_engine::{setup, Algorithm, Limits};
use nc_sched::{Noise, TimingModel};
use nc_theory::{fit_log2, OnlineStats};

use crate::scenario::{Preset, Scenario, Spec};
use crate::table::{f2, f3, Table};

/// Registry entry: E4.
#[derive(Clone, Copy, Debug)]
pub(crate) struct LowerBound;

impl Scenario for LowerBound {
    fn spec(&self) -> Spec {
        Spec {
            id: "E4",
            title: "Ω(log n) lower bound via two-point {1,2} noise",
            artifact: "Theorem 13",
            outputs: &["lower_bound.csv"],
            trials_label: "trials",
            size_label: "-",
            full: Preset {
                trials: 150,
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

/// Runs the lower-bound experiment.
pub(crate) fn run(trials: u64, seed0: u64, threads: usize) -> Table {
    let mut table = Table::new(
        "E4 / Theorem 13: two-point {1,2} noise (lower-bound construction)",
        &[
            "n",
            "mean round (two-point)",
            "ci95",
            "mean round (exponential)",
            "Pr[round > log2 n / 2]",
        ],
    );
    let mut points = Vec::new();
    for &n in &[4usize, 16, 64, 256, 1024] {
        let inputs = setup::half_and_half(n);
        let threshold = ((n as f64).log2() / 2.0).max(2.0);
        let measure = |noise: Noise| -> Vec<f64> {
            Sim::new(Algorithm::Lean)
                .inputs(inputs.clone())
                .timing(TimingModel::figure1(noise))
                .limits(Limits::first_decision())
                .trials(trials)
                .seed0(seed0)
                .seed_stride(37)
                .threads(threads)
                .map(|report| report.first_decision_round.unwrap() as f64)
        };
        let mut tp = OnlineStats::new();
        let mut survive = 0u64;
        for round in measure(Noise::theorem13()) {
            tp.push(round);
            if round > threshold {
                survive += 1;
            }
        }
        let mut exp = OnlineStats::new();
        for round in measure(Noise::Exponential { mean: 1.0 }) {
            exp.push(round);
        }
        points.push((n as f64, tp.mean()));
        table.push(vec![
            n.to_string(),
            f2(tp.mean()),
            f2(tp.ci95()),
            f2(exp.mean()),
            f3(survive as f64 / trials as f64),
        ]);
    }
    let fit = fit_log2(&points);
    table.push(vec![
        "fit".into(),
        format!("{} + {}*log2(n)", f3(fit.intercept), f3(fit.slope)),
        String::new(),
        String::new(),
        format!(
            "asymptotic (1-e^-0.5)^2 = {}",
            f3((1.0 - (-0.5f64).exp()).powi(2))
        ),
    ]);
    table
}
