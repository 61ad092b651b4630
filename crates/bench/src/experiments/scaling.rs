//! E3 — Theorem 12: expected Θ(log n) rounds, with and without random
//! halting failures, plus the exponential tail.
//!
//! For each failure rate `h` the table reports mean first-decision round
//! across a log-spaced `n` sweep and the least-squares fit
//! `a + b·log₂ n`; the tail table reports `Pr[round > k]` at `n = 256`,
//! which Corollary 11 predicts decays geometrically in `k / O(log n)`.

use nc_engine::sim::Sim;
use nc_engine::{setup, Algorithm, Limits};
use nc_sched::{FailureModel, Noise, TimingModel};
use nc_theory::{fit_log2, OnlineStats};

use crate::scenario::{Preset, Scenario, Spec};
use crate::table::{f2, f3, fstable, Table};

/// Registry entry: E3.
#[derive(Clone, Copy, Debug)]
pub(crate) struct TerminationScaling;

impl Scenario for TerminationScaling {
    fn spec(&self) -> Spec {
        Spec {
            id: "E3",
            title: "Θ(log n) termination, halting-failure sweep, exponential tail",
            artifact: "Theorem 12",
            outputs: &["termination_scaling.csv", "termination_tail.csv"],
            trials_label: "trials",
            size_label: "-",
            full: Preset {
                trials: 100,
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
        let (sweep, tail) = run(p.trials, seed, threads);
        vec![sweep, tail]
    }
}

/// Mean first-decision round; failed (all-halted) runs are skipped.
fn sweep_point(h: f64, n: usize, trials: u64, seed0: u64, threads: usize) -> (OnlineStats, u64) {
    let timing = TimingModel::figure1(Noise::Exponential { mean: 1.0 })
        .with_failures(FailureModel::Random { per_op: h });
    let rounds = Sim::new(Algorithm::Lean)
        .inputs(setup::half_and_half(n))
        .timing(timing)
        .limits(Limits::first_decision())
        .trials(trials)
        .seed0(seed0)
        .seed_stride(131)
        .threads(threads)
        .map(|report| report.first_decision_round);
    let mut stats = OnlineStats::new();
    let mut extinct = 0;
    for r in rounds {
        match r {
            Some(r) => stats.push(r as f64),
            None => extinct += 1,
        }
    }
    (stats, extinct)
}

/// Runs the termination-scaling experiment. Returns the sweep table and
/// the tail table.
pub(crate) fn run(trials: u64, seed0: u64, threads: usize) -> (Table, Table) {
    let ns = [2usize, 8, 32, 128, 512];
    let hs = [0.0, 0.001, 0.01];

    let mut sweep = Table::new(
        "E3 / Theorem 12: mean first-decision round vs n (lean, exp(1) noise)",
        &[
            "h per op",
            "n",
            "trials",
            "mean round",
            "ci95",
            "extinct runs",
        ],
    );

    for &h in &hs {
        let mut points = Vec::new();
        for &n in &ns {
            let (stats, extinct) = sweep_point(h, n, trials, seed0, threads);
            sweep.push(vec![
                fstable(h, 3),
                n.to_string(),
                trials.to_string(),
                f2(stats.mean()),
                f2(stats.ci95()),
                extinct.to_string(),
            ]);
            if stats.count() > 0 {
                points.push((n as f64, stats.mean()));
            }
        }
        if points.len() >= 2 {
            let fit = fit_log2(&points);
            sweep.push(vec![
                fstable(h, 3),
                "fit".into(),
                String::new(),
                format!("{} + {}*log2(n)", f3(fit.intercept), f3(fit.slope)),
                format!("R^2 = {}", f3(fit.r2)),
                String::new(),
            ]);
        }
    }

    // Tail at n = 256, h = 0.
    let n = 256;
    let timing = TimingModel::figure1(Noise::Exponential { mean: 1.0 });
    let rounds: Vec<f64> = Sim::new(Algorithm::Lean)
        .inputs(setup::half_and_half(n))
        .timing(timing)
        .limits(Limits::first_decision())
        .trials(trials * 4)
        .seed0(seed0 + 777)
        .threads(threads)
        .map(|report| report.first_decision_round.unwrap() as f64);
    let mut tail = Table::new(
        format!(
            "E3 tail: Pr[first-decision round > k] at n = {n} ({} trials)",
            rounds.len()
        ),
        &["k", "Pr[round > k]"],
    );
    let mean = rounds.iter().sum::<f64>() / rounds.len() as f64;
    for mult in 1..=5 {
        let k = (mean * mult as f64).round();
        let p = rounds.iter().filter(|&&r| r > k).count() as f64 / rounds.len() as f64;
        tail.push(vec![format!("{} ({mult}x mean)", fstable(k, 0)), f3(p)]);
    }

    (sweep, tail)
}
