//! E16 — adversary strategy search: how many rounds can a *searched*
//! adaptive adversary force, compared to the oblivious baseline?
//!
//! Theorem 12's Θ(log n) bound holds against **every** adversary, so an
//! empirical reproduction must do better than sampling random schedules
//! — it has to *look for* bad ones. This scenario runs the
//! `nc_adversary` tournament at each protocol size: a grid sweep over
//! [`StrategyFamily::standard`] (budget schedule × target rule ×
//! trigger threshold, every adaptive point a budget-limited override of
//! the same oblivious pick stream), scoring each strategy by the mean
//! round at which the first decision lands (capped runs score the round
//! frontier they reached — a lower bound, never an inflation).
//!
//! The table reports, per `n`, the oblivious baseline's mean forced
//! round next to the strongest adaptive strategy's label and score, and
//! closes with a `fit_log2` row over the worst-adaptive means: the
//! empirically worst searched strategy still grows like O(log n), which
//! is the paper's claim under adaptive scheduling (§10). The runner
//! asserts at every `n` that the worst adaptive strategy forces at least
//! the oblivious baseline's mean round, the whole point of searching.

use nc_adversary::{StrategyFamily, Tournament};
use nc_sched::rng::{salts, trial_seed};
use nc_theory::fit_log2;

use crate::scenario::{Preset, Scenario, Spec};
use crate::table::{f2, f3, Table};

/// Registry entry: E16.
#[derive(Clone, Copy, Debug)]
pub struct AdversarySearch;

impl Scenario for AdversarySearch {
    fn spec(&self) -> Spec {
        Spec {
            id: "E16",
            title:
                "Adversary strategy search: worst searched adaptive schedule vs oblivious baseline",
            artifact: "Theorem 12 / §10 (adaptive adversaries)",
            outputs: &["adversary_search.csv"],
            trials_label: "trials",
            size_label: "max-n",
            full: Preset {
                trials: 40,
                size: 64,
                cap: 200_000,
            },
            smoke: Preset {
                trials: 2,
                size: 8,
                cap: 20_000,
            },
        }
    }

    fn run(&self, p: Preset, seed: u64, threads: usize) -> Vec<Table> {
        vec![run_search(p.size, p.trials, p.cap, seed, threads)]
    }
}

/// The tournament sweep: powers of two from 4 to `max_n`, one full grid
/// search per size, worst-adaptive means fitted against log2(n).
pub fn run_search(max_n: usize, trials: u64, cap: u64, seed0: u64, threads: usize) -> Table {
    let mut table = Table::new(
        format!(
            "E16 / adversary strategy search: forced first-decision round, grid sweep over \
             {} strategy points, {trials} trials/point (op cap {cap})",
            StrategyFamily::standard().points().len()
        ),
        &[
            "n",
            "oblivious mean round",
            "worst strategy",
            "worst mean round",
            "worst max round",
            "adaptive/oblivious",
            "capped trials",
        ],
    );
    let family = StrategyFamily::standard();
    let mut points = Vec::new();
    let mut n = 4usize;
    let mut idx = 0u64;
    while n <= max_n {
        let result = Tournament::new(n)
            .trials(trials)
            .seed0(trial_seed(seed0, idx, salts::STRATEGY))
            .max_ops(cap)
            .threads(threads)
            .sweep(&family);
        let oblivious = result
            .oblivious()
            .expect("standard family has the baseline");
        let worst = result
            .worst_adaptive()
            .expect("standard family has adaptive points");
        assert!(
            worst.mean_round >= oblivious.mean_round,
            "n = {n}: searched adaptive {} ({}) scored below oblivious ({})",
            worst.label,
            worst.mean_round,
            oblivious.mean_round
        );
        points.push((n as f64, worst.mean_round));
        table.push(vec![
            n.to_string(),
            f2(oblivious.mean_round),
            worst.label.clone(),
            f2(worst.mean_round),
            worst.worst_round.to_string(),
            f3(worst.mean_round / oblivious.mean_round),
            worst.capped.to_string(),
        ]);
        n *= 2;
        idx += 1;
    }
    let fit = fit_log2(&points);
    table.push(vec![
        "fit".into(),
        String::new(),
        "worst-adaptive mean".into(),
        format!("{} + {}*log2(n)", f3(fit.intercept), f3(fit.slope)),
        format!("R^2 = {}", f3(fit.r2)),
        String::new(),
        String::new(),
    ]);
    table
}
