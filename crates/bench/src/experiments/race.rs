//! E8 — Theorem 10 / Corollary 11: the abstract renewal race.
//!
//! Measures, independently of any consensus protocol, the round at which
//! one of `n` delayed renewal processes first leads every rival by
//! `c = 2` rounds: mean and quantiles vs `n`, the `a + b·log₂ n` fit,
//! and the geometric tail — plus the with-failures variant (the race
//! ends either with a winner or with universal extinction, Corollary
//! 11's two disjuncts).

use nc_sched::Noise;
use nc_theory::{fit_log2, quantile, run_race, OnlineStats, RaceConfig, RaceOutcome};

use crate::par_trials;
use crate::scenario::{Preset, Scenario, Spec};
use crate::table::{f2, f3, fstable, Table};

/// Registry entry: E8 (the with-failures leg covers what the experiment
/// index once split out as E12).
#[derive(Clone, Copy, Debug)]
pub(crate) struct RenewalRace;

impl Scenario for RenewalRace {
    fn spec(&self) -> Spec {
        Spec {
            id: "E8",
            title: "Abstract renewal race: lead-c stopping time and failure variant",
            artifact: "Theorem 10 / Corollary 11",
            outputs: &["renewal_race.csv", "renewal_race_failures.csv"],
            trials_label: "trials",
            size_label: "-",
            full: Preset {
                trials: 200,
                size: 0,
                cap: 0,
            },
            smoke: Preset {
                trials: 3,
                size: 0,
                cap: 0,
            },
        }
    }

    fn run(&self, p: Preset, seed: u64, threads: usize) -> Vec<Table> {
        let (sweep, failures) = run(p.trials, seed, threads);
        vec![sweep, failures]
    }
}

/// Runs the renewal-race experiment across `threads` workers. Returns
/// the sweep table and the failures table.
pub(crate) fn run(trials: u64, seed0: u64, threads: usize) -> (Table, Table) {
    let mut sweep = Table::new(
        "E8 / Corollary 11: renewal race, lead c = 2, exp(1) round noise",
        &["n", "mean R", "ci95", "p50", "p95", "p99"],
    );
    let mut points = Vec::new();
    for &n in &[2usize, 8, 32, 128, 512, 2048] {
        let cfg = RaceConfig::new(n, Noise::Exponential { mean: 1.0 });
        let outcomes = par_trials(threads, trials, |t| run_race(&cfg, seed0 + t * 7));
        let mut stats = OnlineStats::new();
        let mut rounds = Vec::new();
        for outcome in outcomes {
            match outcome {
                RaceOutcome::Winner { round, .. } => {
                    stats.push(round as f64);
                    rounds.push(round as f64);
                }
                other => panic!("race must end without failures: {other:?}"),
            }
        }
        points.push((n as f64, stats.mean()));
        sweep.push(vec![
            n.to_string(),
            f2(stats.mean()),
            f2(stats.ci95()),
            f2(quantile(&rounds, 0.5)),
            f2(quantile(&rounds, 0.95)),
            f2(quantile(&rounds, 0.99)),
        ]);
    }
    let fit = fit_log2(&points);
    sweep.push(vec![
        "fit".into(),
        format!("{} + {}*log2(n)", f3(fit.intercept), f3(fit.slope)),
        String::new(),
        String::new(),
        String::new(),
        format!("R^2 = {}", f3(fit.r2)),
    ]);

    let mut failures = Table::new(
        "E8 with halting failures (n = 64): winner or extinction, never a stall",
        &["h per round", "winners", "extinctions", "mean winning R"],
    );
    for &h in &[0.0, 0.01, 0.05, 0.2, 0.5] {
        let cfg = RaceConfig::new(64, Noise::Exponential { mean: 1.0 }).with_halt_prob(h);
        let outcomes = par_trials(threads, trials, |t| run_race(&cfg, seed0 + 50_000 + t * 13));
        let mut winners = 0u64;
        let mut extinct = 0u64;
        let mut stats = OnlineStats::new();
        for outcome in outcomes {
            match outcome {
                RaceOutcome::Winner { round, .. } => {
                    winners += 1;
                    stats.push(round as f64);
                }
                RaceOutcome::AllDied { .. } => extinct += 1,
                RaceOutcome::RoundCapReached => panic!("race stalled at h = {h}"),
            }
        }
        failures.push(vec![
            fstable(h, 3),
            winners.to_string(),
            extinct.to_string(),
            f2(stats.mean()),
        ]);
    }
    (sweep, failures)
}
