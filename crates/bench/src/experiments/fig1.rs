//! E1 — Figure 1 (§9): mean round of first termination vs. number of
//! processes, for the six interarrival distributions.
//!
//! Paper setup, reproduced exactly: half the processes start with input
//! 0 and half with 1; starting times are equal up to a `U(0, 1e-8)`
//! dither; no failures; the measured quantity is the round at which the
//! **first** process terminates, averaged over trials. The paper uses
//! 10 000 trials per point up to `n = 100 000`; trials here scale down
//! with `n` to keep the event budget laptop-sized (tunable).
//!
//! Each point is one [`nc_engine::sim::TrialSet`] sweep: monomorphized
//! lean trials fan out across the sweep's own worker count. Per-trial
//! seeds derive from the trial index alone, so the sweep is
//! **bit-for-bit identical** at every `threads` setting (pinned by the
//! determinism regression tests).

use nc_engine::sim::Sim;
use nc_engine::{setup, Algorithm, Limits};
use nc_sched::{Noise, TimingModel};
use nc_theory::OnlineStats;

use crate::scenario::{Preset, Scenario, Spec};
use crate::table::{f2, Table};
use crate::{figure1_ns, trials_for};

/// One measured Figure 1 point: first-decision round statistics plus
/// the number of trials that were skipped because they never produced a
/// decision within the operation budget (possible only for degenerate
/// noise configurations, which violate the model's assumptions).
#[derive(Clone, Debug)]
pub struct PointStats {
    /// First-decision round over the decided trials.
    pub rounds: OnlineStats,
    /// Trials that hit the operation cap undecided.
    pub skipped: u64,
}

/// Derives trial `t`'s seed from the sweep seed (the scheme the seed
/// harness used; kept verbatim so recorded results and the golden CSVs
/// stay comparable — new scenarios use [`nc_sched::rng::trial_seed`]
/// instead, see `docs/experiments.md`).
#[inline]
fn trial_seed(seed0: u64, t: u64) -> u64 {
    seed0 ^ t.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Measures one Figure 1 point across `threads` workers.
///
/// Degenerate noise (which the model forbids, e.g. constant delays) can
/// make runs lockstep forever; instead of aborting the sweep, such
/// trials run against a reduced operation cap, are skipped, and are
/// counted in [`PointStats::skipped`].
pub fn point(noise: Noise, n: usize, trials: u64, seed0: u64, threads: usize) -> PointStats {
    let timing = TimingModel::figure1(noise);
    let inputs = setup::half_and_half(n);
    let limits = if timing.noise.is_degenerate() {
        // A degenerate config will burn its entire budget on every
        // trial; keep the budget proportionate (and never above the
        // default cap) so the sweep still finishes in reasonable time.
        let default_cap = Limits::first_decision().max_ops;
        Limits::first_decision().with_max_ops((100_000 * n as u64).min(default_cap))
    } else {
        Limits::first_decision()
    };

    let rounds: Vec<Option<usize>> = Sim::new(Algorithm::Lean)
        .inputs(inputs)
        .timing(timing)
        .limits(limits)
        .trials(trials)
        .seed_fn(move |t| trial_seed(seed0, t))
        .threads(threads)
        .map(|report| report.first_decision_round);

    // Fold in trial order: Welford accumulation order affects the
    // floating-point result, so this order is part of the determinism
    // contract.
    let mut stats = OnlineStats::new();
    let mut skipped = 0;
    for r in rounds {
        match r {
            Some(round) => stats.push(round as f64),
            None => skipped += 1,
        }
    }
    PointStats {
        rounds: stats,
        skipped,
    }
}

/// Runs the full Figure 1 sweep.
///
/// Columns: one row per `n`, one mean-round column per distribution
/// (plus a 95% CI half-width column each), and a trailing column
/// counting skipped (never-decided) runs — always `0` for the paper's
/// six distributions.
pub(crate) fn run(max_n: usize, base_trials: u64, seed: u64, threads: usize) -> Table {
    let suite = Noise::figure1_suite();
    let mut columns: Vec<String> = vec!["n".into(), "trials".into()];
    for (name, _) in &suite {
        columns.push(name.to_string());
        columns.push(format!("{name} ci95"));
    }
    columns.push("skipped runs".into());
    let mut table = Table {
        title: format!("E1 / Figure 1: mean round of first termination (seed {seed})"),
        columns,
        rows: Vec::new(),
    };

    for n in figure1_ns(max_n) {
        let trials = trials_for(n, base_trials);
        let mut row = vec![n.to_string(), trials.to_string()];
        let mut skipped = 0;
        for &(_, noise) in &suite {
            let p = point(noise, n, trials, seed, threads);
            row.push(f2(p.rounds.mean()));
            row.push(f2(p.rounds.ci95()));
            skipped += p.skipped;
        }
        row.push(skipped.to_string());
        table.rows.push(row);
        eprintln!("fig1: n = {n} done ({trials} trials/distribution)");
    }
    table
}

/// Registry entry: E1, the paper's headline figure.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Fig1;

impl Scenario for Fig1 {
    fn spec(&self) -> Spec {
        Spec {
            id: "E1",
            title: "Figure 1: mean first-termination round vs n, six distributions",
            artifact: "Figure 1 (§9)",
            outputs: &["fig1.csv"],
            trials_label: "trials",
            size_label: "max-n",
            full: Preset {
                trials: 1_000,
                size: 100_000,
                cap: 0,
            },
            smoke: Preset {
                trials: 5,
                size: 12,
                cap: 0,
            },
        }
    }

    fn run(&self, p: Preset, seed: u64, threads: usize) -> Vec<Table> {
        vec![run(p.size, p.trials, seed, threads)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn healthy_point_never_skips() {
        let p = point(Noise::Uniform { lo: 0.0, hi: 2.0 }, 8, 40, 7, 1);
        assert_eq!(p.skipped, 0);
        assert_eq!(p.rounds.count(), 40);
        assert!(p.rounds.mean() >= 2.0);
    }

    #[test]
    fn degenerate_point_skips_instead_of_panicking() {
        // Constant noise + common start = lockstep: no decision, ever.
        // The seed harness aborted the whole sweep here; now it counts.
        let p = point(Noise::Constant { value: 1.0 }, 4, 3, 3, 1);
        assert_eq!(p.skipped, 3);
        assert_eq!(p.rounds.count(), 0);
    }
}
