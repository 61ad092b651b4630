//! E11 — §10: adaptive (non-random) crash failures.
//!
//! The leader-killer adversary crashes whichever process pulls a full
//! round ahead of every other live process, up to a budget of `f`
//! crashes. (A 2-round lead is already a decision, so the adversary must
//! strike at lead 1 — the "kill each emerging leader" strategy behind
//! the paper's O(f log n) restart argument.)
//!
//! Measured result: mean rounds stay **flat** in `f` — the budget is
//! spent, but termination is unaffected. This is direct evidence for the
//! paper's §10 conjecture that the true bound is `O(log n)` even under
//! adaptive crashes: termination comes from mass adoption of the leading
//! team's value ("agreement among leaders", §9), not from one
//! irreplaceable frontrunner, so killing frontrunners buys the adversary
//! nothing.

use nc_engine::sim::Sim;
use nc_engine::{setup, Algorithm};
use nc_sched::adversary::LeaderKiller;
use nc_sched::{Noise, TimingModel};
use nc_theory::OnlineStats;

use crate::scenario::{Preset, Scenario, Spec};
use crate::table::{f2, Table};

/// Registry entry: E11.
#[derive(Clone, Copy, Debug)]
pub(crate) struct AdaptiveCrashes;

impl Scenario for AdaptiveCrashes {
    fn spec(&self) -> Spec {
        Spec {
            id: "E11",
            title: "Adaptive leader-killer crashes: flat rounds vs crash budget",
            artifact: "§10 (adaptive crashes)",
            outputs: &["crash_failures.csv"],
            trials_label: "trials",
            size_label: "n",
            full: Preset {
                trials: 100,
                size: 16,
                cap: 0,
            },
            smoke: Preset {
                trials: 3,
                size: 8,
                cap: 0,
            },
        }
    }

    fn run(&self, p: Preset, seed: u64, threads: usize) -> Vec<Table> {
        vec![run(p.size, p.trials, seed, threads)]
    }
}

/// Runs the adaptive-crash experiment.
pub(crate) fn run(n: usize, trials: u64, seed0: u64, threads: usize) -> Table {
    let mut table = Table::new(
        format!("E11 / §10: adaptive leader-killer, n = {n} (flat rounds support the O(log n) conjecture)"),
        &[
            "crash budget f",
            "mean first round",
            "ci95",
            "rounds / (f+1)",
            "mean crashes used",
        ],
    );
    let timing = TimingModel::figure1(Noise::Exponential { mean: 1.0 });
    for f in [0usize, 1, 2, 4, 8, 12] {
        let mut rounds = OnlineStats::new();
        let mut used = OnlineStats::new();
        let inputs = setup::half_and_half(n);
        let results = Sim::new(Algorithm::Lean)
            .inputs(inputs.clone())
            .timing(timing)
            .crash_adversary(move |_| LeaderKiller::new(f, 1))
            .trials(trials)
            .seed0(seed0)
            .seed_stride(53)
            .threads(threads)
            .map(|report| {
                report.check_safety(&inputs).expect("safety");
                // The killer only ever crashes live processes and there
                // are no random failures here, so the halted flags count
                // exactly the crashes the adversary spent.
                let crashes = report.halted.iter().filter(|&&h| h).count();
                (report.first_decision_round, crashes as f64)
            });
        for (round, crashed) in results {
            if let Some(r) = round {
                rounds.push(r as f64);
            }
            used.push(crashed);
        }
        table.push(vec![
            f.to_string(),
            f2(rounds.mean()),
            f2(rounds.ci95()),
            f2(rounds.mean() / (f as f64 + 1.0)),
            f2(used.mean()),
        ]);
    }
    table
}
