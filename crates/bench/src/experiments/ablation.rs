//! E9 — the §4 ablation: "superfluous" operations are load-bearing.
//!
//! The paper warns that eliminating the redundant write / final read
//! helps **slow** processes (who should fall behind) while fast
//! processes save nothing — keeping the race tight and delaying
//! termination. The table compares the paper's algorithm with the
//! skip-ops variant on identical seeds: rounds and simulated *time* to
//! first decision, and total operations to full completion.
//!
//! Measured nuance (E9 at its full preset): in **rounds** — the metric of
//! the paper's own Figure 1 — the prediction holds for the continuous
//! distributions at scale (skip is slower for exponential/uniform at
//! n ≥ 64), but *reverses* for the two-point distribution, where
//! near-lockstep phase alignment is what sustains the tie and the skip
//! variant's 2-op rounds inject exactly the phase jitter that breaks it.
//! In aggregate time/ops the laggards' savings dominate at these n, so
//! the skip variant looks cheaper globally; the paper's warning is about
//! the deciding processes' round count, which is what the verdict column
//! reports.

use nc_engine::sim::Sim;
use nc_engine::{setup, Algorithm};
use nc_sched::{Noise, TimingModel};
use nc_theory::OnlineStats;

use crate::scenario::{Preset, Scenario, Spec};
use crate::table::{f2, Table};

/// Registry entry: E9.
#[derive(Clone, Copy, Debug)]
pub(crate) struct SkipAblation;

impl Scenario for SkipAblation {
    fn spec(&self) -> Spec {
        Spec {
            id: "E9",
            title: "Skip-ops ablation: \"superfluous\" operations are load-bearing",
            artifact: "§4 discussion",
            outputs: &["ablation_skip.csv"],
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
        vec![run(p.trials, seed, threads)]
    }
}

/// Runs the skip-ops ablation.
pub(crate) fn run(trials: u64, seed0: u64, threads: usize) -> Table {
    let mut table = Table::new(
        "E9 / §4 ablation: paper ops vs skip-ops variant (same seeds)",
        &[
            "n",
            "distribution",
            "lean mean round",
            "skip mean round",
            "lean mean time",
            "skip mean time",
            "lean mean total ops",
            "skip mean total ops",
            "skip slower (rounds)?",
        ],
    );
    for &n in &[16usize, 64, 256] {
        for (name, noise) in [
            ("exponential(1)", Noise::Exponential { mean: 1.0 }),
            ("uniform [0,2]", Noise::Uniform { lo: 0.0, hi: 2.0 }),
            (
                "2/3,4/3",
                Noise::TwoPoint {
                    lo: 2.0 / 3.0,
                    hi: 4.0 / 3.0,
                },
            ),
        ] {
            let timing = TimingModel::figure1(noise);
            let inputs = setup::half_and_half(n);
            let mut lean_rounds = OnlineStats::new();
            let mut skip_rounds = OnlineStats::new();
            let mut lean_time = OnlineStats::new();
            let mut skip_time = OnlineStats::new();
            let mut lean_ops = OnlineStats::new();
            let mut skip_ops = OnlineStats::new();
            // Two sweeps over identical per-trial seeds (paired runs):
            // trial t of each sweep uses seed0 + t * 23.
            let measure = |alg: Algorithm| {
                Sim::new(alg)
                    .inputs(inputs.clone())
                    .timing(timing)
                    .trials(trials)
                    .seed0(seed0)
                    .seed_stride(23)
                    .threads(threads)
                    .map(|r| {
                        (
                            r.first_decision_round.unwrap() as f64,
                            r.first_decision_time.unwrap(),
                            r.total_ops as f64,
                        )
                    })
            };
            let lean_runs = measure(Algorithm::Lean);
            let skip_runs = measure(Algorithm::Skipping);
            for (a, b) in lean_runs.into_iter().zip(skip_runs) {
                lean_rounds.push(a.0);
                lean_time.push(a.1);
                lean_ops.push(a.2);
                skip_rounds.push(b.0);
                skip_time.push(b.1);
                skip_ops.push(b.2);
            }
            table.push(vec![
                n.to_string(),
                name.into(),
                f2(lean_rounds.mean()),
                f2(skip_rounds.mean()),
                f2(lean_time.mean()),
                f2(skip_time.mean()),
                f2(lean_ops.mean()),
                f2(skip_ops.mean()),
                (skip_rounds.mean() > lean_rounds.mean()).to_string(),
            ]);
        }
    }
    table
}
