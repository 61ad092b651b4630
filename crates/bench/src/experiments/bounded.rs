//! E6 — Theorem 15: the bounded-space combined protocol.
//!
//! Sweeps the cutoff `r_max` and reports, under noisy scheduling, how
//! often the backup engages and what the run costs — plus the lockstep
//! column where lean *cannot* decide and the backup must carry every
//! run. Theorem 15's economics: at `r_max = O(log² n)` the backup's
//! engagement probability is negligible, so the expected cost matches
//! plain lean-consensus while space stays `O(log² n)` bits.

use nc_core::bounded::recommended_r_max;
use nc_engine::sim::Sim;
use nc_engine::{setup, Algorithm};
use nc_memory::RaceLayout;
use nc_sched::adversary::RoundRobin;
use nc_sched::{Noise, TimingModel};
use nc_theory::OnlineStats;

use crate::scenario::{Preset, Scenario, Spec};
use crate::table::{f2, Table};

/// Registry entry: E6.
#[derive(Clone, Copy, Debug)]
pub(crate) struct BoundedSpace;

impl Scenario for BoundedSpace {
    fn spec(&self) -> Spec {
        Spec {
            id: "E6",
            title: "Bounded-space combined protocol: backup engagement vs r_max",
            artifact: "Theorem 15",
            outputs: &["bounded_space.csv"],
            trials_label: "trials",
            size_label: "n",
            full: Preset {
                trials: 60,
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

/// Runs the bounded-space experiment for `n` processes.
pub(crate) fn run(n: usize, trials: u64, seed0: u64, threads: usize) -> Table {
    let rec = recommended_r_max(n);
    let mut table = Table::new(
        format!("E6 / Theorem 15: bounded protocol, n = {n} (recommended r_max = {rec})"),
        &[
            "r_max",
            "lean bits",
            "backup rate (noisy)",
            "mean ops (noisy)",
            "lockstep decided",
            "mean ops (lockstep)",
        ],
    );
    let timing = TimingModel::figure1(Noise::Exponential { mean: 1.0 });

    let mut r_maxes = vec![2usize, 3, 4, 6, 8, 12, 16];
    if !r_maxes.contains(&rec) {
        r_maxes.push(rec);
    }

    for r_max in r_maxes {
        // Noisy scheduling: measure engagement rate + cost.
        let inputs = setup::half_and_half(n);
        let mut engaged = 0u64;
        let mut ops = OnlineStats::new();
        let results = Sim::new(Algorithm::Bounded { r_max })
            .inputs(inputs.clone())
            .timing(timing)
            .trials(trials)
            .seed0(seed0)
            .seed_stride(17)
            .threads(threads)
            .map(|report| {
                report.check_safety(&inputs).expect("safety");
                (
                    report.total_ops as f64,
                    report.decision_rounds.iter().flatten().any(|&r| r > r_max),
                )
            });
        for (total, hit_backup) in results {
            ops.push(total);
            if hit_backup {
                engaged += 1;
            }
        }

        // Lockstep: lean can never decide; the backup must.
        let mut lockstep_ops = OnlineStats::new();
        let mut lockstep_ok = true;
        let inputs = setup::alternating(n.min(8)); // lockstep cost grows fast
        let mut lockstep = Sim::new(Algorithm::Bounded { r_max })
            .inputs(inputs.clone())
            .adversary(|_| RoundRobin::new())
            .build();
        for t in 0..trials.min(10) {
            let seed = seed0 + 90_000 + t;
            let report = lockstep.run(seed);
            report.check_safety(&inputs).expect("safety");
            lockstep_ok &= report.outcome.decided();
            lockstep_ops.push(report.total_ops as f64);
        }

        table.push(vec![
            r_max.to_string(),
            RaceLayout::words_for_rounds(r_max).to_string(),
            format!("{engaged}/{trials}"),
            f2(ops.mean()),
            lockstep_ok.to_string(),
            f2(lockstep_ops.mean()),
        ]);
    }
    table
}
