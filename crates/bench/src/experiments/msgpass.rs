//! E13 — the §10 message-passing extension.
//!
//! lean-consensus runs unchanged over ABD-emulated registers; each
//! message suffers i.i.d. noisy delay. The table reports, per delay
//! distribution and n: mean first... strictly, mean *max* lean round,
//! messages delivered, and agreement — and quantifies the quorum
//! noise-attenuation effect (quorum waits average ~2n message delays per
//! emulated operation, concentrating per-op durations, so the race needs
//! more rounds than raw shared memory with the same distribution).

use nc_memory::Bit;
use nc_sched::Noise;
use nc_theory::OnlineStats;

use nc_msg::{run_message_passing, MsgConfig, Outcome};

use crate::par_trials;
use crate::scenario::{Preset, Scenario, Spec};
use crate::table::{f2, Table};

/// Registry entry: E13.
#[derive(Clone, Copy, Debug)]
pub(crate) struct MessagePassing;

impl Scenario for MessagePassing {
    fn spec(&self) -> Spec {
        Spec {
            id: "E13",
            title: "Lean-consensus over ABD registers on a noisy network",
            artifact: "§10 (message-passing extension)",
            outputs: &["message_passing.csv", "message_passing_crashes.csv"],
            trials_label: "trials",
            size_label: "max-n",
            // A single n = 9 two-point trial delivers ~170k messages;
            // the smoke tier stops at n = 5 to keep debug-build golden
            // runs in the milliseconds.
            full: Preset {
                trials: 15,
                size: 9,
                cap: 0,
            },
            smoke: Preset {
                trials: 2,
                size: 5,
                cap: 0,
            },
        }
    }

    fn run(&self, p: Preset, seed: u64, threads: usize) -> Vec<Table> {
        let (sweep, crashes) = run(p.trials, p.size, seed, threads);
        vec![sweep, crashes]
    }
}

/// Runs the message-passing experiment over the cluster sizes 3, 5 and
/// 9 up to `max_n` (`max_n` alone when it is below 3) across `threads`
/// workers. Returns the sweep table and the crash-tolerance table.
pub(crate) fn run(trials: u64, max_n: usize, seed0: u64, threads: usize) -> (Table, Table) {
    let mut sizes: Vec<usize> = [3, 5, 9].into_iter().filter(|&n| n <= max_n).collect();
    if sizes.is_empty() {
        sizes.push(max_n);
    }
    let mut sweep = Table::new(
        "E13 / §10: lean-consensus over ABD registers on a noisy network",
        &[
            "delay distribution",
            "n",
            "agreement",
            "mean max round",
            "mean deliveries",
            "mean sim time",
        ],
    );
    for (name, delay) in [
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
        for &n in &sizes {
            let mut rounds = OnlineStats::new();
            let mut deliveries = OnlineStats::new();
            let mut times = OnlineStats::new();
            let mut agree = true;
            let reports = par_trials(threads, trials, |t| {
                let seed = seed0 + t * 29;
                let cfg = MsgConfig::new(n, delay);
                run_message_passing(&cfg, seed)
            });
            for (t, report) in reports.into_iter().enumerate() {
                let seed = seed0 + t as u64 * 29;
                assert_eq!(
                    report.outcome,
                    Outcome::Decided,
                    "{name} n={n} seed {seed} did not complete"
                );
                let decisions: Vec<Bit> = report.decisions.iter().map(|d| d.unwrap()).collect();
                agree &= decisions.iter().all(|&d| d == decisions[0]);
                rounds.push(*report.rounds.iter().max().unwrap() as f64);
                deliveries.push(report.deliveries as f64);
                times.push(report.sim_time);
            }
            sweep.push(vec![
                name.into(),
                n.to_string(),
                agree.to_string(),
                f2(rounds.mean()),
                f2(deliveries.mean()),
                f2(times.mean()),
            ]);
        }
    }

    let mut crash_table = Table::new(
        "E13 crash tolerance: minority crashes mid-run (ABD quorums carry on)",
        &["n", "crashed", "live agreement", "mean max round"],
    );
    for &n in &sizes {
        // The largest minority: ABD's quorums outlive it.
        let crash_count = (n - 1) / 2;
        let mut rounds = OnlineStats::new();
        let mut agree = true;
        for t in 0..trials {
            let seed = seed0 + 31_000 + t * 7;
            let crashes: Vec<(u32, u64)> = (0..crash_count as u32)
                .map(|i| (i, 40 + 60 * i as u64))
                .collect();
            let cfg = MsgConfig::new(n, Noise::Exponential { mean: 1.0 }).with_crashes(crashes);
            let report = run_message_passing(&cfg, seed);
            assert_eq!(report.outcome, Outcome::Decided, "n={n} seed {seed}");
            let live: Vec<Bit> = report.decisions[crash_count..]
                .iter()
                .map(|d| d.expect("live node must decide"))
                .collect();
            agree &= live.iter().all(|&d| d == live[0]);
            rounds.push(*report.rounds.iter().max().unwrap() as f64);
        }
        crash_table.push(vec![
            n.to_string(),
            crash_count.to_string(),
            agree.to_string(),
            f2(rounds.mean()),
        ]);
    }
    (sweep, crash_table)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_below_the_grid_run_max_n_alone() {
        for max_n in [1, 2] {
            let (sweep, crashes) = run(1, max_n, 1, 1);
            assert_eq!(sweep.rows.len(), 3, "one row per delay distribution");
            assert!(sweep.rows.iter().all(|row| row[1] == max_n.to_string()));
            assert_eq!(crashes.rows.len(), 1);
            assert_eq!(crashes.rows[0][..2], [max_n.to_string(), "0".to_string()]);
        }
    }
}
