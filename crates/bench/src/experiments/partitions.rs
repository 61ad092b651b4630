//! E17 — partition-tolerant networking: message loss, duplication,
//! link-cut schedules, and the retry/gossip recovery plane.
//!
//! E13 showed lean-consensus-over-ABD terminating on a *reliable* noisy
//! network; this scenario stresses the network itself, with the
//! deterministic fault plane of `nc_msg::faults`:
//!
//! * **loss × channel sweep** — i.i.d. message loss at increasing rates,
//!   under both broadcast expansions (independent per-recipient unicast
//!   delays vs one shared broadcast delay — the Clementi–Natale-style
//!   broadcast medium). Reports decide rate, mean max lean round,
//!   deliveries, and retry-timer traffic.
//! * **partition sweep** — a timed link-cut window isolating the first
//!   ⌊n/2⌋ nodes, of increasing duration. The majority side decides on
//!   its own; the minority must catch up after heal through phase
//!   retries and gossip/anti-entropy (decision adoption). Reports the
//!   recovery time: how long after heal the slowest minority node takes
//!   to decide.
//! * **mixed-deployment sweep** — a subset of nodes serves replica
//!   duties out of one shared replica (`nc_msg::node::SharedPlane`),
//!   under loss, quantifying how putting shared memory into the quorum
//!   changes traffic.
//!
//! Everything is deterministic in `(preset, seed)`: per-trial seeds come
//! from [`trial_seed`] with one distinct salt per sweep cell, and the
//! fault/gossip streams inside each run are salted independently of the
//! delay noise.

use nc_msg::{run_message_passing, Channel, MsgConfig, MsgReport, NetFaultSpec, Outcome};
use nc_sched::rng::trial_seed;
use nc_sched::Noise;
use nc_theory::OnlineStats;

use crate::par_trials;
use crate::scenario::{Preset, Scenario, Spec};
use crate::table::{f2, f3, Table};

/// Registry entry: E17.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Partitions;

impl Scenario for Partitions {
    fn spec(&self) -> Spec {
        Spec {
            id: "E17",
            title: "Partition tolerance: loss/duplication, link cuts, retry + gossip recovery",
            artifact: "§10 extension (ABD under network faults; broadcast vs unicast)",
            outputs: &["net_faults.csv", "net_partitions.csv", "net_mixed.csv"],
            trials_label: "trials",
            size_label: "n",
            full: Preset {
                trials: 20,
                size: 7,
                cap: 400_000,
            },
            smoke: Preset {
                trials: 2,
                size: 5,
                cap: 120_000,
            },
        }
    }

    fn run(&self, p: Preset, seed: u64, threads: usize) -> Vec<Table> {
        vec![
            run_loss(p.size, p.trials, p.cap, seed, threads),
            run_partitions(p.size, p.trials, p.cap, seed, threads),
            run_mixed(p.size, p.trials, p.cap, seed, threads),
        ]
    }
}

/// Aggregates one sweep cell of faulted message-passing runs.
#[derive(Default)]
struct CellStats {
    trials: u64,
    decided: u64,
    agreed: u64,
    rounds: OnlineStats,
    deliveries: OnlineStats,
    retries: OnlineStats,
}

impl CellStats {
    fn absorb(&mut self, report: &MsgReport) {
        self.trials += 1;
        let mut decisions = report.decisions.iter().flatten();
        let first = decisions.next().copied();
        if decisions.all(|&d| Some(d) == first) {
            self.agreed += 1;
        }
        if report.outcome == Outcome::Decided {
            self.decided += 1;
            self.rounds
                .push(*report.rounds.iter().max().unwrap() as f64);
            self.deliveries.push(report.deliveries as f64);
            self.retries.push(report.retries as f64);
        }
    }

    fn decide_rate(&self) -> f64 {
        self.decided as f64 / self.trials.max(1) as f64
    }

    fn agree_rate(&self) -> f64 {
        self.agreed as f64 / self.trials.max(1) as f64
    }
}

/// Runs `trials` faulted runs of one configuration cell across
/// `threads` workers, seeds derived with [`trial_seed`] under `salt`.
fn sweep_cell(
    cfg: &MsgConfig,
    trials: u64,
    seed0: u64,
    salt: u64,
    threads: usize,
) -> (CellStats, Vec<MsgReport>) {
    let reports = par_trials(threads, trials, |t| {
        run_message_passing(cfg, trial_seed(seed0, t, salt))
    });
    let mut stats = CellStats::default();
    for report in &reports {
        stats.absorb(report);
    }
    (stats, reports)
}

fn base_cfg(n: usize, cap: u64) -> MsgConfig {
    let mut cfg = MsgConfig::new(n, Noise::Exponential { mean: 1.0 });
    if cap > 0 {
        cfg.max_deliveries = cap;
    }
    cfg
}

/// The loss × channel sweep.
pub(crate) fn run_loss(n: usize, trials: u64, cap: u64, seed0: u64, threads: usize) -> Table {
    let mut table = Table::new(
        format!(
            "E17 / network faults: lean-over-ABD vs message loss, n = {n} \
             (retry timers + gossip armed; event cap {cap})"
        ),
        &[
            "loss",
            "channel",
            "decide rate",
            "agreement rate",
            "mean max round",
            "mean deliveries",
            "mean retries",
        ],
    );
    for (i, &loss) in [0.0, 0.01, 0.05, 0.15].iter().enumerate() {
        for (j, (label, channel)) in [
            ("unicast", Channel::Unicast),
            ("broadcast", Channel::Broadcast),
        ]
        .into_iter()
        .enumerate()
        {
            let cfg = base_cfg(n, cap)
                .with_channel(channel)
                .with_faults(NetFaultSpec::none().with_loss(loss));
            let salt = 2 * i as u64 + j as u64;
            let (stats, _) = sweep_cell(&cfg, trials, seed0, salt, threads);
            table.push(vec![
                f3(loss),
                label.into(),
                f3(stats.decide_rate()),
                f3(stats.agree_rate()),
                f2(stats.rounds.mean()),
                f2(stats.deliveries.mean()),
                f2(stats.retries.mean()),
            ]);
        }
    }
    table
}

/// The partition-duration sweep: the first ⌊n/2⌋ nodes are cut off
/// during `[2, 2 + duration)`; recovery time = how long after heal the
/// slowest minority node takes to decide. With no minority to cut
/// (n = 1) only the duration-0 row is run.
pub(crate) fn run_partitions(n: usize, trials: u64, cap: u64, seed0: u64, threads: usize) -> Table {
    let mut table = Table::new(
        format!(
            "E17 / partitions: minority side (first {} of {n} nodes) cut during [2, 2+d); \
             retry + gossip drive post-heal recovery (event cap {cap})",
            n / 2
        ),
        &[
            "partition duration",
            "decide rate",
            "agreement rate",
            "mean max round",
            "mean retries",
            "mean recovery time",
        ],
    );
    let side: Vec<u32> = (0..(n / 2) as u32).collect();
    let durations: &[f64] = if side.is_empty() {
        &[0.0]
    } else {
        &[0.0, 10.0, 30.0, 60.0]
    };
    for (i, &duration) in durations.iter().enumerate() {
        let heal = 2.0 + duration;
        let mut faults = NetFaultSpec::none();
        if duration > 0.0 {
            faults = faults.with_partition(2.0, heal, side.clone());
        }
        // Arm a pinch of loss even at duration 0 so the recovery plane
        // is on in every cell and the sweep varies one thing only.
        faults = faults.with_loss(0.01);
        let cfg = base_cfg(n, cap).with_faults(faults);
        let salt = 100 + i as u64;
        let (stats, reports) = sweep_cell(&cfg, trials, seed0, salt, threads);
        let mut recovery = OnlineStats::new();
        for report in &reports {
            if report.outcome != Outcome::Decided {
                continue;
            }
            let worst = side
                .iter()
                .filter_map(|&i| report.decide_times[i as usize])
                .fold(0.0f64, f64::max);
            recovery.push((worst - heal).max(0.0));
        }
        table.push(vec![
            f2(duration),
            f3(stats.decide_rate()),
            f3(stats.agree_rate()),
            f2(stats.rounds.mean()),
            f2(stats.retries.mean()),
            f2(recovery.mean()),
        ]);
    }
    table
}

/// The mixed-deployment sweep: `k` nodes share one memory plane while
/// the rest keep private replicas, under mild loss.
pub(crate) fn run_mixed(n: usize, trials: u64, cap: u64, seed0: u64, threads: usize) -> Table {
    let mut table = Table::new(
        format!(
            "E17 / mixed deployment: k of {n} nodes share one nc_memory plane \
             (loss 0.05, recovery armed; event cap {cap})"
        ),
        &[
            "plane size",
            "decide rate",
            "agreement rate",
            "mean max round",
            "mean deliveries",
            "mean retries",
        ],
    );
    // Plane sizes 0, 2 and n, each once (two coincide at n ≤ 2); cell
    // i's salt is 200 + i.
    let mut sizes = vec![0, 2.min(n), n];
    sizes.dedup();
    for (i, &k) in sizes.iter().enumerate() {
        let cfg = base_cfg(n, cap)
            .with_faults(NetFaultSpec::none().with_loss(0.05))
            .with_shared_plane((0..k as u32).collect());
        let salt = 200 + i as u64;
        let (stats, _) = sweep_cell(&cfg, trials, seed0, salt, threads);
        table.push(vec![
            k.to_string(),
            f3(stats.decide_rate()),
            f3(stats.agree_rate()),
            f2(stats.rounds.mean()),
            f2(stats.deliveries.mean()),
            f2(stats.retries.mean()),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_deployments_list_each_plane_size_once() {
        for (n, want) in [(1, ["0", "1"]), (2, ["0", "2"])] {
            let table = run_mixed(n, 2, 120_000, 1, 1);
            let sizes: Vec<&str> = table.rows.iter().map(|row| row[0].as_str()).collect();
            assert_eq!(sizes, want, "n = {n}");
        }
    }

    #[test]
    fn one_node_has_no_minority_to_cut() {
        let table = run_partitions(1, 2, 120_000, 1, 1);
        assert_eq!(table.rows.len(), 1);
        assert_eq!(table.rows[0][0], f2(0.0));
    }
}
