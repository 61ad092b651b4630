//! E7 — Theorem 1: noisy scheduling can be pathologically unfair.
//!
//! With `X = 2^{k²}` w.p. `2^{-k}`, the expected number of operations
//! one process completes between two consecutive operations of another
//! is **infinite**. Infinite expectations can't be measured, but their
//! signature can: the empirical mean of the overtake count keeps growing
//! as the distribution's truncation point `k ≤ K` rises, without
//! stabilising. The table shows exactly that, next to a well-behaved
//! uniform distribution whose overtake mean is flat.

use nc_sched::{stream_rng, Noise};
use nc_theory::OnlineStats;

use crate::scenario::{Preset, Scenario, Spec};
use crate::table::{f2, Table};

/// Registry entry: E7.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Unfairness;

impl Scenario for Unfairness {
    fn spec(&self) -> Spec {
        Spec {
            id: "E7",
            title: "Pathological unfairness: divergent expected overtaking",
            artifact: "Theorem 1",
            outputs: &["unfairness.csv"],
            trials_label: "ops",
            size_label: "-",
            full: Preset {
                trials: 10_000,
                size: 0,
                cap: 0,
            },
            smoke: Preset {
                trials: 300,
                size: 0,
                cap: 0,
            },
        }
    }

    fn run(&self, p: Preset, seed: u64, _threads: usize) -> Vec<Table> {
        // Overtake counting is a single serial walk per distribution;
        // nothing to fan out.
        vec![run(p.trials as usize, seed)]
    }
}

/// Measures overtaking: simulate two processes' operation times for
/// `ops` operations of process A and count how many operations B fits
/// into each of A's gaps; returns the per-gap statistics.
fn overtakes(noise: Noise, ops: usize, seed: u64) -> OnlineStats {
    let mut rng_a = stream_rng(seed, 0, 1);
    let mut rng_b = stream_rng(seed, 1, 1);
    let mut t_a = 0.0f64;
    let mut t_b = 0.0f64;
    let mut stats = OnlineStats::new();
    for _ in 0..ops {
        let gap_end = t_a + noise.sample(&mut rng_a);
        let mut count = 0u64;
        // Count B's ops that land inside (t_a, gap_end]. Cap the count so a
        // single astronomically long A-gap cannot spin forever.
        while t_b <= gap_end && count < 10_000_000 {
            t_b += noise.sample(&mut rng_b);
            if t_b <= gap_end {
                count += 1;
            }
        }
        t_a = gap_end;
        stats.push(count as f64);
    }
    stats
}

/// Runs the unfairness experiment.
///
/// Truncations above `k = 16` are omitted from the measured rows: draws
/// with `k ≥ 17` have probability `≤ 2^-16` and essentially never occur
/// in a feasible number of gaps, so measured means for higher caps are
/// identical realizations. The analytic column shows where the measured
/// growth is headed: the distribution's truncated mean
/// `Σ_{k≤K} 2^{-k} 2^{k²}` explodes, hence Theorem 1's infinite
/// expected overtaking.
pub(crate) fn run(ops: usize, seed0: u64) -> Table {
    let mut table = Table::new(
        "E7 / Theorem 1: ops by B between consecutive ops of A (growth with truncation => divergent expectation)",
        &[
            "distribution",
            "mean overtakes",
            "max overtakes",
            "gaps sampled",
            "analytic E[X] (truncated)",
        ],
    );
    for max_k in [2u32, 4, 6, 8, 10, 12, 14, 16] {
        let noise = Noise::Pathological { max_k };
        let stats = overtakes(noise, ops, seed0);
        let analytic: f64 = (1..=max_k)
            .map(|k| 2f64.powi(-(k as i32)) * 2f64.powi((k * k) as i32))
            .sum();
        table.push(vec![
            format!("pathological k<={max_k}"),
            f2(stats.mean()),
            f2(stats.max()),
            stats.count().to_string(),
            format!("{analytic:.3e}"),
        ]);
    }
    // Control: a tame distribution has a small, stable overtake mean.
    let stats = overtakes(Noise::Uniform { lo: 0.0, hi: 2.0 }, ops, seed0);
    table.push(vec![
        "uniform [0,2] (control)".into(),
        f2(stats.mean()),
        f2(stats.max()),
        stats.count().to_string(),
        "1 (finite)".into(),
    ]);
    table
}
