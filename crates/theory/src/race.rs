//! The abstract delayed renewal race of Theorem 10.
//!
//! Strip lean-consensus down to its termination skeleton and what
//! remains is a race: `n` processes each advance through rounds, round
//! `j` of process `i` completing at
//!
//! ```text
//! S'_ij = Δ_i0 + Σ_{k≤j} (Δ_ik + X_ik + H_ik)
//! ```
//!
//! with adversarial bounded delays `Δ`, i.i.d. noise `X` (one sample per
//! *round*, i.e. the sum of the per-operation noises of the round's four
//! operations), and halting failures `H ∈ {0, ∞}`. Process `i` **wins
//! with lead `c` at round `r + c`** if it finishes round `r + c` before
//! any rival finishes round `r` — for lean-consensus, `c = 2` means the
//! winner can decide (Theorem 12 invokes Corollary 11 with exactly
//! `c = 2`). The race here runs the setting experiment E8 measures:
//! every racer starts at a dithered time 0, no adversarial delay, and
//! lead `c = 2`.
//!
//! [`run_race`] simulates the race directly (no shared memory, no
//! protocol), which lets experiment E8 measure Corollary 11 — expected
//! `O(log n)` winning round and an exponential tail — on its own terms.

use rand::RngExt;

use nc_sched::rng::salts;
use nc_sched::{start_time, stream_rng, Noise};

/// The lead `c` in rounds a winner needs: lean-consensus decides with
/// `c = 2`.
const LEAD: usize = 2;

/// Give up after this many rounds. This guards degenerate (constant)
/// noise; the theory predicts `O(log n)`, so it is astronomically
/// generous.
const MAX_ROUNDS: usize = 10_000;

/// Configuration of one renewal race.
#[derive(Clone, PartialEq, Debug)]
pub struct RaceConfig {
    /// Number of racers.
    pub n: usize,
    /// Per-round noise distribution `X_ij` (the model folds the four
    /// per-operation noises of one round into one sample; §6 notes this
    /// abstraction loses no adversary power).
    pub noise: Noise,
    /// Per-round halting probability `h(n)`.
    pub halt_prob: f64,
}

impl RaceConfig {
    /// A race with the given size and noise; no failures.
    pub fn new(n: usize, noise: Noise) -> Self {
        RaceConfig {
            n,
            noise,
            halt_prob: 0.0,
        }
    }

    /// Replaces the halting probability (builder-style).
    pub fn with_halt_prob(mut self, halt_prob: f64) -> Self {
        self.halt_prob = halt_prob;
        self
    }
}

/// How a race ended.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum RaceOutcome {
    /// `pid` finished round `round + 2` before any live rival
    /// finished `round` (Corollary 11's first disjunct). `round` is the
    /// `R` of Corollary 11.
    Winner {
        /// The winning racer.
        pid: usize,
        /// The lead-establishing round `R`.
        round: usize,
    },
    /// Every racer halted (Corollary 11's second disjunct).
    AllDied {
        /// Rounds completed by the longest-lived racer.
        last_round: usize,
    },
    /// The round cap was exceeded (never observed for non-degenerate
    /// noise; reachable with constant noise).
    RoundCapReached,
}

/// Runs one race to its Corollary 11 stopping condition.
///
/// Deterministic in `(cfg, seed)`.
///
/// # Panics
///
/// Panics if `cfg.n == 0`.
pub fn run_race(cfg: &RaceConfig, seed: u64) -> RaceOutcome {
    assert!(cfg.n > 0, "race needs at least one racer");
    let n = cfg.n;

    let mut rngs: Vec<_> = (0..n)
        .map(|i| stream_rng(seed, i as u64, salts::NOISE))
        .collect();
    let mut clocks: Vec<f64> = (0..n)
        .map(|i| start_time(&mut stream_rng(seed, i as u64, salts::START)))
        .collect();
    let mut fail_rngs: Vec<_> = (0..n)
        .map(|i| stream_rng(seed, i as u64, salts::FAILURE))
        .collect();
    let mut alive = vec![true; n];

    // finish[r % window][i] = S'_i,r ; we need rounds back to r - LEAD.
    let window = LEAD + 1;
    let mut finish: Vec<Vec<f64>> = vec![vec![f64::INFINITY; n]; window];
    let mut last_live_round = 0usize;

    for round in 1..=MAX_ROUNDS {
        let slot = round % window;
        for i in 0..n {
            if !alive[i] {
                finish[slot][i] = f64::INFINITY;
                continue;
            }
            if cfg.halt_prob > 0.0 && fail_rngs[i].random::<f64>() < cfg.halt_prob {
                alive[i] = false;
                finish[slot][i] = f64::INFINITY;
                continue;
            }
            clocks[i] += cfg.noise.sample(&mut rngs[i]);
            finish[slot][i] = clocks[i];
            last_live_round = round;
        }

        if !alive.iter().any(|&a| a) {
            return RaceOutcome::AllDied {
                last_round: last_live_round,
            };
        }

        // Winner check: does some i have S'_{i,round} below every
        // rival's S'_{i',round-LEAD}? (Rivals that halted before
        // finishing round-LEAD count as +∞ — a dead rival can't block.)
        if round > LEAD {
            let base_slot = (round - LEAD) % window;
            let base = &finish[base_slot];
            // Two smallest rival baselines.
            let mut min1 = f64::INFINITY;
            let mut min1_idx = usize::MAX;
            let mut min2 = f64::INFINITY;
            for (i, &b) in base.iter().enumerate() {
                if b < min1 {
                    min2 = min1;
                    min1 = b;
                    min1_idx = i;
                } else if b < min2 {
                    min2 = b;
                }
            }
            for i in 0..n {
                if !alive[i] {
                    continue;
                }
                let rival_best = if i == min1_idx { min2 } else { min1 };
                if finish[slot][i] < rival_best {
                    return RaceOutcome::Winner {
                        pid: i,
                        round: round - LEAD,
                    };
                }
            }
        }
    }
    RaceOutcome::RoundCapReached
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::{fit_log2, OnlineStats};

    #[test]
    fn solo_racer_wins_immediately() {
        let cfg = RaceConfig::new(1, Noise::Exponential { mean: 1.0 });
        match run_race(&cfg, 0) {
            RaceOutcome::Winner { pid, round } => {
                assert_eq!(pid, 0);
                assert_eq!(round, 1, "solo racer wins at the first checkable round");
            }
            other => panic!("expected a winner, got {other:?}"),
        }
    }

    #[test]
    fn races_end_for_all_figure1_distributions() {
        for (name, noise) in Noise::figure1_suite() {
            let cfg = RaceConfig::new(16, noise);
            for seed in 0..10 {
                let out = run_race(&cfg, seed);
                assert!(
                    matches!(out, RaceOutcome::Winner { .. }),
                    "{name} seed {seed}: {out:?}"
                );
            }
        }
    }

    #[test]
    fn constant_noise_with_identical_starts_never_ends() {
        // The dithered starts lie within 1e-8 of each other, identical at
        // the race's resolution: under constant noise no racer ever gains
        // a round on another, so the race runs into its round cap.
        let cfg = RaceConfig::new(4, Noise::Constant { value: 1.0 });
        assert_eq!(run_race(&cfg, 3), RaceOutcome::RoundCapReached);
    }

    #[test]
    fn all_halting_racers_all_die() {
        let cfg = RaceConfig::new(4, Noise::Exponential { mean: 1.0 }).with_halt_prob(1.0);
        match run_race(&cfg, 1) {
            RaceOutcome::AllDied { last_round } => assert_eq!(last_round, 0),
            other => panic!("expected AllDied, got {other:?}"),
        }
    }

    #[test]
    fn moderate_failures_still_produce_winners_or_extinction() {
        let cfg = RaceConfig::new(8, Noise::Exponential { mean: 1.0 }).with_halt_prob(0.05);
        for seed in 0..20 {
            let out = run_race(&cfg, seed);
            assert!(
                !matches!(out, RaceOutcome::RoundCapReached),
                "seed {seed}: {out:?}"
            );
        }
    }

    #[test]
    fn winning_round_grows_roughly_logarithmically() {
        // Corollary 11's shape: mean winning round ~ a + b log2 n with
        // b > 0 and shallow growth. Fit over three decades.
        let mut points = Vec::new();
        for &n in &[4usize, 16, 64, 256] {
            let cfg = RaceConfig::new(n, Noise::Exponential { mean: 1.0 });
            let mut stats = OnlineStats::new();
            for seed in 0..60 {
                if let RaceOutcome::Winner { round: r, .. } = run_race(&cfg, seed) {
                    stats.push(r as f64);
                }
            }
            points.push((n as f64, stats.mean()));
        }
        let fit = fit_log2(&points);
        assert!(fit.slope > 0.0, "winning round should grow with n: {fit}");
        assert!(
            fit.intercept + fit.slope * 256f64.log2() < 40.0,
            "O(log n) race ended too slowly: {fit}"
        );
        // And it must grow strictly slower than linearly: going from
        // n=4 to n=256 (64x) should far less than 64x the round count.
        assert!(points[3].1 < points[0].1 * 16.0, "{points:?}");
    }

    #[test]
    fn exponential_tail() {
        // Corollary 11: Pr[R > k] <= exp(-⌊k / O(log n)⌋). Empirically
        // the 99th percentile should be within a small multiple of the
        // mean.
        let cfg = RaceConfig::new(32, Noise::Uniform { lo: 0.0, hi: 2.0 });
        let mut rounds: Vec<f64> = Vec::new();
        for seed in 0..300 {
            if let RaceOutcome::Winner { round: r, .. } = run_race(&cfg, seed) {
                rounds.push(r as f64);
            }
        }
        let mean = rounds.iter().sum::<f64>() / rounds.len() as f64;
        let p99 = crate::stats::quantile(&rounds, 0.99);
        assert!(
            p99 <= mean * 8.0 + 8.0,
            "tail too heavy: mean {mean}, p99 {p99}"
        );
    }

    #[test]
    fn determinism() {
        let cfg = RaceConfig::new(8, Noise::Geometric { p: 0.5 });
        assert_eq!(run_race(&cfg, 42), run_race(&cfg, 42));
    }

    #[test]
    #[should_panic(expected = "at least one racer")]
    fn zero_racers_panics() {
        run_race(&RaceConfig::new(0, Noise::Exponential { mean: 1.0 }), 0);
    }
}
