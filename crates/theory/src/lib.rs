//! Renewal-race theory toolkit for `noisy-consensus`.
//!
//! The termination proof of the paper (§6) reduces lean-consensus to a
//! clean probabilistic statement: a race between `n` independent delayed
//! renewal processes produces a winner with a lead of `c` rounds within
//! `O(log n)` rounds, in expectation and with an exponential tail
//! (Theorem 10 / Corollary 11). This crate implements that abstract race
//! directly — independent of the consensus algorithm — along with the
//! numeric lemmas and the statistics the experiment harness reports:
//!
//! * `race` — the delayed renewal race
//!   `S'_ir = Δ_i0 + Σ (Δ_ij + X_ij + H_ij)`, with the winner-by-`c`
//!   detection of Theorem 10 and the halting failures of §3.1.2.
//! * `bounds` — Lemma 5's `−x ln x` lower bound on the probability
//!   that exactly one of a set of independent events occurs, with an
//!   exact evaluator to compare against.
//! * `stats` — Welford online statistics, quantiles, 95% confidence
//!   intervals, and least-squares fits of `y = a + b·log₂ n` (the shape
//!   every `Θ(log n)` claim is checked against).
//!
//! # Example: the race ends in logarithmic time
//!
//! ```
//! use nc_sched::Noise;
//! use nc_theory::{run_race, OnlineStats, RaceConfig, RaceOutcome};
//!
//! let cfg = RaceConfig::new(64, Noise::Exponential { mean: 1.0 });
//! let mut rounds = OnlineStats::new();
//! for seed in 0..100 {
//!     if let RaceOutcome::Winner { round, .. } = run_race(&cfg, seed) {
//!         rounds.push(round as f64);
//!     }
//! }
//! assert!(rounds.mean() < 64.0, "64-way race should end well before round 64");
//! ```

#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

mod bounds;
mod race;
mod stats;

pub use bounds::{lemma5_bound, prob_exactly_one, prob_none};
pub use race::{run_race, RaceConfig, RaceOutcome};
pub use stats::{fit_log2, quantile, LogFit, OnlineStats};
