//! Adaptive adversaries and the strategy-search tournament.
//!
//! The paper's headline result (Theorems 12/13) is a Θ(log n) round
//! bound against a *worst-case* noisy scheduler, but a bound proved
//! against the worst case is only as tight as the strongest adversary
//! anyone has actually fielded. This crate fields them:
//!
//! * `adaptive` — [`BudgetedAdversary`], the budget-limited schedule
//!   adversary that *reacts* to the observed race
//!   ([`nc_sched::adversary::ProcView`]): stall the current leader's
//!   lane, hoard noise budget and dump it when a process is about to
//!   decide, ambush round boundaries, or step the most-behind process
//!   whenever the lead is large, as its [`StrategyPoint`] says.
//! * `strategy` — the parameterized [`StrategyFamily`]: budget
//!   schedule × target-selection rule × trigger threshold, each point
//!   deterministic from a seed via [`nc_sched::rng::trial_seed`] with
//!   [`nc_sched::rng::salts::STRATEGY`].
//! * `tournament` — [`Tournament`], the grid-search harness that
//!   sweeps a family over `TrialSet` fan-out and reports the
//!   empirically worst-case round count, byte-identical at every
//!   worker/lane count.
//!
//! Scheduling power is budgeted, not absolute: an unrestricted
//! adversary stalls lean-consensus forever (FLP; see
//! `round_robin_split_never_terminates` in `nc_engine`), so each
//! adversary here follows the engine's oblivious uniform-random
//! schedule and may *override* only a bounded number of picks. The
//! zero-budget point of every family is exactly the oblivious
//! baseline, which is what makes "adaptive ≥ oblivious" a measurable
//! statement rather than a tautology.

#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![forbid(unsafe_code)]

mod adaptive;
mod strategy;
mod tournament;

pub use adaptive::BudgetedAdversary;
pub use strategy::{BudgetSchedule, StrategyFamily, StrategyPoint, TargetRule};
pub use tournament::{StrategyScore, Tournament, TournamentResult};
