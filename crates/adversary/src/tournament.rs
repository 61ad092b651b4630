//! The strategy-search tournament: a grid search over a
//! [`StrategyFamily`], scoring each point by the rounds it forces.
//!
//! Scoring runs lean-consensus on split inputs (the hard case) under
//! each point's adversary, over a [`TrialSet`] fan-out. A decided
//! trial scores its first-decision round; a trial that hits the op cap
//! scores the highest round any process had reached — a lower bound on
//! what the strategy forces, so capped runs can only *understate* a
//! strategy's strength, never inflate it.
//!
//! Determinism: point `j` of the family seeds via
//! `trial_seed(tournament_seed, j, salts::STRATEGY)` and trial `t`
//! under it via `trial_seed(point_seed, t, salts::STRATEGY)`; points
//! are scored in family order and trials fan out through the engine's
//! deterministic sweep, so results are byte-identical at every
//! worker/lane count.
//!
//! [`TrialSet`]: nc_engine::sim::TrialSet

use nc_engine::sim::Sim;
use nc_engine::{setup, Algorithm, Limits, RunOutcome};
use nc_sched::rng::{salts, trial_seed};

use crate::strategy::{StrategyFamily, StrategyPoint};

/// One strategy point's tournament score.
#[derive(Clone, Debug, PartialEq)]
pub struct StrategyScore {
    /// The scored point.
    pub point: StrategyPoint,
    /// `point.label()`, precomputed for tables.
    pub label: String,
    /// Trials this score aggregates.
    pub trials: u64,
    /// Mean forced round across trials — the ranking metric.
    pub mean_round: f64,
    /// Worst single-trial forced round.
    pub worst_round: usize,
    /// Trials that hit the op cap undecided (scored by progress round).
    pub capped: u64,
}

/// A scored family, in family order.
#[derive(Clone, Debug, PartialEq)]
pub struct TournamentResult {
    /// One score per family point, index-aligned with
    /// [`StrategyFamily::points`].
    pub scores: Vec<StrategyScore>,
}

impl TournamentResult {
    /// Indices ranked strongest-first: by mean forced round descending,
    /// then worst round descending, then family order.
    pub(crate) fn ranked(&self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.scores.len()).collect();
        order.sort_by(|&a, &b| {
            let (sa, sb) = (&self.scores[a], &self.scores[b]);
            sb.mean_round
                .total_cmp(&sa.mean_round)
                .then(sb.worst_round.cmp(&sa.worst_round))
                .then(a.cmp(&b))
        });
        order
    }

    /// The oblivious baseline's score, if the family included it (it
    /// always does for [`StrategyFamily::points`]).
    pub fn oblivious(&self) -> Option<&StrategyScore> {
        self.scores.iter().find(|s| s.point.is_oblivious())
    }

    /// The strongest *adaptive* point — the tournament's headline.
    pub fn worst_adaptive(&self) -> Option<&StrategyScore> {
        self.ranked()
            .into_iter()
            .map(|j| &self.scores[j])
            .find(|s| !s.point.is_oblivious())
    }
}

/// The tournament harness: fixed protocol size and trial budget, sweeps
/// a [`StrategyFamily`] and scores every point.
#[derive(Clone, Debug)]
pub struct Tournament {
    n: usize,
    trials: u64,
    seed0: u64,
    max_ops: u64,
    threads: usize,
}

impl Tournament {
    /// A tournament at protocol size `n` with default knobs: 16 trials
    /// per point, seed 0, a 100k op cap, serial execution.
    pub fn new(n: usize) -> Self {
        Tournament {
            n,
            trials: 16,
            seed0: 0,
            max_ops: 100_000,
            threads: 1,
        }
    }

    /// Sets trials per strategy point.
    pub fn trials(mut self, trials: u64) -> Self {
        self.trials = trials.max(1);
        self
    }

    /// Sets the base seed all point/trial seeds derive from.
    pub fn seed0(mut self, seed0: u64) -> Self {
        self.seed0 = seed0;
        self
    }

    /// Sets the per-run op cap (adversarial schedules can stall; capped
    /// runs are scored by the round they reached).
    pub fn max_ops(mut self, max_ops: u64) -> Self {
        self.max_ops = max_ops.max(1);
        self
    }

    /// Sets the worker-thread count for each point's trial fan-out
    /// (0 = one per core). Purely a performance knob: results are
    /// byte-identical at every setting.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Scores a single point under an explicit point seed at the
    /// tournament's trial budget.
    fn score_at(&self, point: StrategyPoint, point_seed: u64) -> StrategyScore {
        let reports = Sim::new(Algorithm::Lean)
            .inputs(setup::half_and_half(self.n))
            .adversary(move |run_seed| point.build(run_seed))
            .limits(Limits::first_decision().with_max_ops(self.max_ops))
            .trials(self.trials)
            .seed_fn(move |t| trial_seed(point_seed, t, salts::STRATEGY))
            .threads(self.threads)
            .reports();
        let mut sum = 0u64;
        let mut worst = 0usize;
        let mut capped = 0u64;
        for r in &reports {
            let round = r.first_decision_round.unwrap_or(r.max_round);
            sum += round as u64;
            worst = worst.max(round);
            if r.outcome == RunOutcome::OpCapReached {
                capped += 1;
            }
        }
        StrategyScore {
            point,
            label: point.label(),
            trials: self.trials,
            mean_round: sum as f64 / reports.len().max(1) as f64,
            worst_round: worst,
            capped,
        }
    }

    /// Grid search: scores every point of `family` at the tournament's
    /// trial budget, in family order.
    pub fn sweep(&self, family: &StrategyFamily) -> TournamentResult {
        let scores = family
            .points()
            .into_iter()
            .enumerate()
            .map(|(j, point)| {
                self.score_at(point, trial_seed(self.seed0, j as u64, salts::STRATEGY))
            })
            .collect();
        TournamentResult { scores }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::{BudgetSchedule, TargetRule};

    fn small() -> Tournament {
        Tournament::new(4).trials(3).max_ops(20_000)
    }

    fn tiny_family() -> StrategyFamily {
        StrategyFamily::new(
            vec![BudgetSchedule::Constant(8)],
            vec![TargetRule::StallLeader, TargetRule::CatchUp],
            vec![1],
        )
    }

    #[test]
    fn sweep_scores_every_point_in_order() {
        let result = small().sweep(&tiny_family());
        assert_eq!(result.scores.len(), 3); // oblivious + 2
        assert!(result.scores[0].point.is_oblivious());
        assert!(result.scores.iter().all(|s| s.mean_round >= 1.0));
        assert!(result.oblivious().is_some());
        assert!(!result.worst_adaptive().unwrap().point.is_oblivious());
    }

    #[test]
    fn sweep_is_deterministic() {
        let a = small().sweep(&tiny_family());
        let b = small().sweep(&tiny_family());
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = small().sweep(&tiny_family());
        let b = small().seed0(99).sweep(&tiny_family());
        assert_ne!(a, b);
    }

    #[test]
    fn ranking_is_total_and_stable() {
        let result = small().sweep(&tiny_family());
        let order = result.ranked();
        assert_eq!(order.len(), result.scores.len());
        for w in order.windows(2) {
            let (a, b) = (&result.scores[w[0]], &result.scores[w[1]]);
            assert!(a.mean_round >= b.mean_round);
        }
    }
}
