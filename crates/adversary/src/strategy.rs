//! The parameterized adversary-strategy family.
//!
//! A [`StrategyPoint`] is one adversary configuration: how scheduling
//! budget accrues ([`BudgetSchedule`]), what state triggers an
//! intervention ([`TargetRule`] + trigger threshold), and — implicitly —
//! where interventions redirect (always the most-behind enabled
//! process, the redirect that keeps the race closest). A
//! [`StrategyFamily`] is the cartesian grid the tournament sweeps.
//!
//! Every point is deterministic from a run seed:
//! [`StrategyPoint::build`] derives the base-schedule RNG with
//! [`nc_sched::stream_rng`]`(run_seed, 0, salts::ADVERSARY)`, the same
//! stream an oblivious [`nc_sched::adversary::RandomInterleave`] would
//! draw — so the zero-budget point reproduces the oblivious baseline
//! pick-for-pick.

use crate::adaptive::BudgetedAdversary;

/// How scheduling-override budget accrues over a run.
///
/// Budget is counted in *tokens*: one token buys one overridden pick.
/// The paper's noisy-scheduling model says sustained interference is
/// expensive (HajiAghayi–Kowalski–Olkowski parameterize exactly this
/// adversary-budget tradeoff), so the family exposes both a flat
/// endowment and an income proportional to race progress.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BudgetSchedule {
    /// A one-time endowment of `b` tokens, granted up front. Hoardable:
    /// combined with [`TargetRule::NearDecision`] this is the
    /// save-and-spend shape of E14, made adaptive.
    Constant(u64),
    /// An income of `m` tokens every time the race frontier (the
    /// maximum round among enabled processes) advances — the adversary
    /// earns interference budget at the rate the protocol makes
    /// progress, the steady-pressure regime of Theorem 13.
    PerRound(u64),
}

/// When an intervention fires, given the observed
/// [`nc_sched::adversary::ProcView`].
///
/// Every rule redirects the overridden pick to the most-behind enabled
/// process; they differ in *when* a token is worth spending. `trigger`
/// below refers to [`StrategyPoint::trigger`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TargetRule {
    /// Leader-lane targeting: whenever the base schedule would step the
    /// current leader and its lead is at least `trigger` rounds, step
    /// the most-behind process instead.
    StallLeader,
    /// Near-decision spending: intervene only when the leader is within
    /// `trigger` operations of its round's decisive fourth operation
    /// (the `ReadPrevRival` that can produce a decision) *and* actually
    /// leads the race — the moments a token has maximal effect.
    NearDecision,
    /// Round-boundary ambush: intervene during the first `trigger`
    /// operations of the leader's current round, stalling each phase
    /// transition right as it begins.
    RoundBoundary,
    /// Catch-up: whenever the lead is at least `trigger` rounds, spend
    /// a token stepping the most-behind process regardless of what the
    /// base schedule picked — the budgeted approximation of the
    /// never-terminating `AntiLeader` schedule.
    CatchUp,
}

impl TargetRule {
    fn name(self) -> &'static str {
        match self {
            TargetRule::StallLeader => "stall-leader",
            TargetRule::NearDecision => "near-decision",
            TargetRule::RoundBoundary => "round-boundary",
            TargetRule::CatchUp => "catch-up",
        }
    }
}

/// One adversary configuration in the strategy grid.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StrategyPoint {
    /// Budget schedule, or `None` for the oblivious baseline (no
    /// overrides ever; the pure uniform-random schedule).
    pub budget: Option<BudgetSchedule>,
    /// When to spend a token. Irrelevant (but recorded) when `budget`
    /// is `None`.
    pub rule: TargetRule,
    /// The rule's trigger threshold; units depend on the rule (rounds
    /// of lead for `StallLeader`/`CatchUp`, an operation window for
    /// `NearDecision`/`RoundBoundary`).
    pub trigger: u32,
}

impl StrategyPoint {
    /// The oblivious baseline: no budget, never intervenes.
    pub fn oblivious() -> Self {
        StrategyPoint {
            budget: None,
            rule: TargetRule::StallLeader,
            trigger: 0,
        }
    }

    /// Whether this is the oblivious (never-intervening) point.
    pub(crate) fn is_oblivious(&self) -> bool {
        self.budget.is_none()
    }

    /// A short stable label for tables and reports, e.g.
    /// `stall-leader/round4/k1` or `oblivious`.
    pub(crate) fn label(&self) -> String {
        match self.budget {
            None => "oblivious".into(),
            Some(BudgetSchedule::Constant(b)) => {
                format!("{}/const{}/k{}", self.rule.name(), b, self.trigger)
            }
            Some(BudgetSchedule::PerRound(m)) => {
                format!("{}/round{}/k{}", self.rule.name(), m, self.trigger)
            }
        }
    }

    /// Instantiates this point's adversary for one run.
    pub fn build(&self, run_seed: u64) -> BudgetedAdversary {
        BudgetedAdversary::new(*self, run_seed)
    }
}

/// A grid of strategy points: the cartesian product of budget
/// schedules, target rules, and trigger thresholds, with the oblivious
/// baseline always prepended as point 0.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StrategyFamily {
    /// Budget schedules to cross (the oblivious point is implicit).
    pub budgets: Vec<BudgetSchedule>,
    /// Target rules to cross.
    pub rules: Vec<TargetRule>,
    /// Trigger thresholds to cross.
    pub triggers: Vec<u32>,
}

impl StrategyFamily {
    /// Builds a family from explicit axes.
    pub(crate) fn new(
        budgets: Vec<BudgetSchedule>,
        rules: Vec<TargetRule>,
        triggers: Vec<u32>,
    ) -> Self {
        StrategyFamily {
            budgets,
            rules,
            triggers,
        }
    }

    /// The standard tournament grid used by scenario E16: 2 budget
    /// schedules × 4 rules × 2 triggers = 16 adaptive points plus the
    /// oblivious baseline.
    ///
    /// Budgets stay modest by design — `PerRound` income large enough
    /// to override *every* pick would emulate `AntiLeader` and never
    /// terminate; the tournament's op cap would score it, but the
    /// interesting regime is bounded interference (Theorem 13's), not
    /// unbounded.
    pub fn standard() -> Self {
        StrategyFamily::new(
            vec![BudgetSchedule::Constant(16), BudgetSchedule::PerRound(4)],
            vec![
                TargetRule::StallLeader,
                TargetRule::NearDecision,
                TargetRule::RoundBoundary,
                TargetRule::CatchUp,
            ],
            vec![1, 2],
        )
    }

    /// Enumerates the grid in a fixed order: the oblivious baseline
    /// first, then budgets × rules × triggers (outer to inner). The
    /// order is part of the determinism contract — point index `j`
    /// seeds via `trial_seed(tournament_seed, j, salts::STRATEGY)`.
    pub fn points(&self) -> Vec<StrategyPoint> {
        let mut out = vec![StrategyPoint::oblivious()];
        for &budget in &self.budgets {
            for &rule in &self.rules {
                for &trigger in &self.triggers {
                    out.push(StrategyPoint {
                        budget: Some(budget),
                        rule,
                        trigger,
                    });
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_family_shape() {
        let fam = StrategyFamily::standard();
        let points = fam.points();
        assert_eq!(points.len(), 1 + 2 * 4 * 2);
        assert!(points[0].is_oblivious());
        assert!(points[1..].iter().all(|p| !p.is_oblivious()));
    }

    #[test]
    fn labels_are_unique_and_stable() {
        let points = StrategyFamily::standard().points();
        let labels: Vec<String> = points.iter().map(|p| p.label()).collect();
        let mut dedup = labels.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), labels.len(), "duplicate labels: {labels:?}");
        assert_eq!(labels[0], "oblivious");
        assert_eq!(labels[1], "stall-leader/const16/k1");
    }

    #[test]
    fn point_order_is_fixed() {
        // The point order is a determinism contract (it drives seed
        // derivation); pin it.
        let a = StrategyFamily::standard().points();
        let b = StrategyFamily::standard().points();
        assert_eq!(a, b);
        assert_eq!(
            a[1],
            StrategyPoint {
                budget: Some(BudgetSchedule::Constant(16)),
                rule: TargetRule::StallLeader,
                trigger: 1,
            }
        );
    }
}
