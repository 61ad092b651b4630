//! Budget-limited adaptive adversaries.
//!
//! Each adversary here follows the engine's oblivious uniform-random
//! base schedule (the same stream [`RandomInterleave`] would draw from
//! `stream_rng(run_seed, 0, salts::ADVERSARY)`) and may *override* a
//! base pick — always redirecting to the most-behind enabled process —
//! by spending one budget token per override. With zero budget the
//! pick sequence is identical to the oblivious schedule, which anchors
//! every tournament comparison.
//!
//! [`RandomInterleave`]: nc_sched::adversary::RandomInterleave

use rand::rngs::SmallRng;
use rand::RngExt;

use nc_sched::adversary::{Adversary, ProcView};
use nc_sched::rng::salts;
use nc_sched::stream_rng;

use crate::strategy::{BudgetSchedule, StrategyPoint, TargetRule};

/// Operations per lean-consensus round; a process's round ends with its
/// decisive `ReadPrevRival` (the only operation that can decide).
const OPS_PER_ROUND: u64 = 4;

/// The core budget-limited adaptive adversary: one [`StrategyPoint`]
/// made executable.
///
/// Before every operation the engine offers the current
/// [`ProcView`]; the adversary draws the oblivious base pick, accrues
/// budget per its schedule, and — if its target rule fires and a token
/// is available — redirects the step to the most-behind enabled
/// process. [`Self::spent`] never exceeds [`Self::granted`], a contract
/// the property suite pins for every point of every family.
#[derive(Clone, Debug)]
pub struct BudgetedAdversary {
    point: StrategyPoint,
    base: SmallRng,
    tokens: u64,
    granted: u64,
    spent: u64,
    primed: bool,
    last_round: usize,
}

impl BudgetedAdversary {
    /// Builds the adversary for one run. The base schedule derives from
    /// `stream_rng(run_seed, 0, salts::ADVERSARY)`, so the oblivious
    /// point reproduces [`nc_sched::adversary::RandomInterleave`] on
    /// the same stream pick-for-pick.
    pub(crate) fn new(point: StrategyPoint, run_seed: u64) -> Self {
        BudgetedAdversary {
            point,
            base: stream_rng(run_seed, 0, salts::ADVERSARY),
            tokens: 0,
            granted: 0,
            spent: 0,
            primed: false,
            last_round: 0,
        }
    }

    /// Total tokens granted by the budget schedule so far.
    pub fn granted(&self) -> u64 {
        self.granted
    }

    /// Tokens spent on overrides so far (≤ [`Self::granted`]).
    pub fn spent(&self) -> u64 {
        self.spent
    }

    fn accrue(&mut self, view: &ProcView<'_>) {
        let Some(schedule) = self.point.budget else {
            return;
        };
        let frontier = view.max_round().unwrap_or(0);
        if !self.primed {
            self.primed = true;
            self.last_round = frontier;
            let initial = match schedule {
                BudgetSchedule::Constant(b) => b,
                BudgetSchedule::PerRound(m) => m,
            };
            self.tokens += initial;
            self.granted += initial;
            return;
        }
        if let BudgetSchedule::PerRound(m) = schedule {
            if frontier > self.last_round {
                let earned = m * (frontier - self.last_round) as u64;
                self.tokens += earned;
                self.granted += earned;
                self.last_round = frontier;
            }
        }
    }

    /// Whether the rule fires on this view/pick; returns the redirect
    /// target if so.
    fn intervene(&self, view: &ProcView<'_>, pick: usize) -> Option<usize> {
        let leader = view.leader()?;
        let lead = view.lead();
        let trigger = self.point.trigger;
        let fires = match self.point.rule {
            TargetRule::StallLeader => pick == leader && lead >= trigger as usize,
            TargetRule::NearDecision => {
                // `steps % 4 == 3` means the next operation is the
                // round's decisive ReadPrevRival; the window counts
                // operations until that point.
                let to_decisive = OPS_PER_ROUND - view.steps[leader] % OPS_PER_ROUND;
                pick == leader && lead >= 1 && to_decisive <= u64::from(trigger.max(1))
            }
            TargetRule::RoundBoundary => {
                pick == leader && view.steps[leader] % OPS_PER_ROUND < u64::from(trigger.max(1))
            }
            TargetRule::CatchUp => lead >= trigger.max(1) as usize,
        };
        if fires {
            view.most_behind()
        } else {
            None
        }
    }
}

impl Adversary for BudgetedAdversary {
    fn next(&mut self, view: ProcView<'_>) -> Option<usize> {
        let enabled: Vec<usize> = view.enabled_ids().collect();
        if enabled.is_empty() {
            return None;
        }
        self.accrue(&view);
        // The base draw happens unconditionally, so the oblivious
        // stream is identical whether or not any override fires.
        let pick = enabled[self.base.random_range(0..enabled.len())];
        if self.tokens > 0 {
            if let Some(target) = self.intervene(&view, pick) {
                if target != pick {
                    self.tokens -= 1;
                    self.spent += 1;
                    return Some(target);
                }
            }
        }
        Some(pick)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nc_sched::adversary::RandomInterleave;

    fn view<'a>(enabled: &'a [bool], round: &'a [usize], steps: &'a [u64]) -> ProcView<'a> {
        ProcView {
            enabled,
            round,
            steps,
        }
    }

    #[test]
    fn oblivious_point_matches_random_interleave() {
        let seed = 42;
        let mut adaptive = BudgetedAdversary::new(StrategyPoint::oblivious(), seed);
        let mut oblivious = RandomInterleave::new(stream_rng(seed, 0, salts::ADVERSARY));
        let enabled = [true, true, false, true, true];
        let round = [1, 2, 9, 1, 3];
        let steps = [4, 8, 36, 5, 12];
        for _ in 0..200 {
            let v = view(&enabled, &round, &steps);
            assert_eq!(adaptive.next(v), oblivious.next(v));
        }
        assert_eq!(adaptive.spent(), 0);
        assert_eq!(adaptive.granted(), 0);
    }

    #[test]
    fn stall_leader_redirects_to_most_behind() {
        // Constant budget, trigger lead 1: the first time the base pick
        // lands on the leader, the step goes to the most-behind process.
        let point = StrategyPoint {
            budget: Some(BudgetSchedule::Constant(100)),
            rule: TargetRule::StallLeader,
            trigger: 1,
        };
        let mut adv = BudgetedAdversary::new(point, 7);
        let enabled = [true, true, true];
        let round = [3, 1, 2];
        let steps = [12, 4, 8];
        let mut redirected = false;
        for _ in 0..50 {
            let pick = adv.next(view(&enabled, &round, &steps)).unwrap();
            assert_ne!(
                pick, 0,
                "leader picks must be redirected while budget lasts"
            );
            if adv.spent() > 0 {
                redirected = true;
            }
        }
        assert!(
            redirected,
            "base schedule never picked the leader in 50 draws?"
        );
        // Every redirect went to the most-behind process (id 1), and
        // each one cost exactly one token.
        assert!(adv.spent() <= adv.granted());
    }

    #[test]
    fn constant_budget_exhausts() {
        let point = StrategyPoint {
            budget: Some(BudgetSchedule::Constant(2)),
            rule: TargetRule::CatchUp,
            trigger: 1,
        };
        let mut adv = BudgetedAdversary::new(point, 9);
        let enabled = [true, true];
        let round = [5, 1];
        let steps = [20, 4];
        // CatchUp with lead 4 fires on every pick until tokens run out;
        // redirect target is id 1, so picks of 1 cost nothing only when
        // the base already chose 1... the redirect-to-self case spends
        // nothing, hence spent counts only actual overrides.
        for _ in 0..100 {
            adv.next(view(&enabled, &round, &steps)).unwrap();
        }
        assert_eq!(adv.granted(), 2);
        assert!(adv.spent() <= 2);
    }

    #[test]
    fn per_round_budget_accrues_with_frontier() {
        let point = StrategyPoint {
            budget: Some(BudgetSchedule::PerRound(3)),
            rule: TargetRule::StallLeader,
            trigger: 0,
        };
        let mut adv = BudgetedAdversary::new(point, 11);
        let enabled = [true, true];
        let steps = [4, 4];
        let r1 = [1, 1];
        adv.next(view(&enabled, &r1, &steps)).unwrap();
        assert_eq!(adv.granted(), 3);
        let r2 = [3, 1]; // frontier jumped 2 rounds
        adv.next(view(&enabled, &r2, &steps)).unwrap();
        assert_eq!(adv.granted(), 9);
        // Frontier regressing (leader crashed) earns nothing.
        let r3 = [3, 2];
        adv.next(view(&enabled, &r3, &steps)).unwrap();
        assert_eq!(adv.granted(), 9);
    }

    #[test]
    fn near_decision_fires_only_in_window() {
        let point = StrategyPoint {
            budget: Some(BudgetSchedule::Constant(100)),
            rule: TargetRule::NearDecision,
            trigger: 1,
        };
        let adv = BudgetedAdversary::new(point, 13);
        let enabled = [true, true];
        let round = [3, 1];
        // Leader at steps 11: 11 % 4 == 3, next op is the decisive
        // fourth — inside a window of 1.
        let steps_hot = [11, 4];
        let v = view(&enabled, &round, &steps_hot);
        assert_eq!(adv.intervene(&v, 0), Some(1));
        // Leader at steps 9: two ops from the decisive read — outside.
        let steps_cold = [9, 4];
        let v = view(&enabled, &round, &steps_cold);
        assert_eq!(adv.intervene(&v, 0), None);
        // No lead → a decision is not plausible → hoard.
        let round_tied = [3, 3];
        let v = view(&enabled, &round_tied, &steps_hot);
        assert_eq!(adv.intervene(&v, 0), None);
    }

    #[test]
    fn round_boundary_fires_at_phase_start() {
        let point = StrategyPoint {
            budget: Some(BudgetSchedule::PerRound(4)),
            rule: TargetRule::RoundBoundary,
            trigger: 1,
        };
        let adv = BudgetedAdversary::new(point, 17);
        let enabled = [true, true];
        let round = [3, 1];
        // steps % 4 == 0: the leader just crossed a round boundary.
        let at_boundary = [12, 4];
        let v = view(&enabled, &round, &at_boundary);
        assert_eq!(adv.intervene(&v, 0), Some(1));
        let mid_round = [14, 4];
        let v = view(&enabled, &round, &mid_round);
        assert_eq!(adv.intervene(&v, 0), None);
    }
}
