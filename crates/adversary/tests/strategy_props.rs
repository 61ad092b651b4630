//! Property tests over the whole strategy space: every point of every
//! family must yield a *valid* adversary — it only ever picks enabled
//! processes (the engine panics otherwise, so merely completing the run
//! is the assertion), never spends more budget than its schedule
//! granted, and preserves the protocol's safety properties on whatever
//! state the run reaches.

use std::sync::{Arc, Mutex};

use proptest::prelude::*;

use nc_adversary::{BudgetSchedule, BudgetedAdversary, StrategyPoint, TargetRule};
use nc_engine::sim::Sim;
use nc_engine::{setup, Algorithm, Limits, RunOutcome, RunReport};
use nc_sched::adversary::{Adversary, ProcView, RandomInterleave};
use nc_sched::rng::salts;
use nc_sched::stream_rng;

/// A budgeted adversary that copies its `(granted, spent)` budget out
/// after every pick, so a test can read it once the run that built it
/// is over.
struct Metered {
    inner: BudgetedAdversary,
    budget: Arc<Mutex<(u64, u64)>>,
}

impl Adversary for Metered {
    fn next(&mut self, view: ProcView<'_>) -> Option<usize> {
        let pick = self.inner.next(view);
        *self.budget.lock().unwrap() = (self.inner.granted(), self.inner.spent());
        pick
    }
}

/// Runs `n` lean processes on half-and-half inputs under the adversary
/// `make` builds from the run seed, to the first decision or 5 000
/// operations.
fn run_adversary<A: Adversary + 'static>(
    n: usize,
    seed: u64,
    make: impl Fn(u64) -> A + Send + Sync + 'static,
) -> RunReport {
    Sim::new(Algorithm::Lean)
        .inputs(setup::half_and_half(n))
        .adversary(make)
        .limits(Limits::first_decision().with_max_ops(5_000))
        .build()
        .run(seed)
}

fn budget_strategy() -> impl Strategy<Value = Option<BudgetSchedule>> {
    prop_oneof![
        Just(None),
        (0u64..=32).prop_map(|b| Some(BudgetSchedule::Constant(b))),
        (0u64..=6).prop_map(|m| Some(BudgetSchedule::PerRound(m))),
    ]
}

fn rule_strategy() -> impl Strategy<Value = TargetRule> {
    prop_oneof![
        Just(TargetRule::StallLeader),
        Just(TargetRule::NearDecision),
        Just(TargetRule::RoundBoundary),
        Just(TargetRule::CatchUp),
    ]
}

fn point_strategy() -> impl Strategy<Value = StrategyPoint> {
    (budget_strategy(), rule_strategy(), 0u32..=4).prop_map(|(budget, rule, trigger)| {
        StrategyPoint {
            budget,
            rule,
            trigger,
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn every_point_yields_a_budget_respecting_valid_adversary(
        point in point_strategy(),
        n in 2usize..=8,
        seed in 0u64..1000,
    ) {
        let budget = Arc::new(Mutex::new((0, 0)));
        let meter = Arc::clone(&budget);
        let report = run_adversary(n, seed, move |seed| Metered {
            inner: point.build(seed),
            budget: Arc::clone(&meter),
        });
        let (granted, spent) = *budget.lock().unwrap();
        // Valid picks: the engine panics on a disabled pick, so
        // reaching here at all is the validity assertion. The schedule
        // source never runs dry (processes stay enabled until decision
        // or cap), so only these two outcomes exist:
        prop_assert!(matches!(
            report.outcome,
            RunOutcome::FirstDecision | RunOutcome::OpCapReached
        ));
        // Budget-respecting: every override cost a granted token.
        prop_assert!(spent <= granted);
        if point.budget.is_none() {
            prop_assert_eq!(granted, 0);
            prop_assert_eq!(spent, 0);
        }
        // Safety holds on whatever state the run reached.
        report.check_safety(&setup::half_and_half(n)).unwrap();
        // The progress telemetry the tournament scores is coherent.
        prop_assert!(report.max_round >= 1);
        if let Some(first) = report.first_decision_round {
            prop_assert!(report.max_round >= first);
        }
    }

    #[test]
    fn oblivious_point_is_pickwise_identical_to_random_interleave(
        n in 2usize..=6,
        seed in 0u64..500,
    ) {
        // Full-run equivalence: the zero-budget point and
        // RandomInterleave on the same stream produce identical
        // RunReports, which is what makes the tournament's baseline an
        // apples-to-apples comparison.
        let report_a = run_adversary(n, seed, |seed| StrategyPoint::oblivious().build(seed));
        let report_b = run_adversary(n, seed, |seed| {
            RandomInterleave::new(stream_rng(seed, 0, salts::ADVERSARY))
        });
        prop_assert_eq!(report_a, report_b);
    }

    #[test]
    fn picks_are_enabled_on_arbitrary_views(
        point in point_strategy(),
        seed in 0u64..1000,
        enabled in collection::vec(any::<bool>(), 1..10),
        state in (
            collection::vec(1usize..50, 10..11),
            collection::vec(0u64..200, 10..11),
        ),
    ) {
        // Harsher than real executions: arbitrary (even inconsistent)
        // views must still only produce enabled picks or None.
        let (rounds, steps) = state;
        let n = enabled.len();
        let mut adv = point.build(seed);
        for _ in 0..20 {
            let view = ProcView {
                enabled: &enabled,
                round: &rounds[..n],
                steps: &steps[..n],
            };
            match adv.next(view) {
                Some(pick) => prop_assert!(enabled[pick], "disabled pick {pick}"),
                None => prop_assert!(enabled.iter().all(|&e| !e)),
            }
            prop_assert!(adv.spent() <= adv.granted());
        }
    }
}
