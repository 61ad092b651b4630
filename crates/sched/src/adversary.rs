//! Untimed schedule adversaries and crash adversaries.
//!
//! The safety half of the paper (§5: agreement and validity) must hold
//! under **every** schedule, not just noisy ones. These adversaries drive
//! the engine's untimed executor: at each step the adversary picks which
//! enabled process performs its next operation, with full knowledge of
//! the execution so far — strictly stronger than the noisy scheduler, and
//! exactly what Lemmas 2–4 are proved against.
//!
//! Crash adversaries model the non-random failures discussed in §10: an
//! adaptive adversary that may kill processes based on the execution
//! (e.g. always killing the current leader), used by the `O(f log n)`
//! experiment.

use rand::rngs::SmallRng;
use rand::RngExt;

/// A snapshot of per-process execution state offered to adversaries.
///
/// All slices are indexed by process id. A process is *enabled* if it can
/// still take steps (it has neither decided nor crashed).
#[derive(Clone, Copy, Debug)]
pub struct ProcView<'a> {
    /// Whether each process can still take a step.
    pub enabled: &'a [bool],
    /// Each process's current protocol round (1-based; 0 before the first
    /// round starts).
    pub round: &'a [usize],
    /// Operations each process has executed so far.
    pub steps: &'a [u64],
}

impl ProcView<'_> {
    /// Ids of the currently enabled processes, in id order.
    pub fn enabled_ids(&self) -> impl Iterator<Item = usize> + '_ {
        self.enabled
            .iter()
            .enumerate()
            .filter_map(|(i, &e)| e.then_some(i))
    }

    /// The highest round among enabled processes, or `None` if none are
    /// enabled.
    pub fn max_round(&self) -> Option<usize> {
        self.enabled_ids().map(|i| self.round[i]).max()
    }

    /// The enabled process furthest ahead in the race, by `(round,
    /// steps)` with ties broken toward the lower id; `None` if no
    /// process is enabled.
    ///
    /// Adaptive adversaries key their interventions off this process —
    /// it is the one whose race lane is closest to producing a decision.
    pub fn leader(&self) -> Option<usize> {
        self.enabled_ids().max_by(|&a, &b| {
            (self.round[a], self.steps[a], std::cmp::Reverse(a)).cmp(&(
                self.round[b],
                self.steps[b],
                std::cmp::Reverse(b),
            ))
        })
    }

    /// How many rounds the leader is ahead of the best *other* enabled
    /// process (0 when tied or when fewer than one process is enabled).
    /// A solo enabled process's lead is its full round count, matching
    /// [`LeaderKiller`]'s runner-up-of-zero convention.
    pub fn lead(&self) -> usize {
        let Some(leader) = self.leader() else {
            return 0;
        };
        let runner_up = self
            .enabled_ids()
            .filter(|&i| i != leader)
            .map(|i| self.round[i])
            .max()
            .unwrap_or(0);
        self.round[leader].saturating_sub(runner_up)
    }

    /// The enabled process furthest behind, by `(round, steps)` with
    /// ties broken toward the lower id; `None` if no process is enabled.
    ///
    /// The canonical redirect target for budgeted adversaries: stepping
    /// the most-behind process keeps the race close, which is exactly
    /// what delays a lean-consensus decision.
    pub fn most_behind(&self) -> Option<usize> {
        self.enabled_ids()
            .min_by_key(|&i| (self.round[i], self.steps[i], i))
    }
}

/// Chooses which process performs the next operation.
///
/// Returning `None` ends the schedule: the engine stops stepping and
/// reports whatever state the run reached (used by scripted schedules and
/// by bounded adversaries in tests).
pub trait Adversary {
    /// Picks the next process to step, among the enabled ones in `view`.
    ///
    /// Implementations must return an enabled process id or `None`; the
    /// engine treats a disabled choice as a bug and panics.
    fn next(&mut self, view: ProcView<'_>) -> Option<usize>;
}

// Boxed adversaries forward, so factories can hand out `Box<dyn …>`
// (e.g. `nc_engine::sim::Sim::adversary` closures picking a variant at
// runtime) wherever a concrete adversary works.
impl<A: Adversary + ?Sized> Adversary for Box<A> {
    fn next(&mut self, view: ProcView<'_>) -> Option<usize> {
        (**self).next(view)
    }
}

/// Steps enabled processes cyclically in id order — the canonical "fair"
/// lockstep schedule. Against equal-split inputs this is close to the
/// worst case for lean-consensus termination, since nobody pulls ahead.
#[derive(Clone, Debug, Default)]
pub struct RoundRobin {
    cursor: usize,
}

impl RoundRobin {
    /// Creates a round-robin adversary starting from process 0.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Adversary for RoundRobin {
    fn next(&mut self, view: ProcView<'_>) -> Option<usize> {
        let n = view.enabled.len();
        for k in 0..n {
            let i = (self.cursor + k) % n;
            if view.enabled[i] {
                self.cursor = i + 1;
                return Some(i);
            }
        }
        None
    }
}

/// Steps a uniformly random enabled process each time.
///
/// This is the discrete analogue of exponential interarrival noise, and a
/// good generic stress schedule for property tests.
#[derive(Clone, Debug)]
pub struct RandomInterleave {
    rng: SmallRng,
}

impl RandomInterleave {
    /// Creates a random-interleaving adversary from its own RNG stream.
    pub fn new(rng: SmallRng) -> Self {
        RandomInterleave { rng }
    }
}

impl Adversary for RandomInterleave {
    fn next(&mut self, view: ProcView<'_>) -> Option<usize> {
        let enabled: Vec<usize> = view.enabled_ids().collect();
        if enabled.is_empty() {
            return None;
        }
        let k = self.rng.random_range(0..enabled.len());
        Some(enabled[k])
    }
}

/// Always steps the most-behind enabled process (fewest operations,
/// breaking ties by lower round then lower id).
///
/// This adversary actively prevents any process from pulling ahead — the
/// exact behaviour the noisy-scheduling model says is hard to sustain, and
/// the reason pure adversarial scheduling can stall lean-consensus
/// forever. Used to demonstrate non-termination risk and to stress the
/// bounded protocol's backup path.
#[derive(Clone, Debug, Default)]
pub struct AntiLeader;

impl Adversary for AntiLeader {
    fn next(&mut self, view: ProcView<'_>) -> Option<usize> {
        view.enabled_ids()
            .min_by_key(|&i| (view.steps[i], view.round[i], i))
    }
}

/// Replays a fixed list of process ids, skipping entries whose process is
/// no longer enabled; ends the schedule when exhausted.
///
/// The workhorse of property-based safety tests: proptest generates the
/// script, the engine replays it, and any agreement/validity violation is
/// a minimal counterexample schedule.
#[derive(Clone, Debug)]
pub struct Script {
    script: Vec<usize>,
    cursor: usize,
}

impl Script {
    /// Creates a scripted adversary from a list of process ids.
    pub fn new(script: Vec<usize>) -> Self {
        Script { script, cursor: 0 }
    }
}

impl Adversary for Script {
    fn next(&mut self, view: ProcView<'_>) -> Option<usize> {
        while self.cursor < self.script.len() {
            let pick = self.script[self.cursor] % view.enabled.len().max(1);
            self.cursor += 1;
            if view.enabled.get(pick).copied().unwrap_or(false) {
                return Some(pick);
            }
        }
        None
    }
}

/// Runs a single chosen process exclusively for as long as it is enabled,
/// then falls back to round-robin among the rest.
///
/// Exercises the wait-free fast path: a solo process must decide within
/// a bounded number of its own steps regardless of the others.
#[derive(Clone, Debug)]
pub struct Solo {
    /// The favoured process.
    favourite: usize,
    fallback: RoundRobin,
}

impl Solo {
    /// Creates an adversary that favours `favourite`.
    pub fn new(favourite: usize) -> Self {
        Solo {
            favourite,
            fallback: RoundRobin::new(),
        }
    }
}

impl Adversary for Solo {
    fn next(&mut self, view: ProcView<'_>) -> Option<usize> {
        if view.enabled.get(self.favourite).copied().unwrap_or(false) {
            Some(self.favourite)
        } else {
            self.fallback.next(view)
        }
    }
}

/// Decides which processes crash, adaptively, after each executed
/// operation (§10's non-random failures).
pub trait CrashAdversary {
    /// Returns the ids of processes to crash now. Called by the engine
    /// after every operation with the post-operation view.
    fn crash_now(&mut self, view: ProcView<'_>) -> Vec<usize>;
}

impl<C: CrashAdversary + ?Sized> CrashAdversary for Box<C> {
    fn crash_now(&mut self, view: ProcView<'_>) -> Vec<usize> {
        (**self).crash_now(view)
    }
}

/// The adaptive leader-killer: whenever some enabled process's round
/// exceeds every other enabled process's round by at least
/// `trigger_lead`, crash it — up to a budget of `f` crashes.
///
/// This is the strategy behind the paper's `O(f log n)` upper-bound
/// argument (§10): the adversary must spend one crash per emerging leader,
/// and between crashes the noisy race re-runs Theorem 12.
#[derive(Clone, Debug)]
pub struct LeaderKiller {
    budget: usize,
    trigger_lead: usize,
    crashed: Vec<usize>,
}

impl LeaderKiller {
    /// Creates a leader-killer allowed `budget` crashes, triggering when a
    /// leader is `trigger_lead` rounds ahead of all other enabled
    /// processes.
    pub fn new(budget: usize, trigger_lead: usize) -> Self {
        LeaderKiller {
            budget,
            trigger_lead: trigger_lead.max(1),
            crashed: Vec::new(),
        }
    }
}

impl CrashAdversary for LeaderKiller {
    fn crash_now(&mut self, view: ProcView<'_>) -> Vec<usize> {
        if self.budget == 0 {
            return Vec::new();
        }
        let mut enabled = view.enabled_ids();
        let Some(first) = enabled.next() else {
            return Vec::new();
        };
        // Find the leader and runner-up rounds among enabled processes.
        let mut leader = first;
        let mut leader_round = view.round[first];
        let mut runner_up = 0usize; // round of second place (0 if none)
        for i in enabled {
            let r = view.round[i];
            if r > leader_round {
                runner_up = leader_round;
                leader_round = r;
                leader = i;
            } else if r > runner_up {
                runner_up = r;
            }
        }
        if leader_round >= runner_up + self.trigger_lead {
            self.budget -= 1;
            self.crashed.push(leader);
            vec![leader]
        } else {
            Vec::new()
        }
    }
}

/// Crashes specific processes when they reach specific step counts —
/// a scripted, replayable failure pattern for regression tests.
#[derive(Clone, Debug)]
pub struct CrashScript {
    /// Pairs `(pid, steps)`: crash `pid` once it has executed `steps` ops.
    plan: Vec<(usize, u64)>,
}

impl CrashScript {
    /// Creates a scripted crash adversary from `(pid, step_count)` pairs.
    pub fn new(plan: Vec<(usize, u64)>) -> Self {
        CrashScript { plan }
    }
}

impl CrashAdversary for CrashScript {
    fn crash_now(&mut self, view: ProcView<'_>) -> Vec<usize> {
        let mut out = Vec::new();
        self.plan.retain(|&(pid, at)| {
            let due = view.steps.get(pid).is_some_and(|&s| s >= at)
                && view.enabled.get(pid).copied().unwrap_or(false);
            if due {
                out.push(pid);
                false
            } else {
                true
            }
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::stream_rng;

    fn view<'a>(enabled: &'a [bool], round: &'a [usize], steps: &'a [u64]) -> ProcView<'a> {
        ProcView {
            enabled,
            round,
            steps,
        }
    }

    #[test]
    fn round_robin_cycles_enabled() {
        let mut adv = RoundRobin::new();
        let enabled = [true, true, true];
        let round = [0, 0, 0];
        let steps = [0, 0, 0];
        let v = view(&enabled, &round, &steps);
        let picks: Vec<usize> = (0..6).map(|_| adv.next(v).unwrap()).collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn round_robin_skips_disabled() {
        let mut adv = RoundRobin::new();
        let enabled = [true, false, true];
        let round = [0, 0, 0];
        let steps = [0, 0, 0];
        let v = view(&enabled, &round, &steps);
        let picks: Vec<usize> = (0..4).map(|_| adv.next(v).unwrap()).collect();
        assert_eq!(picks, vec![0, 2, 0, 2]);
    }

    #[test]
    fn round_robin_none_when_all_disabled() {
        let mut adv = RoundRobin::new();
        let enabled = [false, false];
        let round = [0, 0];
        let steps = [0, 0];
        assert_eq!(adv.next(view(&enabled, &round, &steps)), None);
    }

    #[test]
    fn random_interleave_only_picks_enabled() {
        let mut adv = RandomInterleave::new(stream_rng(1, 0, 0));
        let enabled = [false, true, false, true];
        let round = [0; 4];
        let steps = [0; 4];
        for _ in 0..100 {
            let pick = adv.next(view(&enabled, &round, &steps)).unwrap();
            assert!(pick == 1 || pick == 3);
        }
    }

    #[test]
    fn random_interleave_covers_all_enabled() {
        let mut adv = RandomInterleave::new(stream_rng(2, 0, 0));
        let enabled = [true; 5];
        let round = [0; 5];
        let steps = [0; 5];
        let mut seen = [false; 5];
        for _ in 0..200 {
            seen[adv.next(view(&enabled, &round, &steps)).unwrap()] = true;
        }
        assert!(seen.iter().all(|&s| s), "some process never scheduled");
    }

    #[test]
    fn anti_leader_picks_most_behind() {
        let mut adv = AntiLeader;
        let enabled = [true, true, true];
        let round = [3, 1, 2];
        let steps = [12, 4, 8];
        assert_eq!(adv.next(view(&enabled, &round, &steps)), Some(1));
    }

    #[test]
    fn anti_leader_breaks_ties_by_id() {
        let mut adv = AntiLeader;
        let enabled = [true, true];
        let round = [1, 1];
        let steps = [4, 4];
        assert_eq!(adv.next(view(&enabled, &round, &steps)), Some(0));
    }

    #[test]
    fn script_replays_and_ends() {
        let mut adv = Script::new(vec![2, 0, 1]);
        let enabled = [true, true, true];
        let round = [0; 3];
        let steps = [0; 3];
        let v = view(&enabled, &round, &steps);
        assert_eq!(adv.next(v), Some(2));
        assert_eq!(adv.script.len() - adv.cursor, 2);
        assert_eq!(adv.next(v), Some(0));
        assert_eq!(adv.next(v), Some(1));
        assert_eq!(adv.next(v), None);
    }

    #[test]
    fn script_skips_disabled_entries() {
        let mut adv = Script::new(vec![0, 0, 1]);
        let enabled = [false, true];
        let round = [0; 2];
        let steps = [0; 2];
        assert_eq!(adv.next(view(&enabled, &round, &steps)), Some(1));
        assert_eq!(adv.next(view(&enabled, &round, &steps)), None);
    }

    #[test]
    fn script_wraps_out_of_range_ids() {
        let mut adv = Script::new(vec![7]);
        let enabled = [true, true, true];
        let round = [0; 3];
        let steps = [0; 3];
        assert_eq!(adv.next(view(&enabled, &round, &steps)), Some(1)); // 7 % 3
    }

    #[test]
    fn solo_prefers_favourite_until_disabled() {
        let mut adv = Solo::new(1);
        let enabled = [true, true];
        let round = [0; 2];
        let steps = [0; 2];
        assert_eq!(adv.next(view(&enabled, &round, &steps)), Some(1));
        let enabled = [true, false];
        assert_eq!(adv.next(view(&enabled, &round, &steps)), Some(0));
    }

    #[test]
    fn leader_killer_kills_clear_leader() {
        let mut adv = LeaderKiller::new(2, 2);
        let enabled = [true, true, true];
        let round = [5, 3, 2];
        let steps = [20, 12, 8];
        assert_eq!(adv.crash_now(view(&enabled, &round, &steps)), vec![0]);
        assert_eq!(adv.crashed, [0]);
    }

    #[test]
    fn leader_killer_respects_trigger_lead() {
        let mut adv = LeaderKiller::new(2, 3);
        let enabled = [true, true];
        let round = [5, 3];
        let steps = [20, 12];
        assert!(adv.crash_now(view(&enabled, &round, &steps)).is_empty());
        let round = [6, 3];
        assert_eq!(adv.crash_now(view(&enabled, &round, &steps)), vec![0]);
    }

    #[test]
    fn leader_killer_exhausts_budget() {
        let mut adv = LeaderKiller::new(1, 1);
        let enabled = [true, true];
        let round = [5, 1];
        let steps = [20, 4];
        assert_eq!(adv.crash_now(view(&enabled, &round, &steps)).len(), 1);
        let round = [9, 1];
        assert!(adv.crash_now(view(&enabled, &round, &steps)).is_empty());
    }

    #[test]
    fn leader_killer_solo_process_is_a_leader() {
        // With one enabled process, runner-up round is 0; a big enough
        // lead still triggers.
        let mut adv = LeaderKiller::new(1, 2);
        let enabled = [true, false];
        let round = [4, 9];
        let steps = [16, 36];
        assert_eq!(adv.crash_now(view(&enabled, &round, &steps)), vec![0]);
    }

    #[test]
    fn crash_script_fires_at_step_counts() {
        let mut adv = CrashScript::new(vec![(0, 5), (1, 10)]);
        let enabled = [true, true];
        let round = [1, 1];
        let steps = [4, 4];
        assert!(adv.crash_now(view(&enabled, &round, &steps)).is_empty());
        let steps = [5, 9];
        assert_eq!(adv.crash_now(view(&enabled, &round, &steps)), vec![0]);
        let steps = [5, 10];
        assert_eq!(adv.crash_now(view(&enabled, &round, &steps)), vec![1]);
        // plan exhausted
        let steps = [99, 99];
        assert!(adv.crash_now(view(&enabled, &round, &steps)).is_empty());
    }

    #[test]
    fn crash_script_ignores_already_disabled() {
        let mut adv = CrashScript::new(vec![(0, 5)]);
        let enabled = [false, true];
        let round = [1, 1];
        let steps = [9, 9];
        assert!(adv.crash_now(view(&enabled, &round, &steps)).is_empty());
    }

    #[test]
    fn proc_view_helpers() {
        let enabled = [true, false, true];
        let round = [1, 7, 3];
        let steps = [0, 0, 0];
        let v = view(&enabled, &round, &steps);
        assert_eq!(v.enabled_ids().collect::<Vec<_>>(), vec![0, 2]);
        assert_eq!(v.max_round(), Some(3)); // 7 is disabled
        let none_enabled = [false; 3];
        let v = view(&none_enabled, &round, &steps);
        assert_eq!(v.max_round(), None);
    }

    #[test]
    fn proc_view_leader_and_most_behind() {
        let enabled = [true, false, true, true];
        let round = [2, 9, 3, 3];
        let steps = [8, 36, 11, 12];
        let v = view(&enabled, &round, &steps);
        // 1 is disabled; 2 and 3 share the top round, 3 has more steps.
        assert_eq!(v.leader(), Some(3));
        assert_eq!(v.most_behind(), Some(0));
        assert_eq!(v.lead(), 0); // runner-up 2 is in the same round

        let round = [2, 9, 1, 5];
        let v = view(&enabled, &round, &steps);
        assert_eq!(v.leader(), Some(3));
        assert_eq!(v.lead(), 3); // 5 - max(2, 1)
    }

    #[test]
    fn proc_view_leader_ties_break_low_id() {
        let enabled = [true, true, true];
        let round = [4, 4, 4];
        let steps = [16, 16, 16];
        let v = view(&enabled, &round, &steps);
        assert_eq!(v.leader(), Some(0));
        assert_eq!(v.most_behind(), Some(0));
        assert_eq!(v.lead(), 0);
    }

    #[test]
    fn proc_view_solo_lead_is_full_round_count() {
        let enabled = [false, true];
        let round = [7, 4];
        let steps = [28, 16];
        let v = view(&enabled, &round, &steps);
        assert_eq!(v.leader(), Some(1));
        assert_eq!(v.lead(), 4);
        let none = [false, false];
        let v = view(&none, &round, &steps);
        assert_eq!(v.leader(), None);
        assert_eq!(v.lead(), 0);
        assert_eq!(v.most_behind(), None);
    }
}
