//! The untimed, fully adversarial driver.
//!
//! The paper's safety properties (§5) are proved against an unrestricted
//! scheduler; this driver hands every scheduling decision to an
//! [`nc_sched::Adversary`] — including proptest-generated scripts — and
//! lets an [`nc_sched::CrashAdversary`] kill processes adaptively.
//! It is the workhorse behind the property-based safety suite.

use nc_core::Protocol;
use nc_sched::adversary::{Adversary, CrashAdversary};

use crate::drive::{self, Pick, Procs};
use crate::report::{Limits, RunOutcome, RunReport};
use crate::setup::Instance;

/// The adversarial driver beneath [`crate::sim::Sim::adversary`]: runs
/// an instance under a schedule chosen step-by-step by `adversary`,
/// with the adaptive crash adversary, if any, consulted after every
/// executed operation.
///
/// The adversary is consulted before every operation with the current
/// view (enabled flags, rounds, step counts) and must name an enabled
/// process; returning `None` ends the run with
/// [`RunOutcome::ScheduleExhausted`].
///
/// # Panics
///
/// Panics if the adversary names a disabled process (an adversary
/// implementation bug).
pub(crate) fn drive_adversarial<P: Protocol>(
    inst: &mut Instance<P>,
    adversary: &mut dyn Adversary,
    crash: Option<&mut dyn CrashAdversary>,
    limits: Limits,
) -> RunReport {
    drive::run(inst, &mut Untimed(adversary), limits, crash, None)
}

/// An untimed schedule: the adversary names every step.
struct Untimed<'a>(&'a mut dyn Adversary);

impl Pick for Untimed<'_> {
    fn pick(&mut self, procs: &Procs) -> Result<(usize, Option<f64>), RunOutcome> {
        let pid = self
            .0
            .next(procs.view())
            .ok_or(RunOutcome::ScheduleExhausted)?;
        assert!(
            procs.enabled.get(pid).copied().unwrap_or(false),
            "adversary chose disabled process {pid}"
        );
        Ok((pid, None))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setup::{self, Algorithm};
    use nc_memory::Bit;
    use nc_sched::adversary::{
        AntiLeader, LeaderKiller, RandomInterleave, RoundRobin, Script, Solo,
    };
    use nc_sched::stream_rng;

    /// [`drive_adversarial`] without crashes — the shape most tests
    /// here want.
    fn run_adversarial(
        inst: &mut Instance,
        adversary: &mut dyn Adversary,
        limits: Limits,
    ) -> RunReport {
        drive_adversarial(inst, adversary, None, limits)
    }

    #[test]
    fn round_robin_unanimous_decides_in_8_ops_each() {
        for input in Bit::BOTH {
            let inputs = setup::unanimous(5, input);
            let mut inst = setup::build(Algorithm::Lean, &inputs, 0);
            let report = run_adversarial(
                &mut inst,
                &mut RoundRobin::new(),
                Limits::run_to_completion(),
            );
            assert_eq!(report.outcome, RunOutcome::AllDecided);
            assert!(report.ops.iter().all(|&o| o == 8), "{:?}", report.ops);
            report.check_safety(&inputs).unwrap();
        }
    }

    #[test]
    fn round_robin_split_never_terminates() {
        let inputs = setup::alternating(4);
        let mut inst = setup::build(Algorithm::Lean, &inputs, 0);
        let report = run_adversarial(
            &mut inst,
            &mut RoundRobin::new(),
            Limits::run_to_completion().with_max_ops(100_000),
        );
        assert_eq!(report.outcome, RunOutcome::OpCapReached);
        assert_eq!(report.decided_count(), 0);
        report.check_safety(&inputs).unwrap(); // safety even without termination
    }

    #[test]
    fn anti_leader_also_stalls_lean() {
        let inputs = setup::alternating(4);
        let mut inst = setup::build(Algorithm::Lean, &inputs, 0);
        let report = run_adversarial(
            &mut inst,
            &mut AntiLeader,
            Limits::run_to_completion().with_max_ops(100_000),
        );
        assert_eq!(report.outcome, RunOutcome::OpCapReached);
        report.check_safety(&inputs).unwrap();
    }

    #[test]
    fn random_interleave_terminates_lean() {
        for seed in 0..5 {
            let inputs = setup::half_and_half(6);
            let mut inst = setup::build(Algorithm::Lean, &inputs, seed);
            let mut adv = RandomInterleave::new(stream_rng(seed, 0, 4));
            let report = run_adversarial(&mut inst, &mut adv, Limits::run_to_completion());
            assert_eq!(report.outcome, RunOutcome::AllDecided, "seed {seed}");
            report.check_safety(&inputs).unwrap();
        }
    }

    #[test]
    fn solo_adversary_shows_wait_freedom() {
        // Favourite process runs alone and must decide in 8 ops no matter
        // that others exist but never run.
        let inputs = setup::half_and_half(4);
        let mut inst = setup::build(Algorithm::Lean, &inputs, 0);
        let mut adv = Solo::new(2);
        let report = run_adversarial(&mut inst, &mut adv, Limits::run_to_completion());
        assert_eq!(report.decisions[2], Some(inputs[2]));
        assert_eq!(report.ops[2], 8);
        assert_eq!(report.outcome, RunOutcome::AllDecided);
        report.check_safety(&inputs).unwrap();
    }

    #[test]
    fn scripted_schedule_exhausts() {
        let inputs = setup::half_and_half(2);
        let mut inst = setup::build(Algorithm::Lean, &inputs, 0);
        let mut adv = Script::new(vec![0, 1, 0]);
        let report = run_adversarial(&mut inst, &mut adv, Limits::run_to_completion());
        assert_eq!(report.outcome, RunOutcome::ScheduleExhausted);
        assert_eq!(report.total_ops, 3);
        report.check_safety(&inputs).unwrap();
    }

    #[test]
    fn crash_all_processes_reports_all_halted() {
        let inputs = setup::alternating(3);
        let mut inst = setup::build(Algorithm::Lean, &inputs, 0);
        let mut crash = nc_sched::adversary::CrashScript::new(vec![(0, 1), (1, 1), (2, 1)]);
        let report = drive_adversarial(
            &mut inst,
            &mut RoundRobin::new(),
            Some(&mut crash),
            Limits::run_to_completion(),
        );
        assert_eq!(report.outcome, RunOutcome::AllHalted);
        assert_eq!(report.decided_count(), 0);
        assert!(report.halted.iter().all(|&h| h));
    }

    #[test]
    fn leader_killer_lets_lean_recover() {
        // Killing f leaders costs O(f log n) extra rounds but must not
        // prevent (probabilistic) termination under a random schedule.
        for seed in 0..5 {
            let inputs = setup::half_and_half(6);
            let mut inst = setup::build(Algorithm::Lean, &inputs, seed);
            let mut adv = RandomInterleave::new(stream_rng(seed, 1, 4));
            let mut killer = LeaderKiller::new(2, 2);
            let report = drive_adversarial(
                &mut inst,
                &mut adv,
                Some(&mut killer),
                Limits::run_to_completion(),
            );
            assert_eq!(report.outcome, RunOutcome::AllDecided, "seed {seed}");
            report.check_safety(&inputs).unwrap();
        }
    }

    #[test]
    fn all_algorithms_safe_under_random_adversary() {
        for alg in [
            Algorithm::Lean,
            Algorithm::Skipping,
            Algorithm::Randomized,
            Algorithm::Bounded { r_max: 6 },
            Algorithm::Backup,
        ] {
            let inputs = setup::half_and_half(4);
            let mut inst = setup::build(alg, &inputs, 21);
            let mut adv = RandomInterleave::new(stream_rng(21, 2, 4));
            let report = run_adversarial(&mut inst, &mut adv, Limits::run_to_completion());
            assert_eq!(report.outcome, RunOutcome::AllDecided, "{alg:?}");
            report.check_safety(&inputs).unwrap();
        }
    }
}
