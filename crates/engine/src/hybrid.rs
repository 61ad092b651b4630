//! The hybrid quantum + priority uniprocessor driver (§3.2, §7).
//!
//! One process runs at a time. The driver tracks the running process's
//! progress through its scheduling quantum and computes, before every
//! operation, the set of processes the model allows to run next
//! ([`nc_sched::HybridSpec::legal_next`]); a [`nc_sched::HybridPolicy`]
//! — the adversary — picks among them. Theorem 14 promises that with
//! quantum ≥ 8 every process running lean-consensus decides within 12
//! operations, *whatever* the policy does; the test suite and experiment
//! E5 check exactly that bound.

use nc_core::Protocol;
use nc_memory::Op;
use nc_sched::hybrid::{HybridPolicy, HybridSpec, HybridView};

use crate::drive::{self, Pick, Procs};
use crate::report::{Limits, RunOutcome, RunReport};
use crate::setup::Instance;

/// The hybrid-uniprocessor driver beneath [`crate::sim::Sim::hybrid`]:
/// runs an instance on a hybrid-scheduled uniprocessor. `spec` must be
/// sized for the instance's process count, which [`crate::sim::Sim::build`]
/// checks.
///
/// # Panics
///
/// Panics if the policy picks an illegal process.
pub(crate) fn drive_hybrid<P: Protocol>(
    inst: &mut Instance<P>,
    spec: &HybridSpec,
    policy: &mut dyn HybridPolicy,
    limits: Limits,
) -> RunReport {
    let n = inst.procs.len();
    let mut uniprocessor = Uniprocessor {
        spec,
        policy,
        current: None,
        used_in_quantum: 0,
        ever_scheduled: vec![false; n],
        pending_write: vec![false; n],
    };
    drive::run(inst, &mut uniprocessor, limits, None, None)
}

/// The hybrid schedule: the running process's progress through its
/// quantum, and the pending-write flags the policy's view shows.
struct Uniprocessor<'a> {
    spec: &'a HybridSpec,
    policy: &'a mut dyn HybridPolicy,
    current: Option<usize>,
    used_in_quantum: u32,
    ever_scheduled: Vec<bool>,
    pending_write: Vec<bool>,
}

impl Pick for Uniprocessor<'_> {
    fn pick(&mut self, procs: &Procs) -> Result<(usize, Option<f64>), RunOutcome> {
        let legal = self
            .spec
            .legal_next(self.current, self.used_in_quantum, &procs.enabled);
        assert!(!legal.is_empty(), "runnable processes but no legal move");
        let pick = self
            .policy
            .pick(HybridView {
                current: self.current,
                legal: &legal,
                round: &procs.rounds,
                steps: &procs.steps,
                pending_write: &self.pending_write,
            })
            .ok_or(RunOutcome::ScheduleExhausted)?;
        assert!(
            legal.contains(&pick),
            "policy picked illegal process {pick} (legal: {legal:?})"
        );

        // Context switch bookkeeping: a newly scheduled process begins a
        // quantum (its first scheduling may start mid-quantum, §3.2).
        if self.current != Some(pick) {
            self.used_in_quantum = self.spec.used_at_schedule(pick, !self.ever_scheduled[pick]);
            self.ever_scheduled[pick] = true;
            self.current = Some(pick);
        }
        self.used_in_quantum += 1;
        Ok((pick, None))
    }

    fn pending(&mut self, pid: usize, op: Op, _op_index: u64) -> bool {
        self.pending_write[pid] = matches!(op, Op::Write(_, _));
        true
    }

    fn decided(&mut self, pid: usize) {
        self.pending_write[pid] = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setup::{self, Algorithm};
    use nc_memory::Bit;
    use nc_sched::hybrid::{BenignHybrid, RandomHybrid, WritePreemptor};
    use nc_sched::stream_rng;

    /// Theorem 14's bound: quantum ≥ 8 ⇒ every process decides within 12
    /// operations.
    fn assert_theorem14(report: &RunReport, label: &str) {
        assert_eq!(report.outcome, RunOutcome::AllDecided, "{label}");
        assert!(
            report.ops.iter().all(|&o| o <= 12),
            "{label}: some process exceeded 12 ops: {:?}",
            report.ops
        );
    }

    #[test]
    fn theorem14_benign_policy() {
        for n in [1, 2, 4, 8] {
            let inputs = setup::half_and_half(n);
            let mut inst = setup::build(Algorithm::Lean, &inputs, 0);
            let spec = HybridSpec::uniform(n, 8);
            let report = drive_hybrid(
                &mut inst,
                &spec,
                &mut BenignHybrid,
                Limits::run_to_completion(),
            );
            assert_theorem14(&report, &format!("benign n={n}"));
            report.check_safety(&inputs).unwrap();
        }
    }

    #[test]
    fn theorem14_adversarial_write_preemptor() {
        for n in [2, 3, 4, 6] {
            for quantum in [8u32, 9, 12] {
                let inputs = setup::alternating(n);
                let mut inst = setup::build(Algorithm::Lean, &inputs, 0);
                let spec = HybridSpec::uniform(n, quantum);
                let report = drive_hybrid(
                    &mut inst,
                    &spec,
                    &mut WritePreemptor,
                    Limits::run_to_completion(),
                );
                assert_theorem14(&report, &format!("preemptor n={n} q={quantum}"));
                report.check_safety(&inputs).unwrap();
            }
        }
    }

    #[test]
    fn theorem14_with_burned_initial_quanta() {
        // Every process has already burned its whole first quantum on
        // other work (§3.2 allows this): the bound must still hold.
        for n in [2, 4] {
            let inputs = setup::alternating(n);
            let mut inst = setup::build(Algorithm::Lean, &inputs, 0);
            let spec = HybridSpec::uniform(n, 8).with_initial_used(vec![8; n]);
            let report = drive_hybrid(
                &mut inst,
                &spec,
                &mut WritePreemptor,
                Limits::run_to_completion(),
            );
            assert_theorem14(&report, &format!("burned n={n}"));
        }
    }

    #[test]
    fn theorem14_priority_ladder() {
        let n = 4;
        let inputs = setup::alternating(n);
        let mut inst = setup::build(Algorithm::Lean, &inputs, 0);
        let spec = HybridSpec::ladder(n, 8);
        let report = drive_hybrid(
            &mut inst,
            &spec,
            &mut WritePreemptor,
            Limits::run_to_completion(),
        );
        assert_theorem14(&report, "ladder");
        report.check_safety(&inputs).unwrap();
    }

    #[test]
    fn random_hybrid_policy_is_safe_and_decides() {
        for seed in 0..10 {
            let n = 5;
            let inputs = setup::half_and_half(n);
            let mut inst = setup::build(Algorithm::Lean, &inputs, seed);
            let spec = HybridSpec::uniform(n, 8);
            let mut policy = RandomHybrid::new(stream_rng(seed, 0, 4));
            let report = drive_hybrid(&mut inst, &spec, &mut policy, Limits::run_to_completion());
            assert_theorem14(&report, &format!("random seed={seed}"));
            report.check_safety(&inputs).unwrap();
        }
    }

    #[test]
    fn small_quantum_can_exceed_the_bound() {
        // With quantum < 8 the theorem's guarantee evaporates: the
        // adversary can preempt mid-round and stretch the race. We only
        // assert that *some* configuration exceeds 12 ops (the bound is
        // specific to quantum >= 8), not that all do.
        let mut exceeded = false;
        for quantum in 1..8u32 {
            for n in [2usize, 3, 4] {
                let inputs = setup::alternating(n);
                let mut inst = setup::build(Algorithm::Lean, &inputs, 0);
                let spec = HybridSpec::uniform(n, quantum);
                let report = drive_hybrid(
                    &mut inst,
                    &spec,
                    &mut WritePreemptor,
                    Limits::run_to_completion().with_max_ops(1_000_000),
                );
                report.check_safety(&inputs).unwrap();
                if report.ops.iter().any(|&o| o > 12) || !report.outcome.decided() {
                    exceeded = true;
                }
            }
        }
        assert!(
            exceeded,
            "small quanta never stressed the bound — adversary too weak?"
        );
    }

    #[test]
    fn solo_process_on_uniprocessor() {
        let mut inst = setup::build(Algorithm::Lean, &[Bit::One], 0);
        let spec = HybridSpec::uniform(1, 8);
        let report = drive_hybrid(
            &mut inst,
            &spec,
            &mut BenignHybrid,
            Limits::run_to_completion(),
        );
        assert_eq!(report.decisions, vec![Some(Bit::One)]);
        assert_eq!(report.ops, vec![8]);
    }
}
