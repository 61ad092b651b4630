//! The one step loop under every schedule.
//!
//! The paper's three scheduling models differ only in which process
//! takes the next step: the noisy timing model (§3.1), the unrestricted
//! adversary the safety lemmas assume (§5), and the quantum + priority
//! uniprocessor of Theorem 14 (§3.2, §7). [`run`] owns everything after
//! that choice — executing the operation, recording history, advancing
//! the protocol, counting, deciding, both cutoffs and adaptive crashes —
//! and asks a [`Pick`] for the choice itself. [`report`] builds the
//! `RunReport` for it and for the noisy model's `loop_fast`, taking what
//! the protocols already hold from them.

use nc_core::{Protocol, Status};
use nc_memory::{Bit, Event, Op, Pid};
use nc_sched::adversary::{CrashAdversary, ProcView};

use crate::report::{Limits, RunOutcome, RunReport};
use crate::setup::Instance;

/// The per-process state schedules and crash adversaries see, kept
/// current by [`run`] after every step.
pub(crate) struct Procs {
    /// Neither decided nor halted.
    pub(crate) enabled: Vec<bool>,
    /// Current protocol round.
    pub(crate) rounds: Vec<usize>,
    /// Operations executed.
    pub(crate) steps: Vec<u64>,
    /// The operation each enabled process executes next.
    pending: Vec<Op>,
    halted: Vec<bool>,
}

impl Procs {
    /// The view adversaries pick from.
    pub(crate) fn view(&self) -> ProcView<'_> {
        ProcView {
            enabled: &self.enabled,
            round: &self.rounds,
            steps: &self.steps,
        }
    }

    fn halt(&mut self, pid: usize) {
        self.enabled[pid] = false;
        self.halted[pid] = true;
    }
}

/// Chooses which process steps next — the one thing the schedules do
/// differently.
pub(crate) trait Pick {
    /// The next process to step and, under the noisy model, the time of
    /// its step; or the outcome that ends the run. Only enabled
    /// processes may be picked.
    fn pick(&mut self, procs: &Procs) -> Result<(usize, Option<f64>), RunOutcome>;

    /// `pid` now has `op` pending, its operation number `op_index`
    /// (1-based): at the start of the run, and after each of its steps
    /// that did not decide. Returning `false` halts the process (the
    /// noisy model's `H = ∞`).
    fn pending(&mut self, pid: usize, op: Op, op_index: u64) -> bool {
        let _ = (pid, op, op_index);
        true
    }

    /// `pid` just decided.
    fn decided(&mut self, pid: usize) {
        let _ = pid;
    }
}

/// Runs `inst` until every process has decided or halted, a cutoff in
/// `limits` fires, or `schedule` ends the run, stepping whichever
/// process `schedule` picks. `crash`, if any, is consulted after every
/// step while a process is enabled; `history`, if any, receives every
/// executed operation (at time 0 under untimed schedules).
pub(crate) fn run<P: Protocol>(
    inst: &mut Instance<P>,
    schedule: &mut dyn Pick,
    limits: Limits,
    mut crash: Option<&mut dyn CrashAdversary>,
    mut history: Option<&mut Vec<Event>>,
) -> RunReport {
    let n = inst.procs.len();
    let mut procs = Procs {
        enabled: vec![true; n],
        rounds: inst.procs.iter().map(|p| p.round()).collect(),
        steps: vec![0; n],
        pending: Vec::with_capacity(n),
        halted: vec![false; n],
    };
    for (pid, p) in inst.procs.iter().enumerate() {
        let Status::Pending(op) = p.status() else {
            unreachable!("processes start undecided")
        };
        procs.pending.push(op);
        if !schedule.pending(pid, op, 1) {
            procs.halt(pid);
        }
    }
    // Processes that are neither decided nor halted (a counter, not a
    // per-step scan: the scan would make the loop O(n) per step).
    let mut live = procs.enabled.iter().filter(|&&e| e).count();
    let mut end = Ending::default();

    end.cutoff = loop {
        if live == 0 {
            break None;
        }
        if end.total_ops >= limits.max_ops {
            break Some(RunOutcome::OpCapReached);
        }
        let (pid, time) = match schedule.pick(&procs) {
            Ok(next) => next,
            Err(outcome) => break Some(outcome),
        };
        if let Some(time) = time {
            end.sim_time = time;
        }

        // Execute exactly one operation of `pid`.
        let op = procs.pending[pid];
        let observed = inst.mem.exec(op);
        if let Some(h) = history.as_deref_mut() {
            h.push(Event {
                time: time.unwrap_or(0.0),
                pid: Pid::new(pid as u32),
                op,
                observed,
            });
        }
        let status = inst.procs[pid].advance_status(observed);
        end.total_ops += 1;
        procs.steps[pid] += 1;
        procs.rounds[pid] = inst.procs[pid].round();

        match status {
            Status::Decided(_) => {
                schedule.decided(pid);
                procs.enabled[pid] = false;
                live -= 1;
                if end.first_decision_round.is_none() {
                    end.first_decision_round = Some(procs.rounds[pid]);
                    end.first_decision_time = time;
                    if limits.stop_at_first_decision {
                        break Some(RunOutcome::FirstDecision);
                    }
                }
            }
            Status::Pending(next) => {
                procs.pending[pid] = next;
                if !schedule.pending(pid, next, procs.steps[pid] + 1) {
                    procs.halt(pid);
                    live -= 1;
                }
            }
        }

        // Adaptive crashes, after every step that leaves a process enabled.
        if let Some(crash) = crash.as_deref_mut().filter(|_| live > 0) {
            for victim in crash.crash_now(procs.view()) {
                if procs.enabled.get(victim) == Some(&true) {
                    procs.halt(victim);
                    live -= 1;
                }
            }
        }
    };
    report(inst, end, procs.halted)
}

/// How a run ended, as the step loop that ran it saw it; [`report`]
/// adds what the protocols hold.
#[derive(Default)]
pub(crate) struct Ending {
    /// The outcome of a cutoff, or of a schedule that ended the run;
    /// `None` when every process decided or halted.
    pub(crate) cutoff: Option<RunOutcome>,
    pub(crate) total_ops: u64,
    pub(crate) sim_time: f64,
    pub(crate) first_decision_round: Option<usize>,
    pub(crate) first_decision_time: Option<f64>,
}

/// The report of a run that ended as `end` says, with the per-process
/// `halted` flags. Decisions, decision rounds, operation counts and
/// rounds come from the protocols: a process's round stops changing
/// once it decides, so it is still its decision round.
pub(crate) fn report<P: Protocol>(inst: &Instance<P>, end: Ending, halted: Vec<bool>) -> RunReport {
    let decisions: Vec<Option<Bit>> = inst.procs.iter().map(|p| p.status().decision()).collect();
    let outcome = match end.cutoff {
        Some(cutoff) => cutoff,
        None if decisions.iter().any(Option::is_some) => RunOutcome::AllDecided,
        None => RunOutcome::AllHalted,
    };
    RunReport {
        n: inst.procs.len(),
        outcome,
        decision_rounds: inst
            .procs
            .iter()
            .zip(&decisions)
            .map(|(p, d)| d.map(|_| p.round()))
            .collect(),
        decisions,
        ops: inst.procs.iter().map(|p| p.ops_completed()).collect(),
        halted,
        first_decision_round: end.first_decision_round,
        first_decision_time: end.first_decision_time,
        total_ops: end.total_ops,
        sim_time: end.sim_time,
        max_round: inst.procs.iter().map(|p| p.round()).max().unwrap_or(0),
    }
}
