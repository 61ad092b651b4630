//! The one step loop under every schedule.
//!
//! The paper's three scheduling models differ only in which process
//! takes the next step: the noisy timing model (§3.1), the unrestricted
//! adversary the safety lemmas assume (§5), and the quantum + priority
//! uniprocessor of Theorem 14 (§3.2, §7). [`run`] owns everything after
//! that choice — executing the operation, recording history, advancing
//! the protocol, counting, deciding, both cutoffs, adaptive crashes and
//! the report — and asks a [`Pick`] for the choice itself.

use nc_core::{Protocol, Status};
use nc_memory::{Event, Op, Pid};
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

    /// `pid` now has `op` pending: at the start of the run, and after
    /// each of its steps that did not decide. Returning `false` halts
    /// the process (the noisy model's `H = ∞`).
    fn pending(&mut self, pid: usize, op: Op) -> bool {
        let _ = (pid, op);
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
        if !schedule.pending(pid, op) {
            procs.halt(pid);
        }
    }
    // Processes that are neither decided nor halted (a counter, not a
    // per-step scan: the scan would make the loop O(n) per step).
    let mut live = procs.enabled.iter().filter(|&&e| e).count();
    let mut decision_rounds: Vec<Option<usize>> = vec![None; n];
    let (mut total_ops, mut sim_time) = (0u64, 0.0);
    let (mut first_decision_round, mut first_decision_time) = (None, None);

    let outcome = loop {
        if live == 0 {
            break if decision_rounds.iter().any(Option::is_some) {
                RunOutcome::AllDecided
            } else {
                RunOutcome::AllHalted
            };
        }
        if total_ops >= limits.max_ops {
            break RunOutcome::OpCapReached;
        }
        let (pid, time) = match schedule.pick(&procs) {
            Ok(next) => next,
            Err(outcome) => break outcome,
        };
        if let Some(time) = time {
            sim_time = time;
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
        total_ops += 1;
        procs.steps[pid] += 1;
        procs.rounds[pid] = inst.procs[pid].round();

        match status {
            Status::Decided(_) => {
                schedule.decided(pid);
                procs.enabled[pid] = false;
                live -= 1;
                let round = procs.rounds[pid];
                decision_rounds[pid] = Some(round);
                if first_decision_round.is_none() {
                    first_decision_round = Some(round);
                    first_decision_time = time;
                    if limits.stop_at_first_decision {
                        break RunOutcome::FirstDecision;
                    }
                }
            }
            Status::Pending(next) => {
                procs.pending[pid] = next;
                if !schedule.pending(pid, next) {
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

    RunReport {
        n,
        outcome,
        decisions: inst.procs.iter().map(|p| p.status().decision()).collect(),
        decision_rounds,
        ops: procs.steps,
        halted: procs.halted,
        first_decision_round,
        first_decision_time,
        total_ops,
        sim_time,
        max_round: procs.rounds.iter().copied().max().unwrap_or(0),
    }
}
