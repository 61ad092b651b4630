//! The original (naive) noisy-scheduling driver, kept as the benchmark
//! baseline for the optimized [`crate::noisy`] engine.
//!
//! This is the straightforward implementation: a
//! `std::collections::BinaryHeap` event queue paying a full pop + push
//! per event, per-trial construction of every `ProcState` and RNG
//! stream, and one `Noise::sample` dispatch per event. The equivalence
//! suites pin the optimized engine to it bit-for-bit, and `nc-bench`'s
//! `bench_engine` gates the engine's speedup against it.
//!
//! Keep this file boring. Its value is being obviously correct and
//! obviously naive.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use rand::rngs::SmallRng;

use nc_core::{Protocol as _, Status};
use nc_memory::Event;
use nc_sched::adversary::{CrashAdversary, ProcView};
use nc_sched::rng::salts;
use nc_sched::{start_time, stream_rng, TimingModel};

use crate::report::{Limits, RunOutcome, RunReport};
use crate::setup::Instance;

/// An operation scheduled to occur at a simulated time, ordered for a
/// min-heap on `(time, seq)`.
#[derive(Debug)]
struct Scheduled {
    time: f64,
    seq: u64,
    pid: usize,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Scheduled {}

impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest first.
        other
            .time
            .total_cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

struct ProcState {
    rng_noise: SmallRng,
    rng_failure: SmallRng,
    clock: f64,
    next_op: u64,
    halted: bool,
    decided: bool,
}

/// [`run_noisy_with_baseline`] without a crash adversary or history.
pub fn run_noisy_baseline(
    inst: &mut Instance,
    timing: &TimingModel,
    seed: u64,
    limits: Limits,
) -> RunReport {
    run_noisy_with_baseline(inst, timing, seed, limits, None, None)
}

/// The noisy schedule of [`crate::sim::Sim::timing`], naive edition:
/// identical observable behavior, including the crash adversary's
/// hook and the recorded history, from an unoptimized implementation.
pub fn run_noisy_with_baseline(
    inst: &mut Instance,
    timing: &TimingModel,
    seed: u64,
    limits: Limits,
    mut crash: Option<&mut dyn CrashAdversary>,
    mut history: Option<&mut Vec<Event>>,
) -> RunReport {
    let n = inst.procs.len();
    let mut queue: BinaryHeap<Scheduled> = BinaryHeap::with_capacity(n);
    let mut seq = 0u64;
    let mut states: Vec<ProcState> = (0..n)
        .map(|pid| {
            let mut rng_start = stream_rng(seed, pid as u64, salts::START);
            ProcState {
                rng_noise: stream_rng(seed, pid as u64, salts::NOISE),
                rng_failure: stream_rng(seed, pid as u64, salts::FAILURE),
                clock: start_time(&mut rng_start),
                next_op: 1,
                halted: false,
                decided: false,
            }
        })
        .collect();

    // Prime the queue with each process's first operation.
    for pid in 0..n {
        schedule_next(pid, &mut states, &mut queue, inst, timing, &mut seq);
    }

    let mut total_ops = 0u64;
    let mut sim_time = 0.0f64;
    let mut decision_rounds: Vec<Option<usize>> = vec![None; n];
    let mut op_counts: Vec<u64> = vec![0; n];
    let mut first_decision_round: Option<usize> = None;
    let mut first_decision_time: Option<f64> = None;
    let mut outcome: Option<RunOutcome> = None;
    let mut live_undecided = states.iter().filter(|s| !s.halted).count();

    'main: while let Some(ev) = queue.pop() {
        let pid = ev.pid;
        if states[pid].halted || states[pid].decided {
            continue;
        }
        if total_ops >= limits.max_ops {
            outcome = Some(RunOutcome::OpCapReached);
            break;
        }
        sim_time = ev.time;

        // Execute exactly one operation of `pid`.
        let Status::Pending(op) = inst.procs[pid].status() else {
            // Defensive: decided processes are filtered above.
            continue;
        };
        let observed = inst.mem.exec(op);
        if let Some(h) = history.as_deref_mut() {
            h.push(Event {
                time: ev.time,
                pid: nc_memory::Pid::new(pid as u32),
                op,
                observed,
            });
        }
        inst.procs[pid].advance(observed);
        total_ops += 1;
        op_counts[pid] += 1;

        // Decision?
        if let Status::Decided(_) = inst.procs[pid].status() {
            states[pid].decided = true;
            live_undecided -= 1;
            let round = inst.procs[pid].round();
            decision_rounds[pid] = Some(round);
            if first_decision_round.is_none() {
                first_decision_round = Some(round);
                first_decision_time = Some(ev.time);
                if limits.stop_at_first_decision {
                    outcome = Some(RunOutcome::FirstDecision);
                    break 'main;
                }
            }
        } else {
            schedule_next(pid, &mut states, &mut queue, inst, timing, &mut seq);
            if states[pid].halted {
                live_undecided -= 1; // halted by H_ij while scheduling
            }
        }

        // Adaptive crashes.
        if let Some(crash) = crash.as_deref_mut() {
            live_undecided -= apply_crashes(crash, inst, &mut states, &op_counts);
        }

        if live_undecided == 0 {
            break;
        }
    }

    let outcome = outcome.unwrap_or_else(|| {
        if states.iter().any(|s| s.decided) {
            RunOutcome::AllDecided
        } else {
            RunOutcome::AllHalted
        }
    });

    RunReport {
        n,
        outcome,
        decisions: inst.procs.iter().map(|p| p.status().decision()).collect(),
        decision_rounds,
        ops: op_counts,
        halted: states.iter().map(|s| s.halted).collect(),
        first_decision_round,
        first_decision_time,
        total_ops,
        sim_time,
        max_round: inst.procs.iter().map(|p| p.round()).max().unwrap_or(0),
    }
}

fn schedule_next(
    pid: usize,
    states: &mut [ProcState],
    queue: &mut BinaryHeap<Scheduled>,
    inst: &Instance,
    timing: &TimingModel,
    seq: &mut u64,
) {
    let Status::Pending(_) = inst.procs[pid].status() else {
        return;
    };
    let state = &mut states[pid];
    let op_index = state.next_op;
    state.next_op += 1;
    let increment = {
        // Split borrows: the two RNG streams are distinct fields.
        let ProcState {
            rng_noise,
            rng_failure,
            ..
        } = &mut *state;
        timing.op_increment(op_index, rng_noise, rng_failure)
    };
    match increment {
        None => {
            state.halted = true; // H_ij = ∞: the op never occurs
        }
        Some(inc) => {
            state.clock += inc;
            *seq += 1;
            queue.push(Scheduled {
                time: state.clock,
                seq: *seq,
                pid,
            });
        }
    }
}

/// Applies adaptive crashes; returns how many live undecided processes
/// were halted.
fn apply_crashes(
    crash: &mut dyn CrashAdversary,
    inst: &Instance,
    states: &mut [ProcState],
    op_counts: &[u64],
) -> usize {
    let enabled: Vec<bool> = states.iter().map(|s| !s.halted && !s.decided).collect();
    if !enabled.iter().any(|&e| e) {
        return 0;
    }
    let rounds: Vec<usize> = inst.procs.iter().map(|p| p.round()).collect();
    let victims = crash.crash_now(ProcView {
        enabled: &enabled,
        round: &rounds,
        steps: op_counts,
    });
    let mut newly_halted = 0;
    for v in victims {
        if v < states.len() && !states[v].halted && !states[v].decided {
            states[v].halted = true;
            newly_halted += 1;
        }
    }
    newly_halted
}
