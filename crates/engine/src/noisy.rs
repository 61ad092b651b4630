//! The timed, noisy-scheduling driver (§3.1, §9) — optimized engine.
//!
//! Executes protocol operations in the order given by the noisy timing
//! model: process `i`'s `j`-th operation happens at
//! `S'_ij = Δ_i0 + Σ_{k≤j} (Δ_ik + X_ik + H_ik)`, with all the `Δ`, `X`,
//! `H` drawn from an [`nc_sched::TimingModel`]. An event queue with
//! deterministic tie-breaking realises the interleaving semantics; the
//! paper's zero-probability-of-simultaneity assumption is implemented by
//! ordering equal times by insertion sequence (reachable only through
//! f64 collisions, which the dithered start times make vanishingly
//! rare).
//!
//! The driver also applies adaptive crash adversaries (§10's non-random
//! failures) after every operation, and can record the full operation
//! history for the register-semantics checker. It is crate-private:
//! [`crate::sim::Sim::timing`] runs it, and this module exports only
//! perfbench's [`NOISE_BATCH`].
//!
//! # Throughput design
//!
//! Figure 1 alone needs up to 10 000 trials per point, so this loop is
//! the workspace's hottest code. Three optimizations over the naive
//! driver (kept verbatim in [`crate::baseline`] and pinned equal by the
//! equivalence tests):
//!
//! 1. **An in-place hold on a 4-ary heap** — the common case pops one
//!    event and pushes exactly one successor for the same process (the
//!    "hold" operation). The loops run on the 4-ary tournament-select
//!    heap ([`nc_sched::EventQueue`]), whose
//!    [`replace_top`](nc_sched::EventQueue::replace_top) does the hold
//!    as one root-to-leaf walk with branchless child selection. The
//!    event order is total, so any correct queue gives the same run;
//!    no other queue measured reliably faster (`docs/engine-internals.md`,
//!    "Event queue").
//! 2. **Each per-process fact kept once** — a process's clock is the
//!    time of its queued event (the event key round-trips the `f64`
//!    exactly), the index of its next operation is one more than its
//!    operations executed, and its decision round is the protocol's
//!    [`Protocol::round`] once it has decided. Beside the queue the
//!    engine keeps only each process's noise stream, plus a failure
//!    stream when a failure model draws from it. Each event draws its
//!    noise delay `X_ij` from the process's own stream when it is
//!    scheduled, so the values consumed are exactly the naive driver's.
//!    A lean process on the fast path costs 64 bytes besides its queued
//!    event: the 32-byte noise stream and the 32-byte `LeanConsensus`.
//! 3. **Reusable `EngineScratch`** — the event queue and the RNG
//!    streams are allocated once and re-seeded across trials, so a
//!    fast-loop sweep's steady state allocates only its `RunReport`s.
//!
//! The common-case loop (`loop_fast`, taken when there is no crash
//! adversary, no history recording and no random failures) executes
//! each event through the fused [`Protocol::step_status`] — one
//! (monomorphizable) call per event instead of the naive driver's four
//! virtual dispatches — and carries no per-event `Option` checks at all.
//! Everything else runs the step loop every schedule shares
//! (`drive.rs`), with the event queue picking each step. Equal inputs
//! produce bit-identical reports on either path.

use rand::rngs::SmallRng;

use nc_core::{Protocol, Status};
use nc_memory::{Event, Op};
use nc_sched::adversary::CrashAdversary;
use nc_sched::queue::Event as QueuedEvent;
use nc_sched::rng::salts;
use nc_sched::{start_time, stream_rng, EventQueue, FailureModel, TimingModel};

use crate::drive::{self, Ending, Pick, Procs};
use crate::report::{Limits, RunOutcome, RunReport};
use crate::setup::Instance;

/// Length of the buffer perfbench's `sched.noise_ns_per_draw` fills
/// with one [`nc_sched::Noise::fill`] call. The engine itself draws one
/// delay per event.
pub const NOISE_BATCH: usize = 16;

/// Reusable engine working memory: the event queue and each process's
/// noise and failure streams. The default scratch is empty; its buffers
/// grow to the first trial's size and are reused from then on.
///
/// Constructing these per trial is pure allocator churn at sweep scale;
/// a [`crate::sim::SimRun`] keeps one `EngineScratch` (and a
/// [`crate::sim::TrialSet`] keeps one per worker span) and reuses it for
/// every trial. Reuse never leaks state between trials: every stream is
/// re-seeded from the trial's own seed, and the queue is cleared.
#[derive(Default)]
pub(crate) struct EngineScratch {
    queue: EventQueue,
    rng_noise: Vec<SmallRng>,
    /// Empty when the timing model has no failures: nothing draws
    /// from it then.
    rng_failure: Vec<SmallRng>,
}

impl EngineScratch {
    /// Re-seeds every stream for a fresh `n`-process trial. Streams are
    /// keyed by `(seed, pid, salt)` alone, so reusing the allocations is
    /// not observable.
    fn reset(&mut self, n: usize, seed: u64, timing: &TimingModel) {
        let failures = !matches!(timing.failures, FailureModel::None);
        self.queue.clear();
        self.rng_noise.clear();
        self.rng_failure.clear();
        for pid in 0..n {
            self.rng_noise
                .push(stream_rng(seed, pid as u64, salts::NOISE));
            if failures {
                self.rng_failure
                    .push(stream_rng(seed, pid as u64, salts::FAILURE));
            }
        }
    }
}

/// The time of a process's operation number `op_index` (1-based) when
/// its previous operation (or its start) happened at `clock`:
/// `clock + (Δ_ij + X_ij)`, drawing `X_ij` from the process's own noise
/// stream `rng`.
#[inline]
fn next_time(timing: &TimingModel, rng: &mut SmallRng, op_index: u64, clock: f64) -> f64 {
    let x = timing.noise.sample(rng);
    clock + (timing.delay.delta(op_index) + x)
}

/// The noisy driver beneath [`crate::sim::Sim::timing`]: runs one
/// instance under the noisy-scheduling model with scratch reuse, an
/// optional crash adversary, and optional history recording.
///
/// `seed` drives the noise, failure, and start-time streams (independent
/// of the instance's protocol-coin streams, which were fixed at build
/// time). The crash adversary, if any, is consulted after every executed
/// operation with the current [`nc_sched::adversary::ProcView`];
/// returned pids halt immediately. If `history` is `Some`, every
/// executed operation is appended as an [`Event`] (time, pid, op,
/// observed value) suitable for
/// [`nc_memory::check_register_semantics_from`]. Returns when all
/// processes have decided or halted, when the first decision happens (if
/// `limits.stop_at_first_decision`), or when the operation budget runs
/// out.
pub(crate) fn drive_noisy<P: Protocol>(
    scratch: &mut EngineScratch,
    inst: &mut Instance<P>,
    timing: &TimingModel,
    seed: u64,
    limits: Limits,
    crash: Option<&mut dyn CrashAdversary>,
    history: Option<&mut Vec<Event>>,
) -> RunReport {
    scratch.reset(inst.procs.len(), seed, timing);
    let EngineScratch {
        queue,
        rng_noise,
        rng_failure,
    } = scratch;
    let mut timed = Timed {
        queue,
        rng_noise,
        rng_failure,
        timing,
        seed,
        seq: 0,
        stepping: false,
    };
    // Dispatch: the overwhelmingly common sweep configuration — no
    // crash adversary, no history recording, no random failures — gets
    // a specialized loop with no per-event Option checks, no failure
    // draws, and no stale-event filtering (without crashes or failures,
    // a queued process can only leave the queue by deciding, so no
    // event is ever stale). Everything else takes the shared step loop.
    // Both produce bit-identical results (pinned by the equivalence
    // tests).
    let fast =
        crash.is_none() && history.is_none() && matches!(timing.failures, FailureModel::None);
    if !fast {
        return drive::run(inst, &mut timed, limits, crash, history);
    }
    for (pid, p) in inst.procs.iter().enumerate() {
        if let Status::Pending(op) = p.status() {
            timed.pending(pid, op, 1);
        }
    }
    let seq = timed.seq;
    let ending = loop_fast(rng_noise, queue, inst, timing, seq, limits);
    drive::report(inst, ending, vec![false; inst.procs.len()])
}

/// The noisy schedule: an event queue orders the steps by the times
/// the timing model draws for them.
struct Timed<'a> {
    queue: &'a mut EventQueue,
    rng_noise: &'a mut [SmallRng],
    /// Empty when the timing model never halts.
    rng_failure: &'a mut [SmallRng],
    timing: &'a TimingModel,
    /// The run seed, which keys each process's start-time stream.
    seed: u64,
    /// Last used event sequence number (the tie-breaker).
    seq: u64,
    /// The queue's first event is the process being stepped: its next
    /// event replaces it in place.
    stepping: bool,
}

impl Pick for Timed<'_> {
    fn pick(&mut self, procs: &Procs) -> Result<(usize, Option<f64>), RunOutcome> {
        loop {
            let top = *self
                .queue
                .peek()
                .expect("every live process has a queued event");
            let pid = top.pid() as usize;
            if procs.enabled[pid] {
                self.stepping = true;
                return Ok((pid, Some(top.time())));
            }
            // Stale events exist only under a crash adversary (a queued
            // process halted out from under its event); drain them.
            self.queue.pop();
        }
    }

    /// Draws `Δ_ij + X_ij + H_ij` for `pid`'s operation number
    /// `op_index` and queues it that long after the stepped event (or,
    /// before the first operation, after the start time the process's
    /// own stream draws), consuming the failure stream first and the
    /// noise stream second (matching the naive driver's stream order
    /// exactly).
    fn pending(&mut self, pid: usize, _op: Op, op_index: u64) -> bool {
        let stepping = std::mem::take(&mut self.stepping);
        let halts = self
            .rng_failure
            .get_mut(pid)
            .is_some_and(|rng| self.timing.failures.halts(rng));
        if halts {
            // H_ij = ∞: the op never occurs.
            if stepping {
                self.queue.pop();
            }
            return false;
        }
        let clock = if stepping {
            self.queue
                .peek()
                .expect("the stepped event is queued")
                .time()
        } else {
            start_time(&mut stream_rng(self.seed, pid as u64, salts::START))
        };
        let time = next_time(self.timing, &mut self.rng_noise[pid], op_index, clock);
        self.seq += 1;
        let event = QueuedEvent::new(time, self.seq, pid as u32);
        if stepping {
            self.queue.replace_top(event);
        } else {
            self.queue.push(event);
        }
        true
    }

    fn decided(&mut self, _pid: usize) {
        self.stepping = false;
        self.queue.pop();
    }
}

/// The specialized hot loop: no failures, no crash adversary, no
/// history. Each turn executes the earliest queued operation and
/// reschedules or retires its process, until the queue empties, the op
/// cap hits, or the first-decision cutoff fires.
fn loop_fast<P: Protocol>(
    rng_noise: &mut [SmallRng],
    queue: &mut EventQueue,
    inst: &mut Instance<P>,
    timing: &TimingModel,
    mut seq: u64,
    limits: Limits,
) -> Ending {
    let mut end = Ending::default();
    while let Some(&top) = queue.peek() {
        if end.total_ops >= limits.max_ops {
            end.cutoff = Some(RunOutcome::OpCapReached);
            break;
        }
        let pid = top.pid() as usize;
        let time = top.time();
        end.sim_time = time;

        // Execute exactly one operation of `pid`, fused: the protocol
        // performs its own pending operation against the memory and hands
        // back the next status in one (monomorphized) call.
        let p = &mut inst.procs[pid];
        let status = p.step_status(&mut inst.mem);
        end.total_ops += 1;

        match status {
            Status::Decided(_) => {
                queue.pop();
                if end.first_decision_round.is_none() {
                    end.first_decision_round = Some(p.round());
                    end.first_decision_time = Some(time);
                    if limits.stop_at_first_decision {
                        end.cutoff = Some(RunOutcome::FirstDecision);
                        break;
                    }
                }
            }
            Status::Pending(_) => {
                // The hold operation: reschedule the same process in place.
                let op_index = p.ops_completed() + 1;
                let next = next_time(timing, &mut rng_noise[pid], op_index, time);
                seq += 1;
                queue.replace_top(QueuedEvent::new(next, seq, pid as u32));
            }
        }
    }
    end
}

#[cfg(test)]
// These unit tests drive `drive_noisy` directly; the builder above it is
// pinned to the naive oracle by tests/soa_equivalence.rs.
mod tests {
    use super::*;
    use crate::setup::{self, Algorithm};
    use nc_memory::{check_register_semantics_from, Bit};
    use nc_sched::adversary::{CrashScript, LeaderKiller};
    use nc_sched::{DelayPolicy, FailureModel, Noise};
    use std::collections::HashMap;

    fn exp_timing() -> TimingModel {
        TimingModel::figure1(Noise::Exponential { mean: 1.0 })
    }

    /// [`drive_noisy`] with a throwaway scratch — the shape most tests
    /// here want.
    fn run_noisy<P: Protocol>(
        inst: &mut Instance<P>,
        timing: &TimingModel,
        seed: u64,
        limits: Limits,
    ) -> RunReport {
        let mut scratch = EngineScratch::default();
        drive_noisy(&mut scratch, inst, timing, seed, limits, None, None)
    }

    /// [`drive_noisy`] with a caller-held scratch, no adversary.
    fn run_noisy_scratch<P: Protocol>(
        scratch: &mut EngineScratch,
        inst: &mut Instance<P>,
        timing: &TimingModel,
        seed: u64,
        limits: Limits,
    ) -> RunReport {
        drive_noisy(scratch, inst, timing, seed, limits, None, None)
    }

    /// [`drive_noisy`] with a throwaway scratch plus adversary/history.
    fn run_noisy_with<P: Protocol>(
        inst: &mut Instance<P>,
        timing: &TimingModel,
        seed: u64,
        limits: Limits,
        crash: Option<&mut dyn CrashAdversary>,
        history: Option<&mut Vec<Event>>,
    ) -> RunReport {
        let mut scratch = EngineScratch::default();
        drive_noisy(&mut scratch, inst, timing, seed, limits, crash, history)
    }

    #[test]
    fn solo_process_decides_at_round_2() {
        let mut inst = setup::build(Algorithm::Lean, &[Bit::One], 1);
        let report = run_noisy(&mut inst, &exp_timing(), 1, Limits::run_to_completion());
        assert_eq!(report.outcome, RunOutcome::AllDecided);
        assert_eq!(report.decisions, vec![Some(Bit::One)]);
        assert_eq!(report.first_decision_round, Some(2));
        assert_eq!(report.total_ops, 8);
        assert!(report.sim_time > 0.0);
    }

    #[test]
    fn split_inputs_terminate_and_agree_across_distributions() {
        for (name, noise) in Noise::figure1_suite() {
            let timing = TimingModel::figure1(noise);
            for seed in 0..5 {
                let inputs = setup::half_and_half(8);
                let mut inst = setup::build(Algorithm::Lean, &inputs, seed);
                let report = run_noisy(&mut inst, &timing, seed, Limits::run_to_completion());
                assert_eq!(report.outcome, RunOutcome::AllDecided, "{name} seed {seed}");
                report.check_safety(&inputs).unwrap();
            }
        }
    }

    #[test]
    fn constant_noise_lockstep_hits_op_cap() {
        // Degenerate (constant) noise + the common dithered start =
        // lockstep: the run must NOT terminate (it exhausts its op
        // budget). This is the model assumption failing, as the paper
        // predicts.
        let timing = TimingModel::figure1(Noise::Constant { value: 1.0 });
        let inputs = setup::alternating(4);
        let mut inst = setup::build(Algorithm::Lean, &inputs, 3);
        let report = run_noisy(
            &mut inst,
            &timing,
            3,
            Limits::run_to_completion().with_max_ops(200_000),
        );
        assert_eq!(report.outcome, RunOutcome::OpCapReached);
        assert_eq!(report.decided_count(), 0);
    }

    #[test]
    fn first_decision_limit_stops_early() {
        let inputs = setup::half_and_half(16);
        let mut inst = setup::build(Algorithm::Lean, &inputs, 5);
        let report = run_noisy(&mut inst, &exp_timing(), 5, Limits::first_decision());
        assert_eq!(report.outcome, RunOutcome::FirstDecision);
        assert_eq!(report.decided_count(), 1);
        assert!(report.first_decision_round.is_some());
    }

    #[test]
    fn random_failures_halt_everyone_eventually() {
        // h = 0.9 per op: all 4 processes die almost immediately.
        let timing = exp_timing().with_failures(FailureModel::Random { per_op: 0.9 });
        let inputs = setup::alternating(4);
        let mut inst = setup::build(Algorithm::Lean, &inputs, 9);
        let report = run_noisy(&mut inst, &timing, 9, Limits::run_to_completion());
        // Either all died undecided, or a lucky survivor decided first.
        assert!(
            report.outcome == RunOutcome::AllHalted || report.outcome == RunOutcome::AllDecided,
            "{:?}",
            report.outcome
        );
        assert!(report.halted.iter().filter(|&&h| h).count() >= 1);
        report.check_safety(&inputs).unwrap();
    }

    #[test]
    fn mild_random_failures_still_decide() {
        let timing = exp_timing().with_failures(FailureModel::Random { per_op: 0.01 });
        for seed in 0..5 {
            let inputs = setup::half_and_half(6);
            let mut inst = setup::build(Algorithm::Lean, &inputs, seed);
            let report = run_noisy(&mut inst, &timing, seed, Limits::run_to_completion());
            report.check_safety(&inputs).unwrap();
            assert!(
                report.decided_count() > 0 || report.outcome == RunOutcome::AllHalted,
                "seed {seed}: {report}"
            );
        }
    }

    #[test]
    fn leader_killer_crashes_do_not_break_safety() {
        for seed in 0..5 {
            let inputs = setup::half_and_half(6);
            let mut inst = setup::build(Algorithm::Lean, &inputs, seed);
            let mut killer = LeaderKiller::new(3, 2);
            let report = run_noisy_with(
                &mut inst,
                &exp_timing(),
                seed,
                Limits::run_to_completion(),
                Some(&mut killer),
                None,
            );
            report.check_safety(&inputs).unwrap();
            assert!(report.decided_count() + report.halted.iter().filter(|&&h| h).count() > 0);
        }
    }

    #[test]
    fn scripted_crash_halts_the_right_process() {
        let inputs = setup::half_and_half(4);
        let mut inst = setup::build(Algorithm::Lean, &inputs, 2);
        let mut crash = CrashScript::new(vec![(0, 1)]); // kill P0 after 1 op
        let report = run_noisy_with(
            &mut inst,
            &exp_timing(),
            2,
            Limits::run_to_completion(),
            Some(&mut crash),
            None,
        );
        assert!(report.halted[0]);
        assert_eq!(report.ops[0], 1);
        report.check_safety(&inputs).unwrap();
    }

    #[test]
    fn recorded_history_satisfies_register_semantics() {
        let inputs = setup::half_and_half(6);
        let mut inst = setup::build(Algorithm::Lean, &inputs, 8);
        // Sentinels were installed before the run; seed the checker with
        // them as initial state.
        let layout = nc_memory::RaceLayout::at_base(0);
        let mut initial = HashMap::new();
        initial.insert(layout.slot(Bit::Zero, 0), 1);
        initial.insert(layout.slot(Bit::One, 0), 1);
        let mut history = Vec::new();
        let report = run_noisy_with(
            &mut inst,
            &exp_timing(),
            8,
            Limits::run_to_completion(),
            None,
            Some(&mut history),
        );
        assert_eq!(report.outcome, RunOutcome::AllDecided);
        assert_eq!(history.len(), report.total_ops as usize);
        check_register_semantics_from(&history, &initial)
            .expect("engine must implement the interleaving model");
    }

    #[test]
    fn determinism_same_seed_same_report() {
        let inputs = setup::half_and_half(10);
        let run = |seed: u64| {
            let mut inst = setup::build(Algorithm::Lean, &inputs, seed);
            let r = run_noisy(&mut inst, &exp_timing(), seed, Limits::run_to_completion());
            (r.first_decision_round, r.total_ops, r.decisions.clone())
        };
        assert_eq!(run(1234), run(1234));
        // And different seeds genuinely vary the execution.
        let a = run(1);
        let b = run(2);
        assert!(a != b, "distinct seeds produced identical runs (unlikely)");
    }

    #[test]
    fn all_algorithms_run_under_noise() {
        for alg in [
            Algorithm::Lean,
            Algorithm::Skipping,
            Algorithm::Randomized,
            Algorithm::Bounded { r_max: 10 },
            Algorithm::Backup,
        ] {
            let inputs = setup::half_and_half(4);
            let mut inst = setup::build(alg, &inputs, 77);
            let report = run_noisy(&mut inst, &exp_timing(), 77, Limits::run_to_completion());
            assert_eq!(report.outcome, RunOutcome::AllDecided, "{alg:?}");
            report.check_safety(&inputs).unwrap();
        }
    }

    #[test]
    fn scratch_reuse_is_stateless_across_trials() {
        // Interleave very different trials through one scratch and check
        // each against a fresh-scratch run. The last four share one n:
        // the failure streams come and go with the failure model, and
        // the delayed model takes the fast loop.
        let mut scratch = EngineScratch::default();
        let delayed = exp_timing().with_delay(DelayPolicy::SaveAndSpend { m: 0.5, period: 4 });
        let configs: Vec<(usize, u64, TimingModel)> = vec![
            (1, 7, exp_timing()),
            (
                32,
                1,
                TimingModel::figure1(Noise::Uniform { lo: 0.0, hi: 2.0 }),
            ),
            (
                4,
                3,
                exp_timing().with_failures(FailureModel::Random { per_op: 0.2 }),
            ),
            (16, 9, TimingModel::figure1(Noise::Geometric { p: 0.5 })),
            (2, 5, exp_timing()),
            (8, 11, exp_timing()),
            (
                8,
                12,
                exp_timing().with_failures(FailureModel::Random { per_op: 0.1 }),
            ),
            (8, 13, exp_timing()),
            (8, 14, delayed),
        ];
        for (n, seed, timing) in configs {
            let inputs = setup::half_and_half(n);
            let mut inst_a = setup::build(Algorithm::Lean, &inputs, seed);
            let mut inst_b = setup::build(Algorithm::Lean, &inputs, seed);
            let reused = run_noisy_scratch(
                &mut scratch,
                &mut inst_a,
                &timing,
                seed,
                Limits::run_to_completion(),
            );
            let fresh = run_noisy(&mut inst_b, &timing, seed, Limits::run_to_completion());
            assert_eq!(reused, fresh, "n={n} seed={seed}");
        }
    }
}
