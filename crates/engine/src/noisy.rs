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
//! history for the register-semantics checker.
//!
//! # Throughput design
//!
//! Figure 1 alone needs up to 10 000 trials per point, so this loop is
//! the workspace's hottest code. Four optimizations over the naive
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
//! 2. **Struct-of-arrays process state (`ProcSoA`)** — the per-event
//!    scalars (event-time accumulator, operation index, noise-buffer
//!    cursor, decide flag) are packed into one 32-byte `Hot` lane per
//!    process, an 8× denser stride than the old 256-byte `ProcState`;
//!    the cold state (RNG streams, the pre-drawn noise buffer) lives in
//!    separate arrays touched only on refills and failure draws.
//!    Random-order execution over `hot` touches one cache line per two
//!    processes instead of one line per process.
//! 3. **Reusable [`EngineScratch`]** — per-process state, RNG streams,
//!    the event queue, and the bookkeeping vectors are allocated once and
//!    re-seeded across trials, so a fast-loop sweep's steady state
//!    allocates only its `RunReport`s.
//! 4. **Batched noise draws** — when reads and writes share one noise
//!    distribution (every Figure 1 configuration), each process draws
//!    up to [`NOISE_BATCH`] delays per RNG-dispatch instead of one,
//!    hoisting the distribution match and parameter validation out of
//!    the per-event path. Each process owns its stream, so batching
//!    cannot change any consumed value.
//!
//! The common-case loop (`loop_fast`, taken when there is no crash
//! adversary, no history recording, no random failures, and one noise
//! distribution for reads and writes) executes each event through the
//! fused [`Protocol::step_status`] — one (monomorphizable) call per
//! event instead of the naive driver's four virtual dispatches — and
//! carries no per-event `Option` checks at all. Everything else runs
//! the step loop every schedule shares (`drive.rs`), with the event
//! queue picking each step. Equal inputs produce bit-identical reports
//! on either path.

use rand::rngs::SmallRng;

use nc_core::{Protocol, Status};
use nc_memory::{Event, Op};
use nc_sched::adversary::CrashAdversary;
use nc_sched::queue::Event as QueuedEvent;
use nc_sched::rng::salts;
use nc_sched::{stream_rng, EventQueue, FailureModel, Noise, TimingModel};

use crate::drive::{self, Pick, Procs};
use crate::report::{Limits, RunOutcome, RunReport};
use crate::setup::Instance;

/// Noise samples drawn per batched RNG refill (per process).
///
/// Figure 1's first-decision runs execute ~20-40 operations per process,
/// so 16 amortizes the dispatch well without over-drawing much for
/// processes that stop early.
pub const NOISE_BATCH: usize = 16;

/// The per-event scalars of one process, packed to 32 bytes so two
/// processes share a cache line (the old array-of-structs `ProcState`
/// strode 256 bytes per process — see the module docs).
///
/// `repr(C)` pins the layout; the const assertion below keeps the size
/// honest if fields change.
#[repr(C)]
#[derive(Clone, Copy, Debug)]
struct Hot {
    /// Time at which the previous operation completed (or the start
    /// time before the first operation) — the next-event key
    /// accumulator.
    clock: f64,
    /// 1-based index of the next operation.
    next_op: u64,
    /// Operations executed so far (reported as `RunReport::ops`).
    ops: u64,
    /// Next unconsumed index into this process's noise-buffer stripe;
    /// `buf_pos == buf_len` means empty.
    buf_pos: u8,
    /// Valid prefix length of the stripe.
    buf_len: u8,
    /// Next refill size: ramps 2 → 4 → … → [`NOISE_BATCH`], so processes
    /// that execute only a few operations (every process, in a
    /// first-decision run at large `n`) don't pay for a full batch up
    /// front.
    next_fill: u8,
    decided: bool,
}

const _: () = assert!(
    std::mem::size_of::<Hot>() == 32,
    "Hot must stay 2-per-cache-line"
);

// The u8 cursor fields cap the tunable batch size: `buf_len` holds up
// to NOISE_BATCH and the refill ramp computes `next_fill * 2` before
// clamping, so doubling the largest value must still fit in u8.
const _: () = assert!(
    NOISE_BATCH * 2 <= u8::MAX as usize,
    "NOISE_BATCH must fit the u8 cursor fields (including the 2x refill ramp)"
);

impl Hot {
    /// Fresh per-trial state with the given start time.
    #[inline]
    fn new(clock: f64) -> Self {
        Hot {
            clock,
            next_op: 1,
            ops: 0,
            buf_pos: 0,
            buf_len: 0,
            next_fill: 2,
            decided: false,
        }
    }
}

/// Struct-of-arrays process state: the [`Hot`] per-event lanes plus the
/// cold arrays (RNG streams, pre-drawn noise stripes) that only refills
/// and failure draws touch.
///
/// All arrays are indexed by pid; `noise_buf` is flattened with a
/// [`NOISE_BATCH`] stride per process.
#[derive(Default)]
struct ProcSoA {
    hot: Vec<Hot>,
    rng_noise: Vec<SmallRng>,
    rng_failure: Vec<SmallRng>,
    /// Pre-drawn noise delays; process `pid`'s stripe is
    /// `noise_buf[pid * NOISE_BATCH ..][..NOISE_BATCH]`, valid between
    /// its `buf_pos` and `buf_len` cursors.
    noise_buf: Vec<f64>,
}

impl ProcSoA {
    /// Re-seeds every array for a fresh `n`-process trial.
    ///
    /// When the arrays already hold `n` lanes they are re-seeded in
    /// place (the common sweep case), skipping reconstruction of the
    /// noise stripes; the failure stream is only re-derived when the
    /// timing model can actually consume it. Neither shortcut is
    /// observable: streams are keyed by `(seed, pid, salt)` alone, and
    /// stripe contents are dead until the cursor fields say otherwise.
    fn reset(&mut self, n: usize, seed: u64, timing: &TimingModel) {
        let need_failure_rng = !matches!(timing.failures, FailureModel::None);
        if self.hot.len() == n {
            for pid in 0..n {
                let mut rng_start = stream_rng(seed, pid as u64, salts::START);
                self.hot[pid] = Hot::new(timing.start_for(pid, &mut rng_start));
                self.rng_noise[pid] = stream_rng(seed, pid as u64, salts::NOISE);
                if need_failure_rng {
                    self.rng_failure[pid] = stream_rng(seed, pid as u64, salts::FAILURE);
                }
            }
        } else {
            self.hot.clear();
            self.rng_noise.clear();
            self.rng_failure.clear();
            self.hot.reserve(n);
            for pid in 0..n {
                let mut rng_start = stream_rng(seed, pid as u64, salts::START);
                self.hot
                    .push(Hot::new(timing.start_for(pid, &mut rng_start)));
                self.rng_noise
                    .push(stream_rng(seed, pid as u64, salts::NOISE));
                self.rng_failure
                    .push(stream_rng(seed, pid as u64, salts::FAILURE));
            }
            self.noise_buf.clear();
            self.noise_buf.resize(n * NOISE_BATCH, 0.0);
        }
    }

    /// Next batched noise delay for `pid`, refilling from the process's
    /// own stream when its stripe is spent.
    #[inline]
    fn next_noise(&mut self, pid: usize, noise: &Noise) -> f64 {
        let h = &mut self.hot[pid];
        let base = pid * NOISE_BATCH;
        if h.buf_pos == h.buf_len {
            let fill = h.next_fill as usize;
            noise.fill(
                &mut self.rng_noise[pid],
                &mut self.noise_buf[base..base + fill],
            );
            h.buf_pos = 0;
            h.buf_len = fill as u8;
            h.next_fill = (h.next_fill * 2).min(NOISE_BATCH as u8);
        }
        let x = self.noise_buf[base + h.buf_pos as usize];
        h.buf_pos += 1;
        x
    }

    /// The fast path's hold bookkeeping fused into one call: counts the
    /// executed op, consumes the next batched noise delay, advances the
    /// process clock, and returns it. One `hot[pid]` bounds check on
    /// the non-refill path (the disjoint-field borrows of the stripe
    /// and RNG arrays cost nothing) — this is the per-event state
    /// touch, so it's kept deliberately tight.
    #[inline]
    fn hold_advance(&mut self, pid: usize, timing: &TimingModel, noise: &Noise) -> f64 {
        let base = pid * NOISE_BATCH;
        let h = &mut self.hot[pid];
        h.ops += 1;
        let op_index = h.next_op;
        h.next_op += 1;
        if h.buf_pos == h.buf_len {
            let fill = h.next_fill as usize;
            noise.fill(
                &mut self.rng_noise[pid],
                &mut self.noise_buf[base..base + fill],
            );
            h.buf_pos = 0;
            h.buf_len = fill as u8;
            h.next_fill = (h.next_fill * 2).min(NOISE_BATCH as u8);
        }
        let x = self.noise_buf[base + h.buf_pos as usize];
        h.buf_pos += 1;
        h.clock += timing.delay.delta(pid, op_index) + x;
        h.clock
    }
}

/// Reusable engine working memory: the struct-of-arrays process state
/// (with its RNG streams), the event queue, and the per-run bookkeeping
/// vectors.
///
/// Constructing these per trial is pure allocator churn at sweep scale;
/// a [`crate::sim::SimRun`] keeps one `EngineScratch` (and a
/// [`crate::sim::TrialSet`] keeps one per worker span) and reuses it for
/// every trial. Reuse never leaks state between trials: every field is
/// re-seeded from the trial's own seed, and the queue is cleared.
#[derive(Default)]
pub struct EngineScratch {
    soa: ProcSoA,
    queue: EventQueue,
    decision_rounds: Vec<Option<usize>>,
}

impl std::fmt::Debug for EngineScratch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineScratch")
            .field("capacity", &self.soa.hot.capacity())
            .finish()
    }
}

impl EngineScratch {
    /// An empty scratch; buffers grow to the first trial's size and are
    /// reused from then on.
    pub fn new() -> Self {
        Self::default()
    }

    /// Re-seeds every buffer for a fresh `n`-process trial.
    fn reset(&mut self, n: usize, seed: u64, timing: &TimingModel) {
        self.soa.reset(n, seed, timing);
        self.queue.clear();
        self.decision_rounds.clear();
        self.decision_rounds.resize(n, None);
    }
}

/// The fully general single-trial driver beneath the [`crate::sim`]
/// builder API: runs one instance under the noisy-scheduling model with
/// scratch reuse, an optional crash adversary, and optional history
/// recording.
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
///
/// Prefer [`crate::sim::Sim`] — this is the internal the builder (and
/// the equivalence suites pinning it) drive; it is exported so those
/// suites can compare the two layers directly.
pub fn drive_noisy<P: Protocol>(
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
        soa,
        queue,
        decision_rounds,
    } = scratch;
    // Batched draws need one distribution for all op kinds; with
    // per-kind distributions the next draw depends on the next op's
    // kind, so fall back to per-event sampling.
    let batch: Option<Noise> = timing.noise.uniform_kind().copied();
    let mut timed = Timed {
        soa,
        queue,
        timing,
        batch: batch.as_ref(),
        seq: 0,
        stepping: false,
    };
    // Dispatch: the overwhelmingly common sweep configuration — no
    // crash adversary, no history recording, no random failures, one
    // noise distribution for both op kinds — gets a specialized loop
    // with no per-event Option checks, no failure draws, and no
    // stale-event filtering (without crashes or failures, a queued
    // process can only leave the queue by deciding, so no event is ever
    // stale). Everything else takes the shared step loop. Both produce
    // bit-identical results (pinned by the equivalence tests).
    let fast =
        crash.is_none() && history.is_none() && matches!(timing.failures, FailureModel::None);
    let Some(noise) = batch.filter(|_| fast) else {
        return drive::run(inst, &mut timed, limits, crash, history);
    };
    for (pid, p) in inst.procs.iter().enumerate() {
        if let Status::Pending(op) = p.status() {
            timed.pending(pid, op);
        }
    }
    let seq = timed.seq;
    let out = loop_fast(
        soa,
        decision_rounds,
        queue,
        inst,
        timing,
        &noise,
        seq,
        limits,
    );
    assemble_report(soa, decision_rounds, inst, out)
}

/// What [`loop_fast`] observed; [`assemble_report`] folds it into a
/// `RunReport`.
#[derive(Default)]
struct LoopOut {
    total_ops: u64,
    sim_time: f64,
    first_decision_round: Option<usize>,
    first_decision_time: Option<f64>,
    outcome: Option<RunOutcome>,
}

/// The noisy schedule: an event queue orders the steps by the times
/// the timing model draws for them.
struct Timed<'a> {
    soa: &'a mut ProcSoA,
    queue: &'a mut EventQueue,
    timing: &'a TimingModel,
    /// The one noise distribution for both op kinds, drawn in batches.
    batch: Option<&'a Noise>,
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

    /// Draws `Δ_ij + X_ij + H_ij` for the next operation of `pid` and
    /// queues it, consuming the failure stream first and the noise
    /// stream second (matching the naive driver's stream order exactly).
    fn pending(&mut self, pid: usize, op: Op) -> bool {
        let stepping = std::mem::take(&mut self.stepping);
        let soa = &mut *self.soa;
        let op_index = soa.hot[pid].next_op;
        soa.hot[pid].next_op += 1;
        if self.timing.failures.halts(&mut soa.rng_failure[pid]) {
            // H_ij = ∞: the op never occurs.
            if stepping {
                self.queue.pop();
            }
            return false;
        }
        let x = match self.batch {
            Some(noise) => soa.next_noise(pid, noise),
            None => self.timing.noise.sample(op.kind(), &mut soa.rng_noise[pid]),
        };
        let h = &mut soa.hot[pid];
        h.clock += self.timing.delay.delta(pid, op_index) + x;
        self.seq += 1;
        let event = QueuedEvent::new(h.clock, self.seq, pid as u32);
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

/// Folds a finished [`loop_fast`] run into a `RunReport`.
fn assemble_report<P: Protocol>(
    soa: &ProcSoA,
    decision_rounds: &[Option<usize>],
    inst: &Instance<P>,
    out: LoopOut,
) -> RunReport {
    // Runs that were not cut off ended because every process decided
    // (the fast loop never halts a process).
    let outcome = out.outcome.unwrap_or_else(|| {
        if soa.hot.iter().any(|h| h.decided) {
            RunOutcome::AllDecided
        } else {
            RunOutcome::AllHalted
        }
    });
    RunReport {
        n: inst.procs.len(),
        outcome,
        decisions: inst.procs.iter().map(|p| p.status().decision()).collect(),
        decision_rounds: decision_rounds.to_vec(),
        ops: soa.hot.iter().map(|h| h.ops).collect(),
        halted: vec![false; inst.procs.len()],
        first_decision_round: out.first_decision_round,
        first_decision_time: out.first_decision_time,
        total_ops: out.total_ops,
        sim_time: out.sim_time,
        max_round: inst.procs.iter().map(|p| p.round()).max().unwrap_or(0),
    }
}

/// The specialized hot loop: no failures, no crash adversary, no
/// history, batched single-distribution noise. Each turn executes the
/// earliest queued operation and reschedules or retires its process,
/// until the queue empties, the op cap hits, or the first-decision
/// cutoff fires.
#[allow(clippy::too_many_arguments)]
fn loop_fast<P: Protocol>(
    soa: &mut ProcSoA,
    decision_rounds: &mut [Option<usize>],
    queue: &mut EventQueue,
    inst: &mut Instance<P>,
    timing: &TimingModel,
    noise: &Noise,
    mut seq: u64,
    limits: Limits,
) -> LoopOut {
    let mut out = LoopOut::default();
    while let Some(&top) = queue.peek() {
        if out.total_ops >= limits.max_ops {
            out.outcome = Some(RunOutcome::OpCapReached);
            break;
        }
        let pid = top.pid() as usize;
        let time = top.time();
        out.sim_time = time;

        // Execute exactly one operation of `pid`, fused: the protocol
        // performs its own pending operation against the memory and hands
        // back the next status in one (monomorphized) call.
        let status = inst.procs[pid].step_status(&mut inst.mem);
        out.total_ops += 1;

        match status {
            Status::Decided(_) => {
                queue.pop();
                let h = &mut soa.hot[pid];
                h.ops += 1;
                h.decided = true;
                let round = inst.procs[pid].round();
                decision_rounds[pid] = Some(round);
                if out.first_decision_round.is_none() {
                    out.first_decision_round = Some(round);
                    out.first_decision_time = Some(time);
                    if limits.stop_at_first_decision {
                        out.outcome = Some(RunOutcome::FirstDecision);
                        break;
                    }
                }
            }
            Status::Pending(_) => {
                // The hold operation: reschedule the same process in place.
                // (`pending` stays stale here on purpose: the fused step
                // never reads it, and the noise is batched so the next op's
                // kind is not needed either.)
                let clock = soa.hold_advance(pid, timing, noise);
                seq += 1;
                queue.replace_top(QueuedEvent::new(clock, seq, pid as u32));
            }
        }
    }
    out
}

#[cfg(test)]
// These unit tests pin the drive_* internals directly (they stay
// bit-identical to the builder, which tests/sim_equivalence.rs checks
// from the other side).
mod tests {
    use super::*;
    use crate::setup::{self, Algorithm};
    use nc_memory::{check_register_semantics_from, Bit};
    use nc_sched::adversary::{CrashScript, LeaderKiller};
    use nc_sched::{DelayPolicy, FailureModel, Noise, StartTimes};
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
        let mut scratch = EngineScratch::new();
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
        let mut scratch = EngineScratch::new();
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
        // Degenerate (constant) noise + simultaneous starts = lockstep:
        // the run must NOT terminate (it exhausts its op budget). This is
        // the model assumption failing, as the paper predicts.
        let timing = TimingModel {
            start: StartTimes::Simultaneous { dither: 1e-9 },
            delay: DelayPolicy::None,
            noise: nc_sched::OpNoise::same(Noise::Constant { value: 1.0 }),
            failures: FailureModel::None,
        };
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
    fn staggered_starts_let_the_early_bird_win() {
        // One process starts at 0, others 1000 time units later: the
        // early process decides alone at round 2 (adaptivity: work
        // depends on contention, not n).
        let timing = exp_timing().with_start(StartTimes::Staggered {
            gap: 1000.0,
            dither: 0.0,
        });
        let inputs = vec![Bit::One, Bit::Zero, Bit::Zero];
        let mut inst = setup::build(Algorithm::Lean, &inputs, 4);
        let report = run_noisy(&mut inst, &timing, 4, Limits::run_to_completion());
        assert_eq!(report.outcome, RunOutcome::AllDecided);
        assert_eq!(report.decisions[0], Some(Bit::One));
        assert_eq!(report.decision_rounds[0], Some(2));
        assert_eq!(report.agreement_value(), Some(Bit::One));
        report.check_safety(&inputs).unwrap();
    }

    #[test]
    fn scratch_reuse_is_stateless_across_trials() {
        // Interleave very different trials through one scratch and check
        // each against a fresh-scratch run.
        let mut scratch = EngineScratch::new();
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

    /// The optimized engine must be **bit-for-bit identical** to the
    /// naive BinaryHeap baseline: same streams consumed in the same
    /// per-process order, same (unique) event order, so same reports.
    /// (The full scenario-matrix differential suite lives in
    /// `tests/soa_equivalence.rs`.)
    mod baseline_equivalence {
        use super::*;
        use crate::baseline::{run_noisy_baseline, run_noisy_with_baseline};

        fn assert_equivalent(
            alg: Algorithm,
            inputs: &[Bit],
            timing: &TimingModel,
            seed: u64,
            limits: Limits,
        ) {
            let mut inst_a = setup::build(alg, inputs, seed);
            let mut inst_b = setup::build(alg, inputs, seed);
            let optimized = run_noisy(&mut inst_a, timing, seed, limits);
            let naive = run_noisy_baseline(&mut inst_b, timing, seed, limits);
            assert_eq!(optimized, naive, "{alg:?} {timing:?} seed {seed}");
        }

        #[test]
        fn figure1_suite_all_seeds() {
            for (_, noise) in Noise::figure1_suite() {
                let timing = TimingModel::figure1(noise);
                for seed in 0..4 {
                    assert_equivalent(
                        Algorithm::Lean,
                        &setup::half_and_half(12),
                        &timing,
                        seed,
                        Limits::run_to_completion(),
                    );
                    assert_equivalent(
                        Algorithm::Lean,
                        &setup::half_and_half(40),
                        &timing,
                        seed,
                        Limits::first_decision(),
                    );
                }
            }
        }

        #[test]
        fn with_random_failures() {
            for per_op in [0.01, 0.2, 0.9] {
                let timing = exp_timing().with_failures(FailureModel::Random { per_op });
                for seed in 0..4 {
                    assert_equivalent(
                        Algorithm::Lean,
                        &setup::half_and_half(8),
                        &timing,
                        seed,
                        Limits::run_to_completion(),
                    );
                }
            }
        }

        #[test]
        fn with_per_kind_noise_and_delays() {
            // Per-kind distributions disable the batch path; adversarial
            // delays exercise DelayPolicy. Both must still match.
            let timing = TimingModel {
                start: StartTimes::dithered(),
                delay: DelayPolicy::Periodic {
                    period: 3,
                    extra: 0.5,
                },
                noise: nc_sched::OpNoise::per_kind(
                    Noise::Exponential { mean: 1.0 },
                    Noise::Uniform { lo: 0.0, hi: 2.0 },
                ),
                failures: FailureModel::None,
            };
            for seed in 0..4 {
                assert_equivalent(
                    Algorithm::Lean,
                    &setup::half_and_half(10),
                    &timing,
                    seed,
                    Limits::run_to_completion(),
                );
            }
        }

        #[test]
        fn all_algorithms() {
            for alg in [
                Algorithm::Lean,
                Algorithm::Skipping,
                Algorithm::Randomized,
                Algorithm::Bounded { r_max: 10 },
                Algorithm::Backup,
            ] {
                assert_equivalent(
                    alg,
                    &setup::half_and_half(6),
                    &exp_timing(),
                    42,
                    Limits::run_to_completion(),
                );
            }
        }

        #[test]
        fn op_cap_and_lockstep() {
            let timing = TimingModel {
                start: StartTimes::Simultaneous { dither: 1e-9 },
                delay: DelayPolicy::None,
                noise: nc_sched::OpNoise::same(Noise::Constant { value: 1.0 }),
                failures: FailureModel::None,
            };
            assert_equivalent(
                Algorithm::Lean,
                &setup::alternating(4),
                &timing,
                3,
                Limits::run_to_completion().with_max_ops(50_000),
            );
        }

        #[test]
        fn with_crash_adversary_and_history() {
            for seed in 0..4 {
                let inputs = setup::half_and_half(6);
                let mut inst_a = setup::build(Algorithm::Lean, &inputs, seed);
                let mut inst_b = setup::build(Algorithm::Lean, &inputs, seed);
                let mut killer_a = LeaderKiller::new(3, 2);
                let mut killer_b = LeaderKiller::new(3, 2);
                let mut hist_a = Vec::new();
                let mut hist_b = Vec::new();
                let optimized = run_noisy_with(
                    &mut inst_a,
                    &exp_timing(),
                    seed,
                    Limits::run_to_completion(),
                    Some(&mut killer_a),
                    Some(&mut hist_a),
                );
                let naive = run_noisy_with_baseline(
                    &mut inst_b,
                    &exp_timing(),
                    seed,
                    Limits::run_to_completion(),
                    Some(&mut killer_b),
                    Some(&mut hist_b),
                );
                assert_eq!(optimized, naive, "seed {seed}");
                assert_eq!(hist_a, hist_b, "histories diverged at seed {seed}");
            }
        }

        #[test]
        fn staggered_and_explicit_starts() {
            let staggered = exp_timing().with_start(StartTimes::Staggered {
                gap: 100.0,
                dither: 0.5,
            });
            let explicit = exp_timing().with_start(StartTimes::Explicit(vec![3.0, 0.0, 7.0]));
            for seed in 0..3 {
                assert_equivalent(
                    Algorithm::Lean,
                    &setup::half_and_half(5),
                    &staggered,
                    seed,
                    Limits::run_to_completion(),
                );
                assert_equivalent(
                    Algorithm::Lean,
                    &setup::alternating(3),
                    &explicit,
                    seed,
                    Limits::run_to_completion(),
                );
            }
        }
    }
}
