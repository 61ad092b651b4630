//! The lean-consensus algorithm (§4 of the paper), operation-exact.
//!
//! > "Note that in each round the process carries out exactly four
//! > operations in the same sequence: two reads, a write, and another
//! > read."
//!
//! The operation order matters: the paper explicitly warns that
//! "optimizing" away apparently superfluous operations (the write when
//! `a_p[r]` is already set, the final read when it is deducible) helps
//! slow processes and hurts fast ones, *slowing* termination. This module
//! implements the unoptimized algorithm; [`crate::skipping`] implements
//! the warned-against variant for the ablation experiment.
//!
//! Internally the state machine is a packed, table-driven `LeanHot`:
//! the four-operation round is encoded as two four-entry offset tables
//! (address = `base + 2·round + bias[phase] + pref_weight[phase]·pref`)
//! and a branchless phase/preference/round update, so the per-operation
//! step compiles to straight-line arithmetic with no `Option` plumbing
//! and no unpredictable phase match.

use std::fmt;

use nc_memory::{Addr, Bit, Op, RaceLayout, SimMemory, Word};

use crate::protocol::{Protocol, Status};

/// Phase indices for [`LeanHot`]: where a process is inside its
/// four-operation round.
const PH_READ_A0: u8 = 0;
const PH_READ_A1: u8 = 1;
const PH_WRITE: u8 = 2;
const PH_READ_PREV_RIVAL: u8 = 3;
const PH_DONE: u8 = 4;

/// Address offset of each phase's operation relative to `2·round`, as
/// `ADDR_BIAS[phase] + ADDR_PREF[phase] · pref`:
///
/// | phase | operation          | offset            |
/// |-------|--------------------|-------------------|
/// | 0     | read `a0[r]`       | `0`               |
/// | 1     | read `a1[r]`       | `1`               |
/// | 2     | write `a_p[r]`     | `p`               |
/// | 3     | read `a_{1-p}[r-1]`| `-2 + (1 - p)`    |
const ADDR_BIAS: [i64; 4] = [0, 1, 0, -1];
const ADDR_PREF: [i64; 4] = [0, 0, 1, -1];

/// The round's phase cycle `0 → 1 → 2 → 3 → 0` (decision diverts to
/// [`PH_DONE`] instead of wrapping).
const NEXT_PHASE: [u8; 4] = [PH_READ_A1, PH_WRITE, PH_READ_PREV_RIVAL, PH_READ_A0];

/// Packed hot-path state of one lean-consensus process: the entire
/// per-operation step as table lookups and conditional moves.
///
/// This is the representation [`LeanConsensus`] runs on; the race
/// plane's base comes from the instance's [`RaceLayout`]. Invariants the
/// packed form maintains: `phase ≤ 4`, `pref ∈ {0, 1}`, `round ≥ 1`,
/// and the address of every pending operation is `≥ base` (the phase-3
/// read of round `r` targets `2(r-1) + (1-p) ≥ 0`).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct LeanHot {
    /// Shared-memory operations completed so far.
    ops: u64,
    /// Current round `r ≥ 1`.
    round: u64,
    /// `PH_*` phase index; `4` means decided.
    phase: u8,
    /// Value observed in `a0[r]` by phase 0, consulted by phase 1.
    a0_set: u8,
    /// Current preference bit as `0`/`1`.
    pref: u8,
}

impl LeanHot {
    /// Fresh state at round 1 for a process with the given input.
    fn fresh(input: Bit) -> Self {
        LeanHot {
            ops: 0,
            round: 1,
            phase: PH_READ_A0,
            a0_set: 0,
            pref: input.index() as u8,
        }
    }

    /// The pending operation as `(word offset, is_write)` in the race
    /// plane `layout` places.
    ///
    /// Writes always store `1` ([`Bit::One`] as a word) — the protocol
    /// never writes anything else. Must not be called on a decided
    /// process.
    #[inline(always)]
    fn op_addr(&self, layout: RaceLayout) -> (usize, bool) {
        let p = self.phase as usize;
        debug_assert!(p < PH_DONE as usize, "op_addr on a decided process");
        let base = layout.slot(Bit::Zero, 0).offset() as i64;
        let off = 2 * self.round as i64 + ADDR_BIAS[p] + ADDR_PREF[p] * i64::from(self.pref);
        ((base + off) as usize, self.phase == PH_WRITE)
    }

    /// Consumes the result of the pending operation (`0` for the write)
    /// and advances one phase. Returns `true` exactly when this step
    /// decided; the decision value is [`Self::preference`].
    ///
    /// Branchless by construction: every update is a table lookup or a
    /// conditional move keyed on the phase index, so the engine's hot
    /// loop carries no unpredictable phase branch.
    #[inline(always)]
    fn advance(&mut self, read_value: Word) -> bool {
        debug_assert!(self.phase < PH_DONE, "advance called on a decided process");
        let p = self.phase;
        let set = (read_value != 0) as u8;
        self.ops += 1;
        // Phase 0 latches a0[r]; phase 1 compares a1[r] against it and
        // applies §4 step 1: if exactly one of a_b[r] is set, prefer b
        // (which equals a1's value precisely when the two differ).
        self.a0_set = if p == PH_READ_A0 { set } else { self.a0_set };
        let repref = (p == PH_READ_A1) & (self.a0_set != set);
        self.pref = if repref { set } else { self.pref };
        // Phase 3 (§4 step 3): rival frontier at r-1 empty → decide;
        // otherwise enter round r+1.
        let final_read = p == PH_READ_PREV_RIVAL;
        let decided = final_read & (set == 0);
        self.round += u64::from(final_read & (set != 0));
        self.phase = if decided {
            PH_DONE
        } else {
            NEXT_PHASE[p as usize]
        };
        decided
    }

    /// Whether this process has decided.
    #[inline(always)]
    fn is_decided(&self) -> bool {
        self.phase == PH_DONE
    }

    /// Current round (the decision round once decided).
    #[inline(always)]
    fn round(&self) -> usize {
        self.round as usize
    }

    /// Current preference (the decision value once decided).
    #[inline(always)]
    fn preference(&self) -> Bit {
        Bit::from_word(Word::from(self.pref))
    }

    /// Shared-memory operations completed so far.
    #[inline(always)]
    fn ops_completed(&self) -> u64 {
        self.ops
    }
}

/// One process's lean-consensus state machine.
///
/// Create one instance per process with that process's input bit; all
/// instances of the same execution must share one [`RaceLayout`] (and the
/// sentinels `a0[0] = a1[0] = 1` must be installed in the memory before
/// any step runs — see [`RaceLayout::install_sentinels`]).
///
/// # Example
///
/// ```
/// use nc_core::{step, LeanConsensus, Protocol};
/// use nc_memory::{Bit, RaceLayout, SimMemory};
///
/// let mut mem = SimMemory::new();
/// let layout = RaceLayout::at_base(0);
/// layout.install_sentinels(&mut mem);
///
/// // A solo process decides after 8 operations (Lemma 3).
/// let mut p = LeanConsensus::new(layout, Bit::One);
/// let mut decided = None;
/// while decided.is_none() {
///     decided = step(&mut p, &mut mem);
/// }
/// assert_eq!(decided, Some(Bit::One));
/// assert_eq!(p.ops_completed(), 8);
/// ```
#[derive(Clone, Debug)]
pub struct LeanConsensus {
    layout: RaceLayout,
    hot: LeanHot,
}

impl LeanConsensus {
    /// Creates the state machine for a process with the given input,
    /// starting at round 1.
    pub fn new(layout: RaceLayout, input: Bit) -> Self {
        LeanConsensus {
            layout,
            hot: LeanHot::fresh(input),
        }
    }

    /// The frontier bit `b` whose read of `a_b[r]` is the pending
    /// operation; `None` when the write or the final read is pending, or
    /// once decided. The variants hook their one changed rule here.
    pub(crate) fn pending_frontier(&self) -> Option<Bit> {
        match self.hot.phase {
            PH_READ_A0 => Some(Bit::Zero),
            PH_READ_A1 => Some(Bit::One),
            _ => None,
        }
    }

    /// Replaces the preference; the pending write and final read follow
    /// it. Only sound where Lemmas 2–4 allow the change (the local-coin
    /// variant's doubly-set frontier).
    pub(crate) fn set_preference(&mut self, b: Bit) {
        self.hot.pref = b.index() as u8;
    }
}

impl Protocol for LeanConsensus {
    fn status(&self) -> Status {
        if self.hot.is_decided() {
            return Status::Decided(self.hot.preference());
        }
        let (offset, is_write) = self.hot.op_addr(self.layout);
        let addr = Addr::new(offset);
        Status::Pending(if is_write {
            Op::Write(addr, Bit::One.word())
        } else {
            Op::Read(addr)
        })
    }

    fn advance(&mut self, read_value: Option<Word>) {
        let v = match self.hot.phase {
            PH_READ_A0 => read_value.expect("pending read of a0[r] requires a value"),
            PH_READ_A1 => read_value.expect("pending read of a1[r] requires a value"),
            PH_WRITE => {
                assert!(
                    read_value.is_none(),
                    "pending write must not receive a read value"
                );
                0
            }
            PH_READ_PREV_RIVAL => {
                read_value.expect("pending read of a_(1-p)[r-1] requires a value")
            }
            _ => panic!("advance called on a decided process"),
        };
        self.hot.advance(v);
    }

    fn round(&self) -> usize {
        self.hot.round()
    }

    fn preference(&self) -> Bit {
        self.hot.preference()
    }

    fn ops_completed(&self) -> u64 {
        self.hot.ops_completed()
    }

    /// The fused fast path: decode the pending operation from the packed
    /// tables, perform it directly against the word store, and advance in
    /// one branchless step — instead of the `status()` → `exec` →
    /// `advance` → `status()` round-trip (three phase matches and an
    /// `Op` encode/decode). Bit-identical behavior by construction: the
    /// packed step performs exactly the operation `status()` surfaces
    /// and produces exactly the state `advance` would (pinned by the
    /// protocol tests and the engine's baseline-equivalence suite).
    fn step_status(&mut self, mem: &mut SimMemory) -> Status {
        if self.hot.is_decided() {
            return Status::Decided(self.hot.preference());
        }
        let (offset, is_write) = self.hot.op_addr(self.layout);
        let addr = Addr::new(offset);
        let v = if is_write {
            mem.write(addr, Bit::One.word());
            0
        } else {
            mem.read(addr)
        };
        if self.hot.advance(v) {
            Status::Decided(self.hot.preference())
        } else {
            self.status()
        }
    }
}

impl fmt::Display for LeanConsensus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "lean(pref={}, round={}, {})",
            self.preference(),
            self.round(),
            self.status()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{run_random_interleave, run_round_robin, step};

    fn setup(inputs: &[Bit]) -> (SimMemory, RaceLayout, Vec<LeanConsensus>) {
        let mut mem = SimMemory::new();
        let layout = RaceLayout::at_base(0);
        layout.install_sentinels(&mut mem);
        let procs = inputs
            .iter()
            .map(|&b| LeanConsensus::new(layout, b))
            .collect();
        (mem, layout, procs)
    }

    #[test]
    fn round_is_two_reads_one_write_one_read() {
        let (mut mem, _, mut procs) = setup(&[Bit::Zero]);
        let p = &mut procs[0];
        let writes: Vec<bool> = (0..4)
            .map(|_| {
                let Status::Pending(op) = p.status() else {
                    panic!("decided too early")
                };
                step(p, &mut mem);
                matches!(op, Op::Write(..))
            })
            .collect();
        // Read, read, write, read.
        assert_eq!(writes, [false, false, true, false]);
    }

    #[test]
    fn solo_process_decides_own_input_in_8_ops() {
        for input in Bit::BOTH {
            let (mut mem, _, mut procs) = setup(&[input]);
            let p = &mut procs[0];
            let mut decision = None;
            for _ in 0..8 {
                assert_eq!(decision, None);
                step(p, &mut mem);
                decision = p.status().decision();
            }
            assert_eq!(decision, Some(input));
            assert_eq!(p.ops_completed(), 8);
            assert_eq!(p.round(), 2);
        }
    }

    #[test]
    fn lemma3_same_inputs_decide_in_8_ops_each() {
        // Lemma 3: if every process starts with b, every process decides b
        // after executing 8 operations — under any schedule; round-robin
        // here, more schedules in the property tests.
        for input in Bit::BOTH {
            let (mut mem, _, mut procs) = setup(&[input; 5]);
            let decisions = run_round_robin(&mut procs, &mut mem, 1_000).unwrap();
            for (p, d) in procs.iter().zip(decisions) {
                assert_eq!(d, input);
                assert_eq!(p.ops_completed(), 8, "validity cost must be exactly 8 ops");
            }
        }
    }

    #[test]
    fn lockstep_split_inputs_never_terminate() {
        // Perfect round-robin keeps the teams tied by symmetry forever —
        // the exact behaviour FLP guarantees an adversary can force, and
        // the reason termination needs the noisy environment.
        let (mut mem, _, mut procs) = setup(&[Bit::Zero, Bit::One, Bit::One, Bit::Zero]);
        assert_eq!(run_round_robin(&mut procs, &mut mem, 100_000), None);
    }

    #[test]
    fn random_interleaving_mixed_inputs_agree() {
        for seed in 0..10 {
            let (mut mem, _, mut procs) = setup(&[Bit::Zero, Bit::One, Bit::One, Bit::Zero]);
            let decisions = run_random_interleave(&mut procs, &mut mem, seed, 2_000_000).unwrap();
            let first = decisions[0];
            assert!(decisions.iter().all(|&d| d == first), "agreement violated");
        }
    }

    #[test]
    fn decision_rounds_differ_by_at_most_one() {
        // Lemma 4(b): all processes decide within one round of each other.
        for seed in 0..10 {
            let (mut mem, _, mut procs) =
                setup(&[Bit::Zero, Bit::One, Bit::Zero, Bit::One, Bit::One]);
            run_random_interleave(&mut procs, &mut mem, seed, 2_000_000).unwrap();
            let rounds: Vec<usize> = procs.iter().map(|p| p.round()).collect();
            let lo = *rounds.iter().min().unwrap();
            let hi = *rounds.iter().max().unwrap();
            assert!(hi - lo <= 1, "decision rounds spread {lo}..{hi}");
        }
    }

    #[test]
    fn sentinel_read_keeps_round_1_undecided() {
        // The final read of round 1 hits the sentinel a_{1-p}[0] = 1, so
        // no process can decide in round 1.
        let (mut mem, _, mut procs) = setup(&[Bit::One]);
        let p = &mut procs[0];
        for _ in 0..4 {
            step(p, &mut mem);
        }
        assert_eq!(p.status().decision(), None);
        assert_eq!(p.round(), 2);
    }

    #[test]
    fn laggard_adopts_leader_preference() {
        // Leader (input 1) runs 8 ops solo and decides; laggard (input 0)
        // then runs and must adopt 1 (agreement).
        let (mut mem, layout, _) = setup(&[]);
        let mut leader = LeanConsensus::new(layout, Bit::One);
        let mut laggard = LeanConsensus::new(layout, Bit::Zero);
        while step(&mut leader, &mut mem).is_none() {}
        assert_eq!(leader.status().decision(), Some(Bit::One));
        let mut d = None;
        let mut guard = 0;
        while d.is_none() {
            d = step(&mut laggard, &mut mem);
            guard += 1;
            assert!(guard < 100, "laggard failed to decide");
        }
        assert_eq!(d, Some(Bit::One));
        assert_eq!(laggard.preference(), Bit::One);
    }

    #[test]
    fn preference_unchanged_on_tied_frontier() {
        // If both a0[r] and a1[r] are set, the process keeps its
        // preference (the deterministic rule §4 step 1).
        let (mut mem, layout, _) = setup(&[]);
        mem.write(layout.slot(Bit::Zero, 1), 1);
        mem.write(layout.slot(Bit::One, 1), 1);
        let mut p = LeanConsensus::new(layout, Bit::Zero);
        step(&mut p, &mut mem); // read a0[1] = 1
        step(&mut p, &mut mem); // read a1[1] = 1
        assert_eq!(p.preference(), Bit::Zero);
    }

    #[test]
    fn write_goes_to_current_preference_array() {
        let (mut mem, layout, _) = setup(&[]);
        // Rig round 1 so an input-0 process adopts preference 1.
        mem.write(layout.slot(Bit::One, 1), 1);
        let mut p = LeanConsensus::new(layout, Bit::Zero);
        step(&mut p, &mut mem); // read a0[1] = 0
        step(&mut p, &mut mem); // read a1[1] = 1 -> adopt 1
        assert_eq!(p.preference(), Bit::One);
        let Status::Pending(op) = p.status() else {
            panic!()
        };
        assert_eq!(op, Op::Write(layout.slot(Bit::One, 1), 1));
    }

    #[test]
    fn step_status_is_equivalent_to_exec_plus_advance() {
        // Drive two identical instances — one through the generic
        // status/exec/advance protocol, one through the fused
        // step_status — against two identical memories, comparing every
        // returned status, all observable state, and the full memory
        // contents at each step.
        for inputs in [vec![Bit::Zero], vec![Bit::Zero, Bit::One, Bit::One]] {
            let (mut mem_a, layout, mut procs_a) = setup(&inputs);
            let (mut mem_b, _, mut procs_b) = setup(&inputs);
            for step_no in 0..200 {
                let pid = step_no % inputs.len();
                let a = &mut procs_a[pid];
                let generic = match a.status() {
                    Status::Pending(op) => {
                        let observed = mem_a.exec(op);
                        a.advance_status(observed)
                    }
                    done => done,
                };
                let fused = procs_b[pid].step_status(&mut mem_b);
                assert_eq!(generic, fused, "step {step_no}");
                assert_eq!(a.round(), procs_b[pid].round());
                assert_eq!(a.preference(), procs_b[pid].preference());
                assert_eq!(a.ops_completed(), procs_b[pid].ops_completed());
                for off in 0..32 {
                    let addr = nc_memory::Addr::new(off);
                    assert_eq!(mem_a.peek(addr), mem_b.peek(addr), "addr {off}");
                }
            }
            let _ = layout;
        }
    }

    #[test]
    fn packed_addressing_matches_status_ops() {
        // op_addr()'s table-driven stride-2 addressing must agree with
        // the Op surfaced by status() in every phase, for layouts at
        // nonzero bases too.
        for base in [0usize, 10, 257] {
            let layout = RaceLayout::at_base(base);
            let mut mem = SimMemory::new();
            layout.install_sentinels(&mut mem);
            let mut p = LeanConsensus::new(layout, Bit::Zero);
            for _ in 0..64 {
                let Status::Pending(op) = p.status() else {
                    break;
                };
                let (offset, is_write) = p.hot.op_addr(layout);
                match op {
                    Op::Read(a) => {
                        assert!(!is_write);
                        assert_eq!(a.offset(), offset);
                    }
                    Op::Write(a, v) => {
                        assert!(is_write);
                        assert_eq!(a.offset(), offset);
                        assert_eq!(v, Bit::One.word());
                    }
                }
                step(&mut p, &mut mem);
            }
        }
    }

    #[test]
    fn input_accessor_and_display() {
        let (_, layout, _) = setup(&[]);
        let p = LeanConsensus::new(layout, Bit::One);
        assert!(p.to_string().contains("round=1"));
        assert_eq!(
            p.status(),
            Status::Pending(Op::Read(layout.slot(Bit::Zero, 1)))
        );
    }

    #[test]
    #[should_panic(expected = "advance called on a decided process")]
    fn advance_after_decision_panics() {
        let (mut mem, _, mut procs) = setup(&[Bit::Zero]);
        let p = &mut procs[0];
        while step(p, &mut mem).is_none() {}
        p.advance(Some(0));
    }

    #[test]
    #[should_panic(expected = "requires a value")]
    fn advance_read_without_value_panics() {
        let (_, layout, _) = setup(&[]);
        let mut p = LeanConsensus::new(layout, Bit::Zero);
        p.advance(None); // pending op is a read
    }

    #[test]
    #[should_panic(expected = "must not receive a read value")]
    fn advance_write_with_value_panics() {
        let (mut mem, layout, _) = setup(&[]);
        let mut p = LeanConsensus::new(layout, Bit::Zero);
        step(&mut p, &mut mem); // read a0
        step(&mut p, &mut mem); // read a1
        p.advance(Some(1)); // pending op is the write
    }
}
