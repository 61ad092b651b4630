//! The "optimized" lean-consensus variant the paper warns against (§4).
//!
//! > "It is tempting to optimize the algorithm by eliminating the write
//! > when it is already evident from the previous step that `a_p[r]` is
//! > set or eliminating the last read when it can be deduced from the
//! > value of `a_{1-p}[r]` that `a_{1-p}[r-1]` is set. However, this
//! > optimization reduces the work done by slow processes (whom we'd like
//! > to have fall still further behind) while maintaining the same
//! > per-round cost for fast processes (whom we'd like to have pull
//! > ahead). So we must paradoxically carry out operations that might
//! > appear to be superfluous in order to minimize the actual total
//! > cost."
//!
//! [`SkippingLean`] implements exactly those two skips. Both are
//! *logically sound* (the skipped write is idempotent; the skipped read's
//! value is implied by Lemma 2), so safety is untouched — only the
//! termination dynamics change. The ablation experiment (`nc-bench`,
//! experiment E9) measures the cost.

use std::fmt;

use nc_memory::{Bit, Op, RaceLayout, Word};

use crate::protocol::{Protocol, Status};

/// Where a process is inside its (up to four-operation) round.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Phase {
    ReadA0,
    ReadA1 {
        a0_set: bool,
    },
    /// About to write `a_p[r]`; remembers whether the rival frontier bit
    /// was set (deciding whether the final read can be skipped).
    Write {
        rival_set: bool,
    },
    ReadPrevRival,
    Done(Bit),
}

/// Lean-consensus with the §4 "superfluous" operations skipped.
///
/// Same inputs, same layout conventions, and the same safety properties
/// as [`crate::LeanConsensus`] — but slow processes do *less* work per
/// round, which (per the paper's argument) keeps the race tighter and
/// delays termination. Exists for the ablation experiment.
#[derive(Clone, Debug)]
pub struct SkippingLean {
    layout: RaceLayout,
    input: Bit,
    preference: Bit,
    round: usize,
    phase: Phase,
    ops: u64,
    skipped_writes: u64,
    skipped_reads: u64,
}

impl SkippingLean {
    /// Creates the state machine for a process with the given input.
    pub fn new(layout: RaceLayout, input: Bit) -> Self {
        SkippingLean {
            layout,
            input,
            preference: input,
            round: 1,
            phase: Phase::ReadA0,
            ops: 0,
            skipped_writes: 0,
            skipped_reads: 0,
        }
    }

    /// The input bit this process started with.
    pub fn input(&self) -> Bit {
        self.input
    }

    /// The round in which this process decided, if it has.
    pub fn decision_round(&self) -> Option<usize> {
        matches!(self.phase, Phase::Done(_)).then_some(self.round)
    }

    /// Number of writes the optimization elided.
    pub fn skipped_writes(&self) -> u64 {
        self.skipped_writes
    }

    /// Number of final reads the optimization elided.
    pub fn skipped_reads(&self) -> u64 {
        self.skipped_reads
    }

    /// Moves to the next phase after the frontier reads, applying both
    /// skip rules.
    fn after_frontier(&mut self, a0_set: bool, a1_set: bool) {
        // Same preference rule as the paper's step 1.
        match (a0_set, a1_set) {
            (true, false) => self.preference = Bit::Zero,
            (false, true) => self.preference = Bit::One,
            _ => {}
        }
        let own_set = match self.preference {
            Bit::Zero => a0_set,
            Bit::One => a1_set,
        };
        let rival_set = match self.preference {
            Bit::Zero => a1_set,
            Bit::One => a0_set,
        };
        if own_set {
            // Skip the idempotent write.
            self.skipped_writes += 1;
            if rival_set {
                // a_{1-p}[r] set implies a_{1-p}[r-1] set (Lemma 2):
                // skip the final read, no decision possible this round.
                self.skipped_reads += 1;
                self.round += 1;
                self.phase = Phase::ReadA0;
            } else {
                self.phase = Phase::ReadPrevRival;
            }
        } else {
            self.phase = Phase::Write { rival_set };
        }
    }
}

impl Protocol for SkippingLean {
    fn status(&self) -> Status {
        let one: Word = Bit::One.word();
        match self.phase {
            Phase::ReadA0 => Status::Pending(Op::Read(self.layout.slot(Bit::Zero, self.round))),
            Phase::ReadA1 { .. } => {
                Status::Pending(Op::Read(self.layout.slot(Bit::One, self.round)))
            }
            Phase::Write { .. } => Status::Pending(Op::Write(
                self.layout.slot(self.preference, self.round),
                one,
            )),
            Phase::ReadPrevRival => Status::Pending(Op::Read(
                self.layout.slot(self.preference.rival(), self.round - 1),
            )),
            Phase::Done(b) => Status::Decided(b),
        }
    }

    fn advance(&mut self, read_value: Option<Word>) {
        self.ops += 1;
        match self.phase {
            Phase::ReadA0 => {
                let v = read_value.expect("pending read of a0[r] requires a value");
                self.phase = Phase::ReadA1 { a0_set: v != 0 };
            }
            Phase::ReadA1 { a0_set } => {
                let a1_set = read_value.expect("pending read of a1[r] requires a value") != 0;
                self.after_frontier(a0_set, a1_set);
            }
            Phase::Write { rival_set } => {
                assert!(
                    read_value.is_none(),
                    "pending write must not receive a read value"
                );
                if rival_set {
                    // Lemma 2 again: the final read is deducible.
                    self.skipped_reads += 1;
                    self.round += 1;
                    self.phase = Phase::ReadA0;
                } else {
                    self.phase = Phase::ReadPrevRival;
                }
            }
            Phase::ReadPrevRival => {
                let v = read_value.expect("pending read of a_(1-p)[r-1] requires a value");
                if v == 0 {
                    self.phase = Phase::Done(self.preference);
                } else {
                    self.round += 1;
                    self.phase = Phase::ReadA0;
                }
            }
            Phase::Done(_) => panic!("advance called on a decided process"),
        }
    }

    fn round(&self) -> usize {
        self.round
    }

    fn preference(&self) -> Bit {
        self.preference
    }

    fn ops_completed(&self) -> u64 {
        self.ops
    }
}

impl fmt::Display for SkippingLean {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "skipping-lean(pref={}, round={}, skipped {}w/{}r)",
            self.preference, self.round, self.skipped_writes, self.skipped_reads
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{run_random_interleave, run_round_robin, step};
    use nc_memory::SimMemory;

    fn setup(inputs: &[Bit]) -> (SimMemory, RaceLayout, Vec<SkippingLean>) {
        let mut mem = SimMemory::new();
        let layout = RaceLayout::at_base(0);
        layout.install_sentinels(&mut mem);
        let procs = inputs
            .iter()
            .map(|&b| SkippingLean::new(layout, b))
            .collect();
        (mem, layout, procs)
    }

    #[test]
    fn solo_process_still_decides_own_input() {
        for input in Bit::BOTH {
            let (mut mem, _, mut procs) = setup(&[input]);
            let p = &mut procs[0];
            let mut d = None;
            let mut guard = 0;
            while d.is_none() {
                d = step(p, &mut mem);
                guard += 1;
                assert!(guard < 100);
            }
            assert_eq!(d, Some(input));
            // Solo process never sees set bits it didn't just write, so no
            // skips trigger and it still costs 8 ops.
            assert_eq!(p.ops_completed(), 8);
            assert_eq!(p.skipped_writes(), 0);
            assert_eq!(p.skipped_reads(), 0);
        }
    }

    #[test]
    fn agreement_and_validity_hold() {
        for seed in 0..10 {
            let (mut mem, _, mut procs) = setup(&[Bit::Zero, Bit::One, Bit::One]);
            let decisions = run_random_interleave(&mut procs, &mut mem, seed, 2_000_000).unwrap();
            let first = decisions[0];
            assert!(decisions.iter().all(|&d| d == first));
        }
        for input in Bit::BOTH {
            let (mut mem, _, mut procs) = setup(&[input; 4]);
            let decisions = run_round_robin(&mut procs, &mut mem, 100_000).unwrap();
            assert!(decisions.iter().all(|&d| d == input), "validity");
        }
    }

    #[test]
    fn laggard_skips_the_write_behind_a_leader() {
        // Leader decides solo; the laggard then walks rounds whose bits
        // are already set and must skip writes (and final reads while the
        // rival prefix is set).
        let (mut mem, layout, _) = setup(&[]);
        let mut leader = SkippingLean::new(layout, Bit::One);
        while step(&mut leader, &mut mem).is_none() {}
        let mut laggard = SkippingLean::new(layout, Bit::One);
        while step(&mut laggard, &mut mem).is_none() {}
        assert_eq!(laggard.status().decision(), Some(Bit::One));
        assert!(
            laggard.skipped_writes() > 0,
            "laggard should have skipped at least one write"
        );
        assert!(
            laggard.ops_completed() < 8,
            "skips must reduce the laggard's op count, got {}",
            laggard.ops_completed()
        );
    }

    #[test]
    fn skipped_read_advances_round_without_deciding() {
        let (mut mem, layout, _) = setup(&[]);
        // Both frontier bits of round 1 set: process skips write AND read.
        mem.write(layout.slot(Bit::Zero, 1), 1);
        mem.write(layout.slot(Bit::One, 1), 1);
        let mut p = SkippingLean::new(layout, Bit::Zero);
        step(&mut p, &mut mem); // read a0[1] = 1
        step(&mut p, &mut mem); // read a1[1] = 1 -> both skips
        assert_eq!(p.round(), 2);
        assert_eq!(p.skipped_writes(), 1);
        assert_eq!(p.skipped_reads(), 1);
        assert_eq!(p.status().decision(), None);
    }

    #[test]
    fn write_happens_when_own_bit_unset_even_if_rival_set() {
        let (mut mem, layout, _) = setup(&[]);
        mem.write(layout.slot(Bit::One, 1), 1); // rival (for pref 0... adopts 1!)
                                                // With a0[1]=0, a1[1]=1 an input-0 process adopts 1, whose bit IS
                                                // set -> skip write. Use matching input instead:
        let mut p = SkippingLean::new(layout, Bit::One);
        step(&mut p, &mut mem); // a0[1] = 0
        step(&mut p, &mut mem); // a1[1] = 1, own bit set -> skip write
        assert_eq!(p.skipped_writes(), 1);
        // rival unset -> final read still happens
        let Status::Pending(op) = p.status() else {
            panic!()
        };
        assert_eq!(op, Op::Read(layout.slot(Bit::Zero, 0)));
    }

    #[test]
    fn rival_set_after_write_skips_final_read() {
        let (mut mem, layout, _) = setup(&[]);
        mem.write(layout.slot(Bit::One, 1), 1); // rival of a 0-preferring proc...
                                                // input 0 adopts 1 here; rig instead rival set for pref 1: set a0.
        let mut mem2 = SimMemory::new();
        layout.install_sentinels(&mut mem2);
        mem2.write(layout.slot(Bit::Zero, 1), 1);
        let mut p = SkippingLean::new(layout, Bit::One);
        // reads: a0[1]=1, a1[1]=0 -> adopts 0! own bit now set -> skips.
        // To test the Write{rival_set} path we need own unset, rival set,
        // which after preference adoption cannot happen at the frontier
        // (adoption chases the set bit). It CAN happen when both are set
        // is covered above; when only own... The Write{rival_set:true}
        // branch is reachable only if both set and own unset -> impossible
        // after adoption. So assert the adoption behaviour instead.
        step(&mut p, &mut mem2);
        step(&mut p, &mut mem2);
        assert_eq!(p.preference(), Bit::Zero);
        assert_eq!(p.skipped_writes(), 1);
    }

    #[test]
    fn display_mentions_skips() {
        let (_, layout, _) = setup(&[]);
        let p = SkippingLean::new(layout, Bit::Zero);
        assert!(p.to_string().contains("skipping-lean"));
        assert_eq!(p.input(), Bit::Zero);
        assert_eq!(p.decision_round(), None);
    }

    #[test]
    #[should_panic(expected = "advance called on a decided process")]
    fn advance_after_decision_panics() {
        let (mut mem, _, mut procs) = setup(&[Bit::Zero]);
        let p = &mut procs[0];
        while step(p, &mut mem).is_none() {}
        p.advance(Some(0));
    }
}
