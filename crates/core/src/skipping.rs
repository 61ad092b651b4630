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
//! [`SkippingLean`] implements exactly those two skips as one rule over
//! [`LeanConsensus`]: after the frontier reads it feeds the machine the
//! results the skipped operations would have had, without performing
//! them. Both skips are *logically sound* (the skipped write is
//! idempotent; the skipped read's value is implied by Lemma 2), so safety
//! is untouched — only the termination dynamics change. The ablation
//! experiment (`nc-bench`, experiment E9) measures the cost.

use std::fmt;

use nc_memory::{Bit, RaceLayout, Word};

use crate::lean::LeanConsensus;
use crate::protocol::{Protocol, Status};

/// Lean-consensus with the §4 "superfluous" operations skipped.
///
/// Same inputs, same layout conventions, and the same safety properties
/// as [`LeanConsensus`] — but slow processes do *less* work per round,
/// which (per the paper's argument) keeps the race tighter and delays
/// termination. Exists for the ablation experiment.
#[derive(Clone, Debug)]
pub struct SkippingLean {
    lean: LeanConsensus,
    /// Whether this round's read of `a0[r]` returned a set bit.
    a0_set: bool,
    /// Operations fed to `lean` without being performed.
    skips: u64,
}

impl SkippingLean {
    /// Creates the state machine for a process with the given input.
    pub fn new(layout: RaceLayout, input: Bit) -> Self {
        SkippingLean {
            lean: LeanConsensus::new(layout, input),
            a0_set: false,
            skips: 0,
        }
    }

    /// Advances past the pending operation without performing it, with
    /// the result it would have had.
    fn skip(&mut self, result: Option<Word>) {
        self.skips += 1;
        self.lean.advance(result);
    }
}

impl Protocol for SkippingLean {
    fn status(&self) -> Status {
        self.lean.status()
    }

    fn advance(&mut self, read_value: Option<Word>) {
        let frontier = self.lean.pending_frontier();
        self.lean.advance(read_value);
        let set = read_value.is_some_and(|v| v != 0);
        match frontier {
            Some(Bit::Zero) => self.a0_set = set,
            // After adoption the preferred bit a_p[r] is set exactly when
            // either frontier bit is: skip the idempotent write.
            Some(Bit::One) if self.a0_set || set => {
                self.skip(None);
                if self.a0_set && set {
                    // a_{1-p}[r] set implies a_{1-p}[r-1] set (Lemma 2):
                    // skip the final read, no decision possible this round.
                    self.skip(Some(Bit::One.word()));
                }
            }
            _ => {}
        }
    }

    fn round(&self) -> usize {
        self.lean.round()
    }

    fn preference(&self) -> Bit {
        self.lean.preference()
    }

    fn ops_completed(&self) -> u64 {
        self.lean.ops_completed() - self.skips
    }
}

impl fmt::Display for SkippingLean {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "skipping-lean(pref={}, round={}, skipped {})",
            self.preference(),
            self.round(),
            self.skips
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{run_random_interleave, run_round_robin, step};
    use nc_memory::{Op, SimMemory};

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

    /// Steps `p` until it decides and returns the decision.
    fn run_solo(p: &mut SkippingLean, mem: &mut SimMemory) -> Bit {
        for _ in 0..100 {
            if let Some(d) = step(p, mem) {
                return d;
            }
        }
        panic!("solo run did not decide");
    }

    #[test]
    fn solo_process_still_decides_own_input() {
        for input in Bit::BOTH {
            let (mut mem, _, mut procs) = setup(&[input]);
            let p = &mut procs[0];
            let before = mem.ops_executed();
            assert_eq!(run_solo(p, &mut mem), input);
            // Solo process never sees set bits it didn't just write, so no
            // skips trigger and it still costs 8 ops.
            assert_eq!(p.ops_completed(), 8);
            assert_eq!(mem.ops_executed() - before, 8);
            assert_eq!(p.round(), 2);
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
        // Leader decides solo in 8 ops; the laggard then finds its own
        // bit already set in rounds 1 and 2, skips both writes, and
        // decides in round 2 after 6 operations.
        let (mut mem, layout, _) = setup(&[]);
        let mut leader = SkippingLean::new(layout, Bit::One);
        run_solo(&mut leader, &mut mem);
        let before = mem.ops_executed();
        let mut laggard = SkippingLean::new(layout, Bit::One);
        assert_eq!(run_solo(&mut laggard, &mut mem), Bit::One);
        assert_eq!(laggard.round(), 2);
        assert_eq!(laggard.ops_completed(), 6);
        assert_eq!(mem.ops_executed() - before, 6, "skipped ops touch memory");
    }

    #[test]
    fn skipped_read_advances_round_without_deciding() {
        let (mut mem, layout, _) = setup(&[]);
        // Both frontier bits of round 1 set: process skips write AND read.
        mem.write(layout.slot(Bit::Zero, 1), 1);
        mem.write(layout.slot(Bit::One, 1), 1);
        let before = mem.ops_executed();
        let mut p = SkippingLean::new(layout, Bit::Zero);
        step(&mut p, &mut mem); // read a0[1] = 1
        step(&mut p, &mut mem); // read a1[1] = 1 -> both skips
        assert_eq!(p.round(), 2);
        assert_eq!(p.ops_completed(), 2);
        assert_eq!(mem.ops_executed() - before, 2);
        assert_eq!(
            p.status(),
            Status::Pending(Op::Read(layout.slot(Bit::Zero, 2)))
        );
    }

    #[test]
    fn write_happens_when_own_bit_unset_even_if_rival_set() {
        // After adoption an unset own bit means an unset rival bit too:
        // on an empty frontier the write is performed...
        let (mut mem, layout, _) = setup(&[]);
        let mut p = SkippingLean::new(layout, Bit::Zero);
        step(&mut p, &mut mem); // a0[1] = 0
        step(&mut p, &mut mem); // a1[1] = 0
        assert_eq!(
            p.status(),
            Status::Pending(Op::Write(layout.slot(Bit::Zero, 1), 1))
        );
        // ...and on a set own bit it is skipped, straight to the final read.
        let (mut mem, layout, _) = setup(&[]);
        mem.write(layout.slot(Bit::One, 1), 1);
        let mut p = SkippingLean::new(layout, Bit::One);
        step(&mut p, &mut mem); // a0[1] = 0
        step(&mut p, &mut mem); // a1[1] = 1, own bit set -> skip write
        assert_eq!(p.ops_completed(), 2);
        assert_eq!(
            p.status(),
            Status::Pending(Op::Read(layout.slot(Bit::Zero, 0)))
        );
    }

    #[test]
    fn rival_set_after_write_skips_final_read() {
        // Adoption chases the set bit, so after the frontier reads a
        // set rival bit always comes with a set own bit: the final read
        // is skipped only together with the write. Here a0[1] = 1 makes
        // an input-1 process adopt 0, whose bit is set and whose rival
        // a1[1] is not: skip the write, keep the final read of a1[0].
        let (mut mem, layout, _) = setup(&[]);
        mem.write(layout.slot(Bit::Zero, 1), 1);
        let mut p = SkippingLean::new(layout, Bit::One);
        step(&mut p, &mut mem);
        step(&mut p, &mut mem);
        assert_eq!(p.preference(), Bit::Zero);
        assert_eq!(p.ops_completed(), 2);
        assert_eq!(
            p.status(),
            Status::Pending(Op::Read(layout.slot(Bit::One, 0)))
        );
    }

    #[test]
    fn display_mentions_skips() {
        let (_, layout, _) = setup(&[]);
        let p = SkippingLean::new(layout, Bit::Zero);
        assert!(p.to_string().contains("skipping-lean"));
        assert_eq!((p.round(), p.ops_completed()), (1, 0));
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
