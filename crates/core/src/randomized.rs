//! A local-coin randomized baseline (the Chandra'96 ancestry).
//!
//! lean-consensus is Chandra's wait-free consensus algorithm with the
//! shared coins removed. [`RandomizedLean`] puts a *local* coin back in
//! the one place it is safe: when a process observes **both** frontier
//! bits `a0[r]` and `a1[r]` set — a true tie, where the deterministic
//! algorithm keeps its current preference — the randomized variant
//! re-draws its preference uniformly.
//!
//! Why this is safe: safety (§5) only constrains preference *changes
//! toward an unset side*. When both `a_b[r]` bits are set, Lemma 2
//! already guarantees both `a_b[r-1]` bits are set, so no process can
//! decide at round `r + 1` against either value and adopting either
//! preference preserves Lemmas 2–4 verbatim (the first process to set
//! `a_{1-b}[r]` still must have read `a_{1-b}[r] = 0`, which the coin
//! rule never sees).
//!
//! Why the coin fires **only** on a doubly-set frontier: a coin on an
//! *all-zero* frontier would let a process adopt `1-b` without
//! `a_{1-b}[r-1]` ever having been set, breaking Lemma 2 — and from
//! there a real disagreement is constructible (a decided-and-stopped
//! leader plus one coin-flipping laggard that walks to a rival decision
//! two rounds later). The doubly-set tie is the *only* safe place for
//! local randomness in this algorithm.
//!
//! Why it is a limited baseline: in a perfectly phase-aligned lockstep
//! schedule every process reads the round-`r` frontier *before* anyone
//! writes it, so the doubly-set tie is never even observed and the coin
//! never fires — deterministic lean-consensus and this variant both run
//! forever. Defeating lockstep requires either environment noise (the
//! paper's thesis) or a genuine shared coin (the `nc-backup` protocol,
//! which plays the Chandra-like baseline role in experiment E10). This
//! variant isolates the middle ground: *local* randomness, which helps
//! only mid-pack processes that observe ties under asymmetric schedules.

use std::fmt;

use rand::rngs::SmallRng;
use rand::RngExt;

use nc_memory::{Bit, Op, RaceLayout, Word};

use crate::protocol::{Protocol, Status};

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Phase {
    ReadA0,
    ReadA1 { a0_set: bool },
    Write,
    ReadPrevRival,
    Done(Bit),
}

/// Lean-consensus with a local coin on tied frontiers.
///
/// Identical operation sequence to [`crate::LeanConsensus`] (four
/// operations per round); only the preference rule on a doubly-set
/// frontier differs.
#[derive(Clone, Debug)]
pub struct RandomizedLean {
    layout: RaceLayout,
    input: Bit,
    preference: Bit,
    round: usize,
    phase: Phase,
    ops: u64,
    coin_flips: u64,
    rng: SmallRng,
}

impl RandomizedLean {
    /// Creates the state machine for a process with the given input and
    /// its own coin stream.
    pub fn new(layout: RaceLayout, input: Bit, rng: SmallRng) -> Self {
        RandomizedLean {
            layout,
            input,
            preference: input,
            round: 1,
            phase: Phase::ReadA0,
            ops: 0,
            coin_flips: 0,
            rng,
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

    /// How many local coins this process has flipped.
    pub fn coin_flips(&self) -> u64 {
        self.coin_flips
    }
}

impl Protocol for RandomizedLean {
    fn status(&self) -> Status {
        let one: Word = Bit::One.word();
        match self.phase {
            Phase::ReadA0 => Status::Pending(Op::Read(self.layout.slot(Bit::Zero, self.round))),
            Phase::ReadA1 { .. } => {
                Status::Pending(Op::Read(self.layout.slot(Bit::One, self.round)))
            }
            Phase::Write => Status::Pending(Op::Write(
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
                match (a0_set, a1_set) {
                    (true, false) => self.preference = Bit::Zero,
                    (false, true) => self.preference = Bit::One,
                    (true, true) => {
                        // The one deviation from the paper's algorithm:
                        // re-randomize on a tied, fully-set frontier.
                        self.coin_flips += 1;
                        self.preference = Bit::from(self.rng.random::<bool>());
                    }
                    (false, false) => {}
                }
                self.phase = Phase::Write;
            }
            Phase::Write => {
                assert!(
                    read_value.is_none(),
                    "pending write must not receive a read value"
                );
                self.phase = Phase::ReadPrevRival;
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

impl fmt::Display for RandomizedLean {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "randomized-lean(pref={}, round={}, flips={})",
            self.preference, self.round, self.coin_flips
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{run_round_robin, step};
    use nc_memory::SimMemory;
    use nc_sched_test_rng::rng;

    /// Tiny local helper: deterministic rngs without depending on
    /// nc-sched (which would create a cycle).
    mod nc_sched_test_rng {
        use rand::rngs::SmallRng;
        use rand::SeedableRng;

        pub fn rng(seed: u64) -> SmallRng {
            SmallRng::seed_from_u64(seed)
        }
    }

    fn setup(inputs: &[Bit], seed: u64) -> (SimMemory, RaceLayout, Vec<RandomizedLean>) {
        let mut mem = SimMemory::new();
        let layout = RaceLayout::at_base(0);
        layout.install_sentinels(&mut mem);
        let procs = inputs
            .iter()
            .enumerate()
            .map(|(i, &b)| RandomizedLean::new(layout, b, rng(seed ^ ((i as u64 + 1) * 1000))))
            .collect();
        (mem, layout, procs)
    }

    #[test]
    fn solo_decides_own_input_in_8_ops() {
        for input in Bit::BOTH {
            let (mut mem, _, mut procs) = setup(&[input], 1);
            let p = &mut procs[0];
            let mut d = None;
            while d.is_none() {
                d = step(p, &mut mem);
            }
            assert_eq!(d, Some(input));
            assert_eq!(p.ops_completed(), 8);
            assert_eq!(p.coin_flips(), 0, "no ties for a solo process");
        }
    }

    #[test]
    fn validity_no_coin_can_flip_unanimous_inputs() {
        for input in Bit::BOTH {
            for seed in 0..10 {
                let (mut mem, _, mut procs) = setup(&[input; 4], seed);
                let decisions = run_round_robin(&mut procs, &mut mem, 100_000).unwrap();
                assert!(decisions.iter().all(|&d| d == input), "validity broken");
            }
        }
    }

    #[test]
    fn lockstep_never_observes_ties_and_never_terminates() {
        // In phase-aligned lockstep all frontier reads precede all
        // frontier writes, so the (1,1) tie is never observed, the coin
        // never fires, and — like deterministic lean-consensus — the run
        // does not terminate. This documents why local coins are not a
        // substitute for environment noise or a shared coin.
        let (mut mem, _, mut procs) = setup(&[Bit::Zero, Bit::One, Bit::Zero, Bit::One], 5);
        assert_eq!(run_round_robin(&mut procs, &mut mem, 50_000), None);
        assert!(procs.iter().all(|p| p.coin_flips() == 0));
    }

    #[test]
    fn agreement_under_random_interleaving() {
        // Under asymmetric (randomly interleaved) schedules the variant
        // terminates and agrees; ties can occur and the coin may fire.
        use rand::RngExt;
        for seed in 0..20u64 {
            let (mut mem, _, mut procs) = setup(&[Bit::Zero, Bit::One, Bit::Zero, Bit::One], seed);
            let mut sched = rng(seed.wrapping_mul(77).wrapping_add(13));
            let mut decisions = vec![None; procs.len()];
            for _ in 0..2_000_000u64 {
                let undecided: Vec<usize> = (0..procs.len())
                    .filter(|&i| decisions[i].is_none())
                    .collect();
                if undecided.is_empty() {
                    break;
                }
                let pick = undecided[sched.random_range(0..undecided.len())];
                decisions[pick] = step(&mut procs[pick], &mut mem);
            }
            let all: Vec<Bit> = decisions
                .into_iter()
                .map(|d| d.expect("random interleaving should terminate"))
                .collect();
            assert!(
                all.iter().all(|&d| d == all[0]),
                "agreement broken (seed {seed})"
            );
        }
    }

    #[test]
    fn tie_rule_rerandomizes() {
        // Frontier fully set: preference comes from the coin (exercise
        // both outcomes across seeds).
        let mut seen = std::collections::HashSet::new();
        for seed in 0..64 {
            let (mut mem, layout, _) = setup(&[], seed);
            mem.write(layout.slot(Bit::Zero, 1), 1);
            mem.write(layout.slot(Bit::One, 1), 1);
            let mut p = RandomizedLean::new(layout, Bit::Zero, rng(seed));
            step(&mut p, &mut mem);
            step(&mut p, &mut mem);
            assert_eq!(p.coin_flips(), 1);
            seen.insert(p.preference());
        }
        assert_eq!(seen.len(), 2, "coin never produced one of the outcomes");
    }

    #[test]
    fn single_set_frontier_adopts_deterministically() {
        let (mut mem, layout, _) = setup(&[], 3);
        mem.write(layout.slot(Bit::One, 1), 1);
        let mut p = RandomizedLean::new(layout, Bit::Zero, rng(3));
        step(&mut p, &mut mem);
        step(&mut p, &mut mem);
        assert_eq!(p.preference(), Bit::One);
        assert_eq!(p.coin_flips(), 0);
    }

    #[test]
    fn accessors_and_display() {
        let (_, layout, _) = setup(&[], 0);
        let p = RandomizedLean::new(layout, Bit::One, rng(0));
        assert_eq!(p.input(), Bit::One);
        assert_eq!(p.decision_round(), None);
        assert!(p.to_string().contains("randomized-lean"));
    }
}
