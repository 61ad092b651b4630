//! A local-coin randomized baseline (the Chandra'96 ancestry).
//!
//! lean-consensus is Chandra's wait-free consensus algorithm with the
//! shared coins removed. [`RandomizedLean`] puts a *local* coin back in
//! the one place it is safe: when a process observes **both** frontier
//! bits `a0[r]` and `a1[r]` set — a true tie, where the deterministic
//! algorithm keeps its current preference — the randomized variant
//! re-draws its preference uniformly. It holds a [`LeanConsensus`] and
//! changes only that one rule.
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

use nc_memory::{Bit, RaceLayout, Word};

use crate::lean::LeanConsensus;
use crate::protocol::{Protocol, Status};

/// Lean-consensus with a local coin on tied frontiers.
///
/// Identical operation sequence to [`LeanConsensus`] (four operations
/// per round); only the preference rule on a doubly-set frontier
/// differs.
#[derive(Clone, Debug)]
pub struct RandomizedLean {
    lean: LeanConsensus,
    /// Whether this round's read of `a0[r]` returned a set bit.
    a0_set: bool,
    rng: SmallRng,
}

impl RandomizedLean {
    /// Creates the state machine for a process with the given input and
    /// its own coin stream.
    pub fn new(layout: RaceLayout, input: Bit, rng: SmallRng) -> Self {
        RandomizedLean {
            lean: LeanConsensus::new(layout, input),
            a0_set: false,
            rng,
        }
    }
}

impl Protocol for RandomizedLean {
    fn status(&self) -> Status {
        self.lean.status()
    }

    fn advance(&mut self, read_value: Option<Word>) {
        let frontier = self.lean.pending_frontier();
        self.lean.advance(read_value);
        let set = read_value.is_some_and(|v| v != 0);
        match frontier {
            Some(Bit::Zero) => self.a0_set = set,
            // The one deviation from the paper's algorithm: re-randomize
            // on a tied, fully-set frontier.
            Some(Bit::One) if self.a0_set && set => {
                let coin = Bit::from(self.rng.random::<bool>());
                self.lean.set_preference(coin);
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
        self.lean.ops_completed()
    }
}

impl fmt::Display for RandomizedLean {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "randomized-lean(pref={}, round={})",
            self.preference(),
            self.round()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{run_round_robin, step};
    use nc_memory::{Op, SimMemory};
    use nc_sched_test_rng::rng;

    /// Tiny local helper: deterministic rngs without depending on
    /// nc-sched (which would create a cycle).
    mod nc_sched_test_rng {
        use rand::rngs::SmallRng;
        use rand::SeedableRng;

        pub(super) fn rng(seed: u64) -> SmallRng {
            SmallRng::seed_from_u64(seed)
        }
    }

    /// Process `i`'s coin stream under `seed`.
    fn coin(seed: u64, i: usize) -> SmallRng {
        rng(seed ^ ((i as u64 + 1) * 1000))
    }

    fn setup(inputs: &[Bit], seed: u64) -> (SimMemory, RaceLayout, Vec<RandomizedLean>) {
        let mut mem = SimMemory::new();
        let layout = RaceLayout::at_base(0);
        layout.install_sentinels(&mut mem);
        let procs = inputs
            .iter()
            .enumerate()
            .map(|(i, &b)| RandomizedLean::new(layout, b, coin(seed, i)))
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
            assert_eq!(p.round(), 2);
            assert_eq!(p.rng, coin(1, 0), "no ties for a solo process");
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
        for (i, p) in procs.iter().enumerate() {
            assert_eq!(p.rng, coin(5, i), "P{i} drew a coin");
        }
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
            // Exactly one draw, and the pending write follows it.
            let mut expected = rng(seed);
            let drawn = Bit::from(expected.random::<bool>());
            assert_eq!(p.rng, expected);
            assert_eq!(p.preference(), drawn);
            assert_eq!(
                p.status(),
                Status::Pending(Op::Write(layout.slot(drawn, 1), 1))
            );
            seen.insert(drawn);
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
        assert_eq!(p.rng, rng(3), "a single set bit draws no coin");
    }

    #[test]
    fn accessors_and_display() {
        let (_, layout, _) = setup(&[], 0);
        let p = RandomizedLean::new(layout, Bit::One, rng(0));
        assert_eq!(
            (p.round(), p.preference(), p.ops_completed()),
            (1, Bit::One, 0)
        );
        assert!(p.to_string().contains("randomized-lean"));
    }
}
