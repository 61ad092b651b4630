//! The backup consensus round loop.
//!
//! ```text
//! p := input; r := 1
//! loop:
//!   outcome := AdoptCommit_r.propose(p)
//!   if outcome is (commit, v): decide v
//!   p := Conciliator_r(outcome.value)
//!   r := r + 1
//! ```
//!
//! Correctness, assembled from the component properties:
//!
//! * **Agreement.** If any process commits `v` at round `r`, adopt-commit
//!   coherence forces every process's round-`r` outcome value to `v`, so
//!   every conciliator-`r` input is `v`, unanimity preservation makes
//!   every round-`r + 1` proposal `v`, and convergence commits `v` for
//!   everyone at `r + 1`. Decisions at other rounds collapse to the same
//!   value by induction on the earliest commit round.
//! * **Validity.** Unanimous inputs commit at round 1 (convergence), and
//!   no coin is ever consulted.
//! * **Termination.** Each no-commit round ends with a conciliator whose
//!   outputs are unanimous with probability ≥ δ (a constant), so the
//!   round count is geometric; each round costs `O(1)` adopt-commit ops
//!   plus expected `O(n³)` coin ops — polynomial work, as §8 requires.

use std::fmt;

use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

use nc_core::{Protocol, Status};
use nc_memory::{Bit, Word};

use crate::adopt::{AcOutcome, AdoptCommit, SubStatus};
use crate::conciliator::Conciliator;
use crate::layout::BackupLayout;

#[derive(Clone, Debug)]
enum Phase {
    Adopt(AdoptCommit),
    Conciliate(Conciliator),
    Done(Bit),
}

/// A bounded-space randomized consensus protocol instance (one process).
///
/// Implements [`nc_core::Protocol`], so it runs under every driver in
/// the workspace and plugs directly into
/// [`nc_core::BoundedLean`] as the §8 backup.
#[derive(Clone, Debug)]
pub struct BackupConsensus {
    layout: BackupLayout,
    pid: usize,
    preference: Bit,
    round: usize,
    ops: u64,
    rng: SmallRng,
    phase: Phase,
}

impl BackupConsensus {
    /// Creates the state machine for process `pid` (`< layout.n()`) with
    /// the given input and RNG stream.
    ///
    /// # Panics
    ///
    /// Panics if `pid >= layout.n()`.
    pub fn new(layout: BackupLayout, pid: usize, input: Bit, mut rng: SmallRng) -> Self {
        assert!(
            pid < layout.n(),
            "pid {pid} out of range for n={}",
            layout.n()
        );
        let _ = rng.random::<u64>(); // decorrelate from sibling streams
        BackupConsensus {
            layout,
            pid,
            preference: input,
            round: 1,
            ops: 0,
            rng: rng.clone(),
            phase: Phase::Adopt(AdoptCommit::new(layout, 1, input)),
        }
    }

    fn fork_rng(&mut self) -> SmallRng {
        SmallRng::seed_from_u64(self.rng.random::<u64>())
    }
}

impl Protocol for BackupConsensus {
    fn status(&self) -> Status {
        match &self.phase {
            Phase::Adopt(ac) => match ac.status() {
                SubStatus::Pending(op) => Status::Pending(op),
                SubStatus::Done(_) => unreachable!("adopt outcome is consumed in advance()"),
            },
            Phase::Conciliate(c) => match c.status() {
                SubStatus::Pending(op) => Status::Pending(op),
                SubStatus::Done(_) => unreachable!("conciliator outcome is consumed in advance()"),
            },
            Phase::Done(b) => Status::Decided(*b),
        }
    }

    fn advance(&mut self, read_value: Option<Word>) {
        self.ops += 1;
        match &mut self.phase {
            Phase::Adopt(ac) => {
                ac.advance(read_value);
                if let SubStatus::Done(outcome) = ac.status() {
                    self.preference = outcome.value();
                    match outcome {
                        AcOutcome::Commit(v) => self.phase = Phase::Done(v),
                        AcOutcome::Adopt(v) => {
                            let rng = self.fork_rng();
                            self.phase = Phase::Conciliate(Conciliator::new(
                                self.layout,
                                self.round,
                                self.pid,
                                v,
                                rng,
                            ));
                        }
                    }
                }
            }
            Phase::Conciliate(c) => {
                c.advance(read_value);
                if let SubStatus::Done(v) = c.status() {
                    self.preference = v;
                    self.round += 1;
                    self.phase = Phase::Adopt(AdoptCommit::new(self.layout, self.round, v));
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

impl fmt::Display for BackupConsensus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "backup(P{}, pref={}, round={}, {})",
            self.pid,
            self.preference,
            self.round,
            self.status()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nc_core::{run_random_interleave, run_round_robin, step};
    use nc_memory::SimMemory;

    fn rng(seed: u64) -> SmallRng {
        SmallRng::seed_from_u64(seed)
    }

    fn setup(inputs: &[Bit], seed: u64) -> (SimMemory, Vec<BackupConsensus>) {
        let n = inputs.len();
        let mut mem = SimMemory::new();
        let region = mem.alloc(BackupLayout::words_needed(n, 16));
        let layout = BackupLayout::new(region, n, 16);
        let procs = inputs
            .iter()
            .enumerate()
            .map(|(i, &b)| BackupConsensus::new(layout, i, b, rng(seed * 1000 + i as u64)))
            .collect();
        (mem, procs)
    }

    #[test]
    fn solo_decides_own_input_quickly() {
        for input in Bit::BOTH {
            let (mut mem, mut procs) = setup(&[input], 1);
            let p = &mut procs[0];
            let mut d = None;
            let mut ops = 0;
            while d.is_none() {
                d = step(p, &mut mem);
                ops += 1;
                assert!(ops < 100);
            }
            assert_eq!(d, Some(input));
            assert_eq!(p.ops_completed(), 4, "solo commit path is 4 ops");
        }
    }

    #[test]
    fn validity_unanimous_inputs_never_coin() {
        for input in Bit::BOTH {
            for seed in 0..5 {
                let (mut mem, mut procs) = setup(&[input; 5], seed);
                let decisions =
                    run_random_interleave(&mut procs, &mut mem, seed, 10_000_000).unwrap();
                assert!(decisions.iter().all(|&d| d == input), "validity broken");
                // A unanimous adopt-commit commits in round 1: no
                // conciliator, so no coin, ever ran.
                assert!(procs.iter().all(|p| p.round() == 1));
            }
        }
    }

    #[test]
    fn agreement_on_mixed_inputs_random_interleaving() {
        for seed in 0..15u64 {
            let inputs = [Bit::Zero, Bit::One, Bit::One, Bit::Zero];
            let (mut mem, mut procs) = setup(&inputs, seed);
            let decisions = run_random_interleave(&mut procs, &mut mem, seed, 50_000_000)
                .expect("backup must terminate");
            let v = decisions[0];
            assert!(
                decisions.iter().all(|&d| d == v),
                "disagreement (seed {seed})"
            );
        }
    }

    #[test]
    fn agreement_under_lockstep_round_robin() {
        // THE decisive property: deterministic lean-consensus cannot
        // terminate under lockstep; the backup (with its shared coin)
        // must. Note round-robin interleaving of coin scans is still a
        // valid schedule — termination is probabilistic over the coins.
        for seed in 0..10u64 {
            let inputs = [Bit::Zero, Bit::One];
            let (mut mem, mut procs) = setup(&inputs, seed);
            let decisions = run_round_robin(&mut procs, &mut mem, 50_000_000)
                .expect("backup must terminate under lockstep");
            assert_eq!(decisions[0], decisions[1], "disagreement (seed {seed})");
        }
    }

    #[test]
    fn late_starter_agrees_with_earlier_decision() {
        let (mut mem, mut procs) = setup(&[Bit::One, Bit::Zero], 3);
        // Process 0 runs to completion alone (commits One at round 1).
        let mut d0 = None;
        while d0.is_none() {
            d0 = step(&mut procs[0], &mut mem);
        }
        assert_eq!(d0, Some(Bit::One));
        // Process 1 (input Zero) starts afterwards: must adopt One.
        let mut d1 = None;
        let mut guard = 0;
        while d1.is_none() {
            d1 = step(&mut procs[1], &mut mem);
            guard += 1;
            assert!(guard < 1_000_000);
        }
        assert_eq!(d1, Some(Bit::One), "late starter must agree");
    }

    #[test]
    fn decision_round_spread_is_at_most_one() {
        // Commit coherence forces decisions within one round of the
        // earliest commit.
        for seed in 0..10u64 {
            let inputs = [Bit::Zero, Bit::One, Bit::Zero];
            let (mut mem, mut procs) = setup(&inputs, seed);
            run_random_interleave(&mut procs, &mut mem, seed, 50_000_000).unwrap();
            let rounds: Vec<usize> = procs.iter().map(|p| p.round()).collect();
            let lo = rounds.iter().min().unwrap();
            let hi = rounds.iter().max().unwrap();
            assert!(hi - lo <= 1, "decision rounds {rounds:?} (seed {seed})");
        }
    }

    #[test]
    fn accessors_and_display() {
        let (_, procs) = setup(&[Bit::One], 0);
        let p = &procs[0];
        assert_eq!(p.preference(), Bit::One);
        assert_eq!(p.round(), 1);
        assert_eq!(p.ops_completed(), 0);
        assert!(p.to_string().contains("backup(P0"));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn pid_out_of_range_panics() {
        let mut mem = SimMemory::new();
        let region = mem.alloc(BackupLayout::words_needed(2, 4));
        let layout = BackupLayout::new(region, 2, 4);
        let _ = BackupConsensus::new(layout, 2, Bit::Zero, rng(0));
    }
}
