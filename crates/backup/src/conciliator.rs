//! Conciliators: probabilistic agreement with unanimity preservation.
//!
//! A conciliator takes each process's current value and returns a value
//! such that
//!
//! 1. **unanimity preservation** — if every input is `v`, every output
//!    is `v` (this is what keeps a round-`r` commit binding in round
//!    `r + 1`);
//! 2. **probabilistic agreement** — with probability at least a constant
//!    `δ`, all outputs are equal;
//! 3. **validity-ish** — outputs are inputs or coin values (the round
//!    loop never decides directly on a conciliator output, so nothing
//!    stronger is needed).
//!
//! Construction (2 register ops + a shared coin fallback):
//!
//! ```text
//! conciliate(v):
//!   W: seen[v] := 1
//!   R: if seen[1-v] = 0: return v          # "early exit"
//!      else:             return coin()
//! ```
//!
//! At most one value can exit early: an early exit of `v` reads
//! `seen[1-v] = 0`, so every `seen[1-v]` write follows that read — and a
//! would-be early exit of `1-v` must write `seen[1-v]` before its own
//! read of `seen[v]`, which therefore happens after the `v`-writer's
//! write and observes 1. So mixed executions have all early exits on one
//! side and everyone else on the coin, which matches the early side with
//! probability ≥ δ/2.

use rand::rngs::SmallRng;

use nc_memory::{Bit, Op, Word};

use crate::adopt::SubStatus;
use crate::coin::SharedCoin;
use crate::layout::BackupLayout;

#[derive(Clone, Debug)]
enum Phase {
    WriteSeen,
    ReadRivalSeen,
    Coin(SharedCoin),
    Done(Bit),
}

/// One process's pass through one round's conciliator.
#[derive(Clone, Debug)]
pub(crate) struct Conciliator {
    layout: BackupLayout,
    round: usize,
    pid: usize,
    input: Bit,
    rng: Option<SmallRng>,
    phase: Phase,
}

impl Conciliator {
    /// Starts a conciliation of `input` for process `pid` in `round`.
    ///
    /// The RNG seeds the shared-coin fallback (consumed only if the
    /// fallback is reached).
    pub(crate) fn new(
        layout: BackupLayout,
        round: usize,
        pid: usize,
        input: Bit,
        rng: SmallRng,
    ) -> Self {
        Conciliator {
            layout,
            round,
            pid,
            input,
            rng: Some(rng),
            phase: Phase::WriteSeen,
        }
    }

    /// The machine's pending operation or outcome.
    pub(crate) fn status(&self) -> SubStatus<Bit> {
        match &self.phase {
            Phase::WriteSeen => {
                SubStatus::Pending(Op::Write(self.layout.seen(self.round, self.input), 1))
            }
            Phase::ReadRivalSeen => {
                SubStatus::Pending(Op::Read(self.layout.seen(self.round, self.input.rival())))
            }
            Phase::Coin(coin) => coin.status(),
            Phase::Done(b) => SubStatus::Done(*b),
        }
    }

    /// Delivers the pending operation's result.
    ///
    /// # Panics
    ///
    /// Panics if the machine is done or the result shape mismatches.
    pub(crate) fn advance(&mut self, read_value: Option<Word>) {
        match &mut self.phase {
            Phase::WriteSeen => {
                assert!(read_value.is_none(), "write takes no result");
                self.phase = Phase::ReadRivalSeen;
            }
            Phase::ReadRivalSeen => {
                let rival_seen = read_value.expect("read needs a value") != 0;
                if rival_seen {
                    let rng = self.rng.take().expect("coin rng consumed once");
                    self.phase =
                        Phase::Coin(SharedCoin::new(self.layout, self.round, self.pid, rng));
                } else {
                    self.phase = Phase::Done(self.input);
                }
            }
            Phase::Coin(coin) => {
                coin.advance(read_value);
                if let SubStatus::Done(b) = coin.status() {
                    self.phase = Phase::Done(b);
                }
            }
            Phase::Done(_) => panic!("advance called on a finished conciliator"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nc_memory::SimMemory;
    use rand::{RngExt, SeedableRng};

    fn rng(seed: u64) -> SmallRng {
        SmallRng::seed_from_u64(seed)
    }

    fn setup(n: usize) -> (SimMemory, BackupLayout) {
        let mut mem = SimMemory::new();
        let region = mem.alloc(BackupLayout::words_needed(n, 2));
        (mem, BackupLayout::new(region, n, 2))
    }

    fn drive(c: &mut Conciliator, mem: &mut SimMemory) -> Bit {
        for _ in 0..10_000_000u64 {
            match c.status() {
                SubStatus::Done(b) => return b,
                SubStatus::Pending(op) => c.advance(mem.exec(op)),
            }
        }
        panic!("conciliator did not terminate");
    }

    #[test]
    fn solo_keeps_its_input_in_two_ops() {
        for v in Bit::BOTH {
            let (mut mem, layout) = setup(1);
            let mut c = Conciliator::new(layout, 1, 0, v, rng(0));
            let before = mem.ops_executed();
            assert_eq!(drive(&mut c, &mut mem), v);
            assert_eq!(mem.ops_executed() - before, 2);
            assert!(c.rng.is_some(), "the coin never ran");
        }
    }

    #[test]
    fn unanimity_is_preserved_sequentially() {
        let (mut mem, layout) = setup(3);
        for pid in 0..3 {
            let mut c = Conciliator::new(layout, 1, pid, Bit::One, rng(pid as u64));
            assert_eq!(drive(&mut c, &mut mem), Bit::One);
        }
    }

    #[test]
    fn mixed_inputs_terminate_and_at_most_one_side_exits_early() {
        for seed in 0..30u64 {
            let (mut mem, layout) = setup(2);
            let mut procs = [
                Conciliator::new(layout, 1, 0, Bit::Zero, rng(seed)),
                Conciliator::new(layout, 1, 1, Bit::One, rng(seed + 1000)),
            ];
            let mut sched = rng(seed + 2000);
            let mut outs = [None, None];
            while outs.iter().any(|o| o.is_none()) {
                let live: Vec<usize> = (0..2).filter(|&i| outs[i].is_none()).collect();
                let pick = live[sched.random_range(0..live.len())];
                match procs[pick].status() {
                    SubStatus::Done(b) => outs[pick] = Some(b),
                    SubStatus::Pending(op) => {
                        let res = mem.exec(op);
                        procs[pick].advance(res);
                    }
                }
            }
            // At most one early exit side: if both skipped the coin they
            // must have the same output value.
            let early: Vec<Bit> = (0..2)
                .filter(|&i| procs[i].rng.is_some())
                .map(|i| outs[i].unwrap())
                .collect();
            if early.len() == 2 {
                assert_eq!(early[0], early[1], "two rival early exits (seed {seed})");
            }
        }
    }

    #[test]
    fn agreement_rate_is_substantial_on_mixed_inputs() {
        let n = 4;
        let trials = 40;
        let mut agreements = 0;
        for seed in 0..trials {
            let (mut mem, layout) = setup(n);
            let mut procs: Vec<Conciliator> = (0..n)
                .map(|pid| {
                    Conciliator::new(
                        layout,
                        1,
                        pid,
                        Bit::from(pid % 2 == 0),
                        rng(seed * 50 + pid as u64),
                    )
                })
                .collect();
            let mut sched = rng(seed + 999);
            let mut outs: Vec<Option<Bit>> = vec![None; n];
            while outs.iter().any(|o| o.is_none()) {
                let live: Vec<usize> = (0..n).filter(|&i| outs[i].is_none()).collect();
                let pick = live[sched.random_range(0..live.len())];
                match procs[pick].status() {
                    SubStatus::Done(b) => outs[pick] = Some(b),
                    SubStatus::Pending(op) => {
                        let res = mem.exec(op);
                        procs[pick].advance(res);
                    }
                }
            }
            let outs: Vec<Bit> = outs.into_iter().map(|o| o.unwrap()).collect();
            if outs.iter().all(|&b| b == outs[0]) {
                agreements += 1;
            }
        }
        assert!(
            agreements * 4 > trials,
            "agreement rate too low: {agreements}/{trials}"
        );
    }

    #[test]
    fn late_rival_takes_the_coin() {
        let (mut mem, layout) = setup(2);
        let mut first = Conciliator::new(layout, 1, 0, Bit::Zero, rng(0));
        assert_eq!(drive(&mut first, &mut mem), Bit::Zero);
        let mut late = Conciliator::new(layout, 1, 1, Bit::One, rng(1));
        let _ = drive(&mut late, &mut mem);
        assert!(
            late.rng.is_none(),
            "late rival must fall through to the coin"
        );
    }

    #[test]
    #[should_panic(expected = "finished conciliator")]
    fn advance_after_done_panics() {
        let (mut mem, layout) = setup(1);
        let mut c = Conciliator::new(layout, 1, 0, Bit::Zero, rng(0));
        drive(&mut c, &mut mem);
        c.advance(None);
    }
}
