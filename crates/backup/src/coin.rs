//! The random-walk shared coin (Aspnes '93 flavour).
//!
//! Each process repeatedly: scans all `n` per-process vote counters; if
//! the observed sum has crossed `+T` it outputs 1, below `-T` it outputs
//! 0; otherwise it flips a local ±1 coin, adds the flip to its own
//! counter, and rescans. `T = 3n`.
//!
//! Properties (with adversarial scheduling):
//!
//! * **Termination w.p. 1** — the sum performs an unbiased random walk
//!   driven by whichever processes are still voting; any absorbing
//!   barrier at finite distance is hit almost surely.
//! * **Polynomial work** — the walk needs `O(T²) = O(n²)` net flips in
//!   expectation; each flip costs a scan (`n` reads) plus one write,
//!   giving `O(n³)` expected total operations. This matches the
//!   polynomial-work contract the §8 construction demands (the paper's
//!   cited backup is `O(n⁴)`).
//! * **Constant agreement probability** — once the sum reaches `±3n`, a
//!   process scanning later can only observe a different *sign* after the
//!   walk travels `Ω(n)` further; standard martingale bounds give a
//!   constant probability `δ` that every process sees the same sign.
//!   The experiments measure the coin's cost empirically (the lockstep
//!   columns of E6 and E10, where only the shared coin ends a run)
//!   rather than re-deriving the constant.
//!
//! The counters are fixed in number (`n` per round slot) and 64-bit wide;
//! see the crate docs for the bounded-space caveat versus Aspnes '93.

use rand::rngs::SmallRng;
use rand::RngExt;

use nc_memory::{Bit, Op, Word};

use crate::adopt::SubStatus;
use crate::layout::{decode_counter, encode_counter, BackupLayout};

#[derive(Clone, Debug, PartialEq, Eq)]
enum Phase {
    /// Scanning counters; `next` is the index about to be read, `sum`
    /// the partial sum of counters `0..next`.
    Scan {
        next: usize,
        sum: i64,
    },
    /// Writing the new value of our own counter.
    WriteVote {
        new_value: i64,
    },
    Done(Bit),
}

/// One process's participation in one round's shared coin.
#[derive(Clone, Debug)]
pub(crate) struct SharedCoin {
    layout: BackupLayout,
    round: usize,
    pid: usize,
    /// Local cache of our own counter (we are its only writer).
    my_votes: i64,
    phase: Phase,
    rng: SmallRng,
}

impl SharedCoin {
    /// Starts coin participation for process `pid` in `round`.
    ///
    /// `my_votes` must be this process's current counter value for the
    /// round (0 unless resuming, which the protocol never does — each
    /// process joins each round's coin at most once).
    pub(crate) fn new(layout: BackupLayout, round: usize, pid: usize, rng: SmallRng) -> Self {
        SharedCoin {
            layout,
            round,
            pid,
            my_votes: 0,
            phase: Phase::Scan { next: 0, sum: 0 },
            rng,
        }
    }

    /// The machine's pending operation or outcome.
    pub(crate) fn status(&self) -> SubStatus<Bit> {
        match &self.phase {
            Phase::Scan { next, .. } => {
                SubStatus::Pending(Op::Read(self.layout.counter(self.round, *next)))
            }
            Phase::WriteVote { new_value } => SubStatus::Pending(Op::Write(
                self.layout.counter(self.round, self.pid),
                encode_counter(*new_value),
            )),
            Phase::Done(b) => SubStatus::Done(*b),
        }
    }

    /// Delivers the pending operation's result.
    ///
    /// # Panics
    ///
    /// Panics if the machine is done or the result shape mismatches.
    pub(crate) fn advance(&mut self, read_value: Option<Word>) {
        let n = self.layout.n();
        let threshold = self.layout.coin_threshold();
        match self.phase.clone() {
            Phase::Scan { next, sum } => {
                let v = decode_counter(read_value.expect("scan read needs a value"));
                let sum = sum + v;
                if next + 1 < n {
                    self.phase = Phase::Scan {
                        next: next + 1,
                        sum,
                    };
                } else if sum >= threshold {
                    self.phase = Phase::Done(Bit::One);
                } else if sum <= -threshold {
                    self.phase = Phase::Done(Bit::Zero);
                } else {
                    let flip: i64 = if self.rng.random::<bool>() { 1 } else { -1 };
                    self.phase = Phase::WriteVote {
                        new_value: self.my_votes + flip,
                    };
                }
            }
            Phase::WriteVote { new_value } => {
                assert!(read_value.is_none(), "vote write takes no result");
                self.my_votes = new_value;
                self.phase = Phase::Scan { next: 0, sum: 0 };
            }
            Phase::Done(_) => panic!("advance called on a finished coin"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nc_memory::SimMemory;
    use rand::SeedableRng;

    fn rng(seed: u64) -> SmallRng {
        SmallRng::seed_from_u64(seed)
    }

    fn setup(n: usize) -> (SimMemory, BackupLayout) {
        let mut mem = SimMemory::new();
        let region = mem.alloc(BackupLayout::words_needed(n, 2));
        (mem, BackupLayout::new(region, n, 2))
    }

    fn drive(coin: &mut SharedCoin, mem: &mut SimMemory, cap: u64) -> Bit {
        for _ in 0..cap {
            match coin.status() {
                SubStatus::Done(b) => return b,
                SubStatus::Pending(op) => coin.advance(mem.exec(op)),
            }
        }
        panic!("coin did not terminate within {cap} ops");
    }

    #[test]
    fn solo_coin_terminates_with_valid_output() {
        for seed in 0..10 {
            let (mut mem, layout) = setup(1);
            let mut c = SharedCoin::new(layout, 1, 0, rng(seed));
            let out = drive(&mut c, &mut mem, 1_000_000);
            assert!(out == Bit::Zero || out == Bit::One);
            // Solo, the sum is its own counter: at least T votes cast.
            assert!(c.my_votes.abs() >= layout.coin_threshold());
        }
    }

    #[test]
    fn prefilled_counters_force_the_outcome() {
        let (mut mem, layout) = setup(3);
        // Pre-load the counters past +T: first scan must output One with
        // zero flips.
        for pid in 0..3 {
            mem.write(layout.counter(1, pid), encode_counter(3));
        }
        let mut c = SharedCoin::new(layout, 1, 0, rng(0));
        assert_eq!(drive(&mut c, &mut mem, 100), Bit::One);
        assert_eq!(c.my_votes, 0);

        for pid in 0..3 {
            mem.write(layout.counter(2, pid), encode_counter(-3));
        }
        let mut c = SharedCoin::new(layout, 2, 0, rng(0));
        assert_eq!(drive(&mut c, &mut mem, 100), Bit::Zero);
    }

    #[test]
    fn both_outcomes_occur_across_seeds() {
        let mut seen = std::collections::HashSet::new();
        for seed in 0..40 {
            let (mut mem, layout) = setup(1);
            let mut c = SharedCoin::new(layout, 1, 0, rng(seed));
            seen.insert(drive(&mut c, &mut mem, 1_000_000));
        }
        assert_eq!(seen.len(), 2, "coin is stuck on one outcome");
    }

    #[test]
    fn concurrent_coiners_agree_with_high_probability() {
        // Random interleaving of 4 coiners; measure the all-agree rate.
        // The theory promises a constant delta; empirically (random
        // schedule) it is near 1. Use a generous assertion to stay
        // deterministic across PRNG detail changes.
        use rand::RngExt as _;
        let n = 4;
        let trials = 50;
        let mut agreements = 0;
        for seed in 0..trials {
            let (mut mem, layout) = setup(n);
            let mut coins: Vec<SharedCoin> = (0..n)
                .map(|pid| SharedCoin::new(layout, 1, pid, rng(seed * 100 + pid as u64)))
                .collect();
            let mut sched = rng(seed + 5000);
            let mut outs: Vec<Option<Bit>> = vec![None; n];
            for _ in 0..5_000_000u64 {
                let live: Vec<usize> = (0..n).filter(|&i| outs[i].is_none()).collect();
                if live.is_empty() {
                    break;
                }
                let pick = live[sched.random_range(0..live.len())];
                match coins[pick].status() {
                    SubStatus::Done(b) => outs[pick] = Some(b),
                    SubStatus::Pending(op) => {
                        let res = mem.exec(op);
                        coins[pick].advance(res);
                    }
                }
            }
            let outs: Vec<Bit> = outs.into_iter().map(|o| o.unwrap()).collect();
            if outs.iter().all(|&b| b == outs[0]) {
                agreements += 1;
            }
        }
        assert!(
            agreements * 2 > trials,
            "agreement rate too low: {agreements}/{trials}"
        );
    }

    #[test]
    fn work_scales_polynomially() {
        // A solo coiner needs ~T² flips, each costing n+1 ops. Check the
        // op count stays within a generous polynomial envelope.
        let (mut mem, layout) = setup(2);
        let mut c = SharedCoin::new(layout, 1, 0, rng(42));
        let before = mem.ops_executed();
        drive(&mut c, &mut mem, 10_000_000);
        let ops = mem.ops_executed() - before;
        let t = layout.coin_threshold() as u64; // 6
        assert!(ops < 1000 * t * t * 3, "coin used {ops} ops");
    }

    #[test]
    #[should_panic(expected = "finished coin")]
    fn advance_after_done_panics() {
        let (mut mem, layout) = setup(1);
        let mut c = SharedCoin::new(layout, 1, 0, rng(1));
        drive(&mut c, &mut mem, 1_000_000);
        c.advance(None);
    }
}
