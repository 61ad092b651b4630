//! lean-consensus on real threads.
//!
//! The simulation substrate is for studying the model; this module is the
//! deployable artifact: wait-free binary consensus for up to thousands of
//! native threads over lock-free atomic arrays ([`nc_memory::SegArray`]).
//!
//! A real OS scheduler is, in the paper's terms, a noisy scheduler —
//! cache misses, interrupts, and preemptions supply the `X_ij`. The
//! Θ(log n) expectation therefore applies in practice, but because *no*
//! deterministic algorithm can guarantee termination under a worst-case
//! schedule (FLP), [`NativeConsensus::propose`] carries a round limit and
//! returns [`RoundLimitError`] instead of running unbounded — callers
//! wanting the §8 guarantee compose [`crate::BoundedLean`] with the
//! `nc-backup` protocol instead.

use std::error::Error;
use std::fmt;

use nc_memory::{Bit, Op, RaceLayout, SegArray};

use crate::lean::LeanConsensus;
use crate::protocol::{Protocol, Status};

/// Default round limit for native runs. Real schedulers decide races in
/// a handful of rounds (Θ(log n) expected); 4096 rounds is astronomically
/// beyond that while still bounding memory to 8 KiB of flags.
pub(crate) const DEFAULT_ROUND_LIMIT: usize = 4096;

/// The outcome of a successful native consensus.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Decision {
    /// The agreed value.
    pub value: Bit,
    /// The round in which this process decided.
    pub round: usize,
    /// Shared-memory operations this process performed.
    pub ops: u64,
}

impl fmt::Display for Decision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "decided {} at round {} after {} ops",
            self.value, self.round, self.ops
        )
    }
}

/// The round limit was reached before a decision.
///
/// This can only happen under schedules adversarial enough to keep the
/// race tied for the whole limit — astronomically unlikely under real
/// scheduling, but deterministically possible (FLP). The process's last
/// preference is reported so callers can fall back to a backup protocol
/// (the §8 construction).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RoundLimitError {
    /// The configured limit that was hit.
    pub limit: usize,
    /// The preference held when the limit was hit — the correct input for
    /// a backup protocol.
    pub preference: Bit,
}

impl fmt::Display for RoundLimitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "no decision within {} rounds (last preference {})",
            self.limit, self.preference
        )
    }
}

impl Error for RoundLimitError {}

/// A shared lean-consensus instance for native threads.
///
/// One `NativeConsensus` is one consensus *object*: any number of threads
/// may call [`NativeConsensus::propose`] concurrently (each thread at
/// most once) and all calls that return `Ok` return the same value.
///
/// # Example
///
/// ```
/// use nc_core::{Bit, NativeConsensus};
/// use std::sync::Arc;
///
/// let consensus = Arc::new(NativeConsensus::new());
/// let mut handles = Vec::new();
/// for i in 0..4u32 {
///     let c = Arc::clone(&consensus);
///     handles.push(std::thread::spawn(move || {
///         let input = if i % 2 == 0 { Bit::Zero } else { Bit::One };
///         c.propose(input).expect("round limit not reached").value
///     }));
/// }
/// let decisions: Vec<Bit> = handles.into_iter().map(|h| h.join().unwrap()).collect();
/// assert!(decisions.iter().all(|&d| d == decisions[0]));
/// ```
pub struct NativeConsensus {
    array: SegArray,
    layout: RaceLayout,
    round_limit: usize,
}

impl NativeConsensus {
    /// Creates a consensus object with the default round limit.
    pub fn new() -> Self {
        Self::with_round_limit(DEFAULT_ROUND_LIMIT)
    }

    /// Creates a consensus object that gives up (returns
    /// [`RoundLimitError`]) after `round_limit` rounds.
    ///
    /// # Panics
    ///
    /// Panics if `round_limit < 2`.
    pub(crate) fn with_round_limit(round_limit: usize) -> Self {
        assert!(round_limit >= 2, "round limit must be at least 2");
        let words = RaceLayout::words_for_rounds(round_limit + 1);
        let segments = words.div_ceil(nc_memory::atomic::SEGMENT_WORDS).max(1);
        let array = SegArray::with_max_segments(segments);
        let layout = RaceLayout::at_base(0);
        // Install the paper's sentinels a0[0] = a1[0] = 1.
        array.store(layout.slot(Bit::Zero, 0).offset(), 1);
        array.store(layout.slot(Bit::One, 0).offset(), 1);
        NativeConsensus {
            array,
            layout,
            round_limit,
        }
    }

    /// Proposes `input` and participates until decision.
    ///
    /// Wait-free apart from the bounded-memory cutoff: the calling thread
    /// performs at most `4 · round_limit` shared-memory operations
    /// regardless of what other threads do.
    ///
    /// # Errors
    ///
    /// Returns [`RoundLimitError`] if the round limit elapses without a
    /// decision (see the type's docs for when that can happen).
    pub fn propose(&self, input: Bit) -> Result<Decision, RoundLimitError> {
        let mut machine = LeanConsensus::new(self.layout, input);
        loop {
            match machine.status() {
                Status::Decided(value) => {
                    return Ok(Decision {
                        value,
                        round: machine.round(),
                        ops: machine.ops_completed(),
                    });
                }
                Status::Pending(op) => {
                    if machine.round() > self.round_limit {
                        return Err(RoundLimitError {
                            limit: self.round_limit,
                            preference: machine.preference(),
                        });
                    }
                    match op {
                        Op::Read(addr) => {
                            let v = self.array.load(addr.offset());
                            machine.advance(Some(v));
                        }
                        Op::Write(addr, value) => {
                            self.array.store(addr.offset(), value);
                            machine.advance(None);
                        }
                    }
                }
            }
        }
    }
}

impl Default for NativeConsensus {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for NativeConsensus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NativeConsensus")
            .field("round_limit", &self.round_limit)
            .field("array", &self.array)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solo_proposer_decides_own_input() {
        for input in Bit::BOTH {
            let c = NativeConsensus::new();
            let d = c.propose(input).unwrap();
            assert_eq!(d.value, input);
            assert_eq!(d.round, 2);
            assert_eq!(d.ops, 8);
        }
    }

    #[test]
    fn sequential_proposers_agree_with_first() {
        let c = NativeConsensus::new();
        let first = c.propose(Bit::One).unwrap();
        for input in [Bit::Zero, Bit::One, Bit::Zero] {
            let d = c.propose(input).unwrap();
            assert_eq!(d.value, first.value);
        }
    }

    #[test]
    fn concurrent_threads_agree() {
        for trial in 0..25 {
            let c = NativeConsensus::new();
            let decisions: Vec<Decision> = std::thread::scope(|s| {
                let handles: Vec<_> = (0..8)
                    .map(|i| {
                        let c = &c;
                        s.spawn(move || {
                            let input = Bit::from((i + trial) % 2 == 0);
                            c.propose(input).expect("round limit hit")
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            let v = decisions[0].value;
            assert!(
                decisions.iter().all(|d| d.value == v),
                "trial {trial}: disagreement: {decisions:?}"
            );
            // Lemma 4(b): decision rounds within one of each other.
            let lo = decisions.iter().map(|d| d.round).min().unwrap();
            let hi = decisions.iter().map(|d| d.round).max().unwrap();
            assert!(hi - lo <= 1, "trial {trial}: spread {lo}..{hi}");
        }
    }

    #[test]
    fn concurrent_unanimous_inputs_cost_8_ops() {
        let c = NativeConsensus::new();
        let decisions: Vec<Decision> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..6)
                .map(|_| {
                    let c = &c;
                    s.spawn(move || c.propose(Bit::One).unwrap())
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for d in decisions {
            assert_eq!(d.value, Bit::One);
            assert_eq!(d.ops, 8, "Lemma 3: unanimous inputs cost exactly 8 ops");
        }
    }

    #[test]
    fn display_and_debug() {
        let c = NativeConsensus::with_round_limit(16);
        assert_eq!(c.round_limit, 16);
        assert!(format!("{c:?}").contains("NativeConsensus"));
        let d = Decision {
            value: Bit::One,
            round: 2,
            ops: 8,
        };
        assert_eq!(d.to_string(), "decided 1 at round 2 after 8 ops");
        let e = RoundLimitError {
            limit: 16,
            preference: Bit::Zero,
        };
        assert!(e.to_string().contains("within 16 rounds"));
    }

    #[test]
    #[should_panic(expected = "round limit must be at least 2")]
    fn tiny_round_limit_panics() {
        NativeConsensus::with_round_limit(1);
    }
}
