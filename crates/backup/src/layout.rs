//! Register layout of the backup protocol.
//!
//! Per round slot the protocol needs:
//!
//! * adopt-commit: `present[2]` and `committed[2]` flags — 4 registers;
//! * conciliator: `seen[2]` flags — 2 registers;
//! * shared coin: one `±1`-vote counter per process — `n` registers.
//!
//! Rounds are mapped onto a fixed pool of `rounds` slots cyclically
//! (`slot = (round - 1) % rounds`), which is what makes the whole
//! protocol's footprint a constant `rounds × (6 + n)` registers.

use nc_memory::{Addr, Bit, Region, Word};

/// Registers per round slot, excluding the per-process coin counters.
const FIXED_PER_ROUND: usize = 6;

/// Address layout for a [`crate::BackupConsensus`] instance group.
///
/// All processes of one execution must share one `BackupLayout`; the
/// region it wraps must not overlap any other protocol's region.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct BackupLayout {
    base: Addr,
    n: usize,
    rounds: usize,
}

impl BackupLayout {
    /// Creates a layout for `n` processes and a pool of `rounds` round
    /// slots inside `region`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`, `rounds == 0`, or the region is smaller than
    /// [`BackupLayout::words_needed`]`(n, rounds)`.
    pub fn new(region: Region, n: usize, rounds: usize) -> Self {
        assert!(n > 0, "need at least one process");
        assert!(rounds > 0, "need at least one round slot");
        let needed = Self::words_needed(n, rounds);
        assert!(
            region.len() >= needed,
            "region has {} words, backup layout needs {needed}",
            region.len()
        );
        BackupLayout {
            base: region.base(),
            n,
            rounds,
        }
    }

    /// Registers required for `n` processes and `rounds` round slots.
    pub const fn words_needed(n: usize, rounds: usize) -> usize {
        rounds * (FIXED_PER_ROUND + n)
    }

    /// Number of processes this layout serves.
    pub(crate) const fn n(&self) -> usize {
        self.n
    }

    /// The random-walk exit threshold used by this instance's coins:
    /// `3n` (see [`crate::coin`]).
    pub(crate) const fn coin_threshold(&self) -> i64 {
        3 * self.n as i64
    }

    fn slot_base(&self, round: usize) -> Addr {
        debug_assert!(round >= 1, "protocol rounds are 1-based");
        let slot = (round - 1) % self.rounds;
        self.base.plus(slot * (FIXED_PER_ROUND + self.n))
    }

    /// Adopt-commit `present[v]` flag for `round`.
    pub(crate) fn present(&self, round: usize, v: Bit) -> Addr {
        self.slot_base(round).plus(v.index())
    }

    /// Adopt-commit `committed[v]` flag for `round`.
    pub(crate) fn committed(&self, round: usize, v: Bit) -> Addr {
        self.slot_base(round).plus(2 + v.index())
    }

    /// Conciliator `seen[v]` flag for `round`.
    pub(crate) fn seen(&self, round: usize, v: Bit) -> Addr {
        self.slot_base(round).plus(4 + v.index())
    }

    /// Coin counter of process `pid` for `round`.
    ///
    /// # Panics
    ///
    /// Panics if `pid >= n`.
    pub(crate) fn counter(&self, round: usize, pid: usize) -> Addr {
        assert!(pid < self.n, "pid {pid} out of range (n = {})", self.n);
        self.slot_base(round).plus(FIXED_PER_ROUND + pid)
    }
}

/// Encodes a signed coin-counter value into a register word
/// (two's-complement round trip).
pub(crate) fn encode_counter(value: i64) -> Word {
    value as Word
}

/// Decodes a register word back into a signed coin-counter value.
pub(crate) fn decode_counter(word: Word) -> i64 {
    word as i64
}

#[cfg(test)]
mod tests {
    use super::*;
    use nc_memory::SimMemory;
    use std::collections::HashSet;

    fn layout(n: usize, rounds: usize) -> BackupLayout {
        let mut mem = SimMemory::new();
        let region = mem.alloc(BackupLayout::words_needed(n, rounds));
        BackupLayout::new(region, n, rounds)
    }

    #[test]
    fn words_needed_counts_all_registers() {
        assert_eq!(BackupLayout::words_needed(1, 1), 7);
        assert_eq!(BackupLayout::words_needed(4, 8), 8 * 10);
    }

    #[test]
    fn addresses_within_one_round_are_distinct() {
        let l = layout(5, 4);
        let mut seen = HashSet::new();
        for r in 1..=4 {
            for v in Bit::BOTH {
                assert!(seen.insert(l.present(r, v)));
                assert!(seen.insert(l.committed(r, v)));
                assert!(seen.insert(l.seen(r, v)));
            }
            for pid in 0..5 {
                assert!(seen.insert(l.counter(r, pid)));
            }
        }
        assert_eq!(seen.len(), 4 * (6 + 5));
    }

    #[test]
    fn rounds_wrap_cyclically() {
        let l = layout(2, 3);
        assert_eq!(l.present(1, Bit::Zero), l.present(4, Bit::Zero));
        assert_eq!(l.counter(2, 1), l.counter(5, 1));
        assert_ne!(l.present(1, Bit::Zero), l.present(2, Bit::Zero));
    }

    #[test]
    fn accessors() {
        let l = layout(3, 2);
        assert_eq!(l.n(), 3);
        assert_eq!(l.rounds, 2);
        assert_eq!(l.coin_threshold(), 9);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn counter_pid_out_of_range_panics() {
        layout(2, 1).counter(1, 2);
    }

    #[test]
    #[should_panic(expected = "backup layout needs")]
    fn undersized_region_panics() {
        let mut mem = SimMemory::new();
        let region = mem.alloc(5);
        BackupLayout::new(region, 2, 2);
    }

    #[test]
    fn counter_encoding_roundtrips() {
        for v in [-1_000_000i64, -1, 0, 1, 42, i64::MAX, i64::MIN] {
            assert_eq!(decode_counter(encode_counter(v)), v);
        }
    }

    #[test]
    fn layout_addresses_stay_inside_region() {
        let n = 7;
        let rounds = 5;
        let mut mem = SimMemory::new();
        let _pad = mem.alloc(100); // non-zero base
        let region = mem.alloc(BackupLayout::words_needed(n, rounds));
        let l = BackupLayout::new(region, n, rounds);
        for r in 1..=20 {
            for v in Bit::BOTH {
                assert!(region.contains(l.present(r, v)));
                assert!(region.contains(l.committed(r, v)));
                assert!(region.contains(l.seen(r, v)));
            }
            for pid in 0..n {
                assert!(region.contains(l.counter(r, pid)));
            }
        }
    }
}
