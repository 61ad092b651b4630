//! Address-space layouts.
//!
//! The paper's lean-consensus uses two conceptually infinite arrays of
//! bits, `a0` and `a1`, prefixed with read-only sentinel cells
//! `a0[0] = a1[0] = 1`. [`RaceLayout`] interleaves the two arrays into a
//! single flat address space so that growth in the round number maps to
//! growth in one dimension — which is exactly what [`crate::sim::SimMemory`]
//! provides, and what the native runner's fixed flag array is sized by.
//!
//! [`Region`] is the currency of composition: the §8 bounded protocol runs
//! lean-consensus and a backup protocol side by side in one memory, each
//! inside its own region.

use crate::sim::SimMemory;
use crate::types::{Addr, Bit, Word};

/// A contiguous, exclusively-owned range of register addresses.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Region {
    base: Addr,
    len: usize,
}

impl Region {
    /// Creates a region starting at `base` covering `len` registers.
    pub(crate) const fn new(base: Addr, len: usize) -> Self {
        Region { base, len }
    }

    /// First address of the region.
    pub const fn base(self) -> Addr {
        self.base
    }

    /// Number of registers in the region.
    pub const fn len(self) -> usize {
        self.len
    }

    /// Whether the region is empty.
    pub const fn is_empty(self) -> bool {
        self.len == 0
    }

    /// Whether `addr` falls inside this region.
    pub fn contains(self, addr: Addr) -> bool {
        let o = addr.offset();
        o >= self.base.offset() && o < self.base.offset() + self.len
    }
}

/// Addressing scheme for the paper's racing bit arrays `a0`/`a1`.
///
/// Slot `(b, r)` — array `a_b`, round `r` — lives at address
/// `base + 2·r + b`. Interleaving by round keeps the address high-water
/// mark proportional to the largest round reached, so an execution that
/// terminates in round `R` touches only `O(R)` registers regardless of
/// which array "wins".
///
/// Round 0 holds the paper's sentinels: `a0[0] = a1[0] = 1`, written once
/// by [`RaceLayout::install_sentinels`] before the race starts and never
/// written again.
///
/// ```
/// use nc_memory::{Bit, RaceLayout};
/// let l = RaceLayout::at_base(100);
/// assert_eq!(l.slot(Bit::Zero, 0).offset(), 100);
/// assert_eq!(l.slot(Bit::One, 0).offset(), 101);
/// assert_eq!(l.slot(Bit::Zero, 3).offset(), 106);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub struct RaceLayout {
    base: Addr,
}

impl RaceLayout {
    /// A layout rooted at address offset `base`.
    pub const fn at_base(base: usize) -> Self {
        RaceLayout {
            base: Addr::new(base),
        }
    }

    /// A layout occupying the start of `region`.
    ///
    /// The region must have room for the sentinels plus at least one round
    /// (≥ 4 registers); rounds beyond `region.len() / 2 - 1` overflow the
    /// region and are the caller's responsibility to avoid (the bounded
    /// protocol of §8 enforces this with its `r_max` cutoff).
    ///
    /// # Panics
    ///
    /// Panics if the region has fewer than 4 registers.
    pub fn in_region(region: Region) -> Self {
        assert!(
            region.len() >= 4,
            "race layout needs at least 4 registers (sentinels + round 1), got {}",
            region.len()
        );
        RaceLayout {
            base: region.base(),
        }
    }

    /// Address of `a_b[round]`.
    pub fn slot(self, b: Bit, round: usize) -> Addr {
        self.base.plus(2 * round + b.index())
    }

    /// Number of registers needed to run rounds `0..=max_round`
    /// (sentinels included).
    pub const fn words_for_rounds(max_round: usize) -> usize {
        2 * (max_round + 1)
    }

    /// Writes the paper's read-only sentinels `a0[0] = a1[0] = 1`.
    ///
    /// This models initial state, not protocol steps; it runs before
    /// the trial's [`SimMemory::arm_faults`], so value faults never
    /// perturb it.
    pub fn install_sentinels(self, mem: &mut SimMemory) {
        let one: Word = Bit::One.word();
        mem.write(self.slot(Bit::Zero, 0), one);
        mem.write(self.slot(Bit::One, 0), one);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn region_accessors() {
        let r = Region::new(Addr::new(10), 4);
        assert_eq!(r.base(), Addr::new(10));
        assert_eq!(r.len(), 4);
        assert!(!r.is_empty());
        assert!(r.contains(Addr::new(10)) && r.contains(Addr::new(13)));
        assert!(!r.contains(Addr::new(9)) && !r.contains(Addr::new(14)));
        assert!(Region::new(Addr::new(0), 0).is_empty());
    }

    #[test]
    fn race_layout_interleaves_rounds() {
        let l = RaceLayout::at_base(0);
        assert_eq!(l.slot(Bit::Zero, 0).offset(), 0);
        assert_eq!(l.slot(Bit::One, 0).offset(), 1);
        assert_eq!(l.slot(Bit::Zero, 1).offset(), 2);
        assert_eq!(l.slot(Bit::One, 1).offset(), 3);
        assert_eq!(l.slot(Bit::One, 10).offset(), 21);
    }

    #[test]
    fn race_layout_slots_are_injective() {
        let l = RaceLayout::at_base(7);
        let mut seen = std::collections::HashSet::new();
        for r in 0..100 {
            for b in Bit::BOTH {
                assert!(
                    seen.insert(l.slot(b, r)),
                    "duplicate address for ({b}, {r})"
                );
            }
        }
    }

    #[test]
    fn words_for_rounds_matches_max_slot() {
        for max_round in 0..50 {
            let l = RaceLayout::at_base(0);
            let max_addr = l.slot(Bit::One, max_round).offset();
            assert_eq!(RaceLayout::words_for_rounds(max_round), max_addr + 1);
        }
    }

    #[test]
    fn sentinels_are_installed_once() {
        let mut mem = SimMemory::new();
        let l = RaceLayout::at_base(0);
        l.install_sentinels(&mut mem);
        assert_eq!(mem.peek(l.slot(Bit::Zero, 0)), 1);
        assert_eq!(mem.peek(l.slot(Bit::One, 0)), 1);
        assert_eq!(mem.peek(l.slot(Bit::Zero, 1)), 0);
        assert_eq!(mem.peek(l.slot(Bit::One, 1)), 0);
    }

    #[test]
    fn in_region_uses_region_base() {
        let region = Region::new(Addr::new(40), 8);
        let l = RaceLayout::in_region(region);
        assert_eq!(l.slot(Bit::Zero, 0), Addr::new(40));
        assert!(region.contains(l.slot(Bit::One, 3)));
    }

    #[test]
    #[should_panic(expected = "at least 4 registers")]
    fn in_region_too_small_panics() {
        RaceLayout::in_region(Region::new(Addr::new(0), 3));
    }

    proptest! {
        /// Distinct (bit, round) pairs map to distinct addresses and stay
        /// within the expected bound.
        #[test]
        fn slot_injective_and_bounded(base in 0usize..1000, rounds in 1usize..200) {
            let l = RaceLayout::at_base(base);
            let mut seen = std::collections::HashSet::new();
            for r in 0..rounds {
                for b in Bit::BOTH {
                    let a = l.slot(b, r);
                    prop_assert!(seen.insert(a));
                    prop_assert!(a.offset() < base + RaceLayout::words_for_rounds(rounds - 1));
                }
            }
        }
    }
}
