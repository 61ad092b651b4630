//! [`DenseRaceMemory`] — a preallocated, fixed-stride word store
//! specialized to the racing-arrays access pattern.
//!
//! [`crate::SimMemory`] starts empty and grows lazily, so a fresh trial
//! pays a handful of resize-and-zero steps exactly on the hot first
//! writes of every round, and every write carries the grow branch with
//! a live resize target behind it. `DenseRaceMemory` inverts the trade
//! for the execution core ROADMAP's cache refactor targets: the dense
//! prefix covering [`crate::RaceLayout`]'s per-round lanes (two words
//! per round, fixed stride 2) is allocated and zeroed **up front**, so
//! in the steady state of a trial sweep
//!
//! * reads and writes inside the prefix are a single always-hit bounds
//!   check and a direct indexed access — no `Option` unwrapping on
//!   reads, no reachable resize on writes, and a stable data pointer
//!   the optimizer can hoist across the engine's fused protocol step;
//! * [`DenseRaceMemory::reset`] zeroes only the touched prefix in place
//!   (the fill-in-place contract of [`MemStore::reset`]) and never
//!   releases or reallocates storage.
//!
//! Addresses beyond the prefix still work — the store grows
//! geometrically like `SimMemory`, so the §8 backup's regions and any
//! other layout remain fully supported; they just don't get the
//! prealloc benefit until touched once. Observable behavior is
//! identical to `SimMemory` in every case (pinned by this module's
//! differential proptests and the engine's equivalence matrices).

use crate::layout::Region;
use crate::store::MemStore;
use crate::types::{Addr, Word};

/// Rounds covered by the default preallocation: lean-consensus races
/// under the paper's noise models decide in `O(log n)` rounds, so 512
/// rounds (1026 words, 8 KiB) covers every realistic race with room to
/// spare while staying well inside L1+L2.
pub const DEFAULT_PREALLOC_ROUNDS: usize = 512;

/// A dense, preallocated flat address space of atomic registers.
///
/// Same observable semantics as [`crate::SimMemory`] (zero-initialised,
/// unbounded, last-write-wins, bump-allocated regions), different
/// storage policy: see the [module docs](self).
///
/// # Example
///
/// ```
/// use nc_memory::{Addr, DenseRaceMemory, MemStore, Op};
///
/// let mut mem = DenseRaceMemory::new();
/// assert_eq!(mem.read(Addr::new(1_000_000)), 0); // untouched => 0
/// mem.write(Addr::new(3), 7);
/// assert_eq!(mem.exec(Op::Read(Addr::new(3))), Some(7));
/// ```
#[derive(Clone, Debug)]
pub struct DenseRaceMemory {
    words: Vec<Word>,
    /// High-water mark of written addresses (max offset + 1) since the
    /// last reset — the prefix [`DenseRaceMemory::reset`] must re-zero.
    hi: usize,
    next_region: usize,
    ops_executed: u64,
}

impl DenseRaceMemory {
    /// A store preallocated for [`DEFAULT_PREALLOC_ROUNDS`] racing
    /// rounds.
    pub fn new() -> Self {
        Self::with_rounds(DEFAULT_PREALLOC_ROUNDS)
    }

    /// A store whose dense prefix covers rounds `0..=max_round` of a
    /// [`crate::RaceLayout`] at base 0 (i.e. `2 * (max_round + 1)`
    /// words). Addresses beyond the prefix grow on demand.
    pub fn with_rounds(max_round: usize) -> Self {
        DenseRaceMemory {
            words: vec![0; 2 * (max_round + 1)],
            hi: 0,
            next_region: 0,
            ops_executed: 0,
        }
    }

    /// Grows the backing storage to cover `idx`. Outlined so the write
    /// fast path stays a compare-and-store.
    #[cold]
    #[inline(never)]
    fn grow_to(&mut self, idx: usize) {
        let new_len = (idx + 1).max(self.words.len() * 2);
        self.words.resize(new_len, 0);
    }
}

impl Default for DenseRaceMemory {
    fn default() -> Self {
        Self::new()
    }
}

impl MemStore for DenseRaceMemory {
    #[inline]
    fn read(&mut self, addr: Addr) -> Word {
        self.ops_executed += 1;
        let idx = addr.offset();
        // Inside the dense prefix this is one predictable branch; the
        // out-of-prefix read (conceptually-unbounded semantics) never
        // allocates, matching `SimMemory`.
        if idx < self.words.len() {
            self.words[idx]
        } else {
            0
        }
    }

    #[inline]
    fn write(&mut self, addr: Addr, value: Word) {
        self.ops_executed += 1;
        let idx = addr.offset();
        if idx >= self.words.len() {
            self.grow_to(idx);
        }
        self.words[idx] = value;
        if idx >= self.hi {
            self.hi = idx + 1;
        }
    }

    fn alloc(&mut self, len: usize) -> Region {
        let region = Region::new(Addr::new(self.next_region), len);
        self.next_region = self
            .next_region
            .checked_add(len)
            .expect("simulated address space exhausted");
        region
    }

    fn reset(&mut self) {
        self.words[..self.hi].fill(0);
        self.hi = 0;
        self.next_region = 0;
        self.ops_executed = 0;
    }

    fn ops_executed(&self) -> u64 {
        self.ops_executed
    }

    fn peek(&self, addr: Addr) -> Word {
        self.words.get(addr.offset()).copied().unwrap_or(0)
    }

    fn footprint_words(&self) -> usize {
        self.hi
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::SimMemory;
    use crate::types::Op;
    use proptest::prelude::*;

    #[test]
    fn fresh_store_reads_zero_everywhere() {
        let mut mem = DenseRaceMemory::new();
        for off in [0usize, 1, 17, 1 << 20] {
            assert_eq!(mem.read(Addr::new(off)), 0);
        }
        // Reads never count as consumed footprint.
        assert_eq!(mem.footprint_words(), 0);
    }

    #[test]
    fn write_read_roundtrip_and_growth_beyond_prefix() {
        let mut mem = DenseRaceMemory::with_rounds(1); // 4-word prefix
        mem.write(Addr::new(2), 5);
        assert_eq!(mem.read(Addr::new(2)), 5);
        // Beyond the prefix: grows, zero-fills, round-trips.
        mem.write(Addr::new(100), 9);
        assert_eq!(mem.read(Addr::new(100)), 9);
        assert_eq!(mem.read(Addr::new(99)), 0);
        assert_eq!(mem.footprint_words(), 101);
    }

    #[test]
    fn reset_zeroes_used_prefix_and_restarts_regions() {
        let mut mem = DenseRaceMemory::new();
        let r = mem.alloc(8);
        mem.write(Addr::new(3), 77);
        mem.write(Addr::new(5000), 5); // beyond the prealloc
        mem.reset();
        assert_eq!(mem.ops_executed(), 0);
        assert_eq!(mem.footprint_words(), 0);
        assert_eq!(mem.read(Addr::new(3)), 0);
        assert_eq!(mem.read(Addr::new(5000)), 0);
        assert_eq!(mem.alloc(8).base(), r.base());
    }

    #[test]
    fn ops_counting_matches_contract() {
        let mut mem = DenseRaceMemory::new();
        mem.read(Addr::new(0));
        mem.write(Addr::new(0), 1);
        mem.exec(Op::Read(Addr::new(0)));
        assert_eq!(mem.ops_executed(), 3);
        assert_eq!(mem.peek(Addr::new(0)), 1);
        assert_eq!(mem.ops_executed(), 3, "peek must not count");
    }

    proptest! {
        /// Differential register semantics: any interleaved sequence of
        /// reads/writes/resets observes identical values and operation
        /// counts on `DenseRaceMemory` and `SimMemory`.
        #[test]
        fn behaves_exactly_like_sim_memory(
            ops in proptest::collection::vec((0u8..4, 0usize..2100, any::<u64>()), 0..300),
        ) {
            let mut dense = DenseRaceMemory::with_rounds(4); // tiny prefix: force growth
            let mut sim = SimMemory::new();
            for (kind, off, val) in ops {
                let addr = Addr::new(off);
                match kind {
                    0 => prop_assert_eq!(dense.read(addr), sim.read(addr)),
                    1 => {
                        dense.write(addr, val);
                        sim.write(addr, val);
                    }
                    2 => prop_assert_eq!(
                        MemStore::alloc(&mut dense, off % 64),
                        MemStore::alloc(&mut sim, off % 64)
                    ),
                    _ => {
                        MemStore::reset(&mut dense);
                        MemStore::reset(&mut sim);
                    }
                }
                prop_assert_eq!(MemStore::ops_executed(&dense), MemStore::ops_executed(&sim));
                prop_assert_eq!(MemStore::peek(&dense, addr), MemStore::peek(&sim, addr));
            }
        }
    }
}
