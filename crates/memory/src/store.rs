//! The pluggable word-store interface: [`MemStore`].
//!
//! The paper's model is "arrays of atomic read/write bits" accessed
//! through an interleaving schedule. Everything above this crate —
//! protocol step machines, the discrete-event drivers, the `Sim`
//! builder — talks to that memory through `MemStore`, so the *plane*
//! the words live on is swappable:
//!
//! | Backend | Module | Plane |
//! |---------|--------|-------|
//! | [`crate::SimMemory`] | [`crate::sim`] | growable flat array, lazy zeroing (the default) |
//! | [`crate::FaultyMemory<M>`] | [`crate::faulty`] | any backend, wrapped with deterministic seeded value faults |
//!
//! Drivers are **generic** (monomorphized) over `M: MemStore`, never
//! `dyn`, so the per-event read/write on the engine's hot path compiles
//! down to the backend's concrete code. With faults disabled, the
//! wrapper is observationally identical to its inner store: same reads,
//! same operation counts, bit-for-bit identical run reports (pinned by
//! the engine's equivalence suites).

use std::fmt;

use crate::layout::Region;
use crate::types::{Addr, Op, Word};

/// A flat, conceptually unbounded, zero-initialised space of atomic
/// read/write registers under interleaving semantics.
///
/// # Contract
///
/// * Reads of never-written addresses return `0` (the paper's arrays
///   are "initialized to zero").
/// * [`MemStore::read`] / [`MemStore::write`] / [`MemStore::exec`] each
///   count one operation toward [`MemStore::ops_executed`];
///   [`MemStore::peek`] does not.
/// * [`MemStore::alloc`] hands out disjoint [`Region`]s (a bump
///   allocator over the address space).
/// * [`MemStore::reset`] returns the store to its pristine observable
///   state — all registers read `0`, no regions allocated, operation
///   counter cleared, fault injection (if any) disarmed — while keeping
///   backing allocations for reuse. The shipped implementations do this
///   by `fill(0)`-ing the used storage **in place** (keeping the
///   vector's length), which measures ~2x faster than the
///   clear-then-regrow alternative on trial-sweep workloads (see
///   `BENCH_engine.json`'s `reset_fill_vs_clear` record); consequently
///   [`MemStore::footprint_words`] is a high-water mark that persists
///   across resets.
/// * Faithful stores return exactly the last value written to each
///   address. Fault-injecting stores ([`crate::FaultyMemory`]) may
///   deviate *deterministically* after [`MemStore::reseed`] arms them —
///   but with faults disarmed every implementation must be
///   observationally identical to [`crate::SimMemory`].
///
/// The supertraits are what the engine's sweep layer needs: `Clone` to
/// stamp per-worker stores from one prototype, `Send + Sync` to share
/// that prototype across scoped worker threads.
pub trait MemStore: fmt::Debug + Clone + Send + Sync {
    /// Atomically reads the register at `addr`, counting one operation.
    fn read(&mut self, addr: Addr) -> Word;

    /// Atomically writes `value` to the register at `addr`, counting
    /// one operation.
    fn write(&mut self, addr: Addr, value: Word);

    /// Executes one operation under interleaving semantics, returning
    /// the value read (for reads) or `None` (for writes).
    #[inline]
    fn exec(&mut self, op: Op) -> Option<Word> {
        match op {
            Op::Read(addr) => Some(self.read(addr)),
            Op::Write(addr, value) => {
                self.write(addr, value);
                None
            }
        }
    }

    /// Reserves a fresh region of `len` registers, disjoint from every
    /// region handed out since the last [`MemStore::reset`].
    fn alloc(&mut self, len: usize) -> Region;

    /// Returns the store to its pristine observable state (see the
    /// trait-level contract), keeping backing allocations.
    fn reset(&mut self);

    /// Re-derives any internal stochastic streams (fault injection)
    /// from `seed` and arms them for the coming run. A no-op for
    /// faithful stores.
    ///
    /// Drivers call this once per trial, *after* instance setup
    /// (layouts installed, sentinels written) and before the first
    /// protocol operation, so initial state is never faulted and the
    /// fault stream is a pure function of the trial seed.
    #[inline]
    fn reseed(&mut self, seed: u64) {
        let _ = seed;
    }

    /// Total operations executed since the last [`MemStore::reset`]
    /// (reads + writes, including dropped faulty writes).
    fn ops_executed(&self) -> u64;

    /// The current value at `addr` **without** counting an operation
    /// and **without** fault injection — the true stored word, for
    /// assertions and metrics only.
    fn peek(&self, addr: Addr) -> Word;

    /// Number of registers with backing storage — the high-water mark
    /// of the space the executions actually consumed (persists across
    /// [`MemStore::reset`], by the in-place-zeroing contract).
    fn footprint_words(&self) -> usize;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FaultyMemory, SimMemory};

    fn exercise<M: MemStore>(mut mem: M) {
        assert_eq!(mem.read(Addr::new(1000)), 0);
        mem.write(Addr::new(3), 7);
        assert_eq!(mem.exec(Op::Read(Addr::new(3))), Some(7));
        assert_eq!(mem.exec(Op::Write(Addr::new(3), 9)), None);
        assert_eq!(mem.read(Addr::new(3)), 9);
        assert_eq!(mem.peek(Addr::new(3)), 9);
        assert_eq!(mem.ops_executed(), 5);
        let r1 = mem.alloc(4);
        let r2 = mem.alloc(4);
        assert_eq!(r1.base().plus(4), r2.base());
        mem.reset();
        assert_eq!(mem.ops_executed(), 0);
        assert_eq!(mem.read(Addr::new(3)), 0);
        assert_eq!(mem.alloc(4).base(), r1.base());
    }

    #[test]
    fn every_backend_satisfies_the_generic_contract() {
        exercise(SimMemory::new());
        exercise(FaultyMemory::pass_through(SimMemory::new()));
    }
}
