//! Simulated shared memory for the discrete-event engine.
//!
//! The paper's model (§3) is an interleaving model: operations happen in a
//! global sequence and each read returns the last previous write to the
//! same location. Because the engine executes one operation at a time,
//! the simulated memory can be a plain growable array of words with no
//! interior synchronisation — atomicity is a property of the engine's
//! serial execution, which the [`crate::history`] checker can verify after
//! the fact.
//!
//! `SimMemory` is the only word store, and value faults ([`FaultSpec`])
//! are an optional plane inside it. The plane is off by default, given
//! once with [`SimMemory::set_faults`], armed per trial with
//! [`SimMemory::arm_faults`] after the setup writes, and disarmed by
//! [`SimMemory::reset`]. A fault-free access pays one predictable
//! branch on the armed flag.

use crate::faulty::{FaultPlane, FaultSpec};
use crate::layout::Region;
use crate::types::{Addr, Op, Word};

/// A growable, zero-initialised flat address space of atomic registers.
///
/// * Reads of never-written addresses return `0`, matching the paper's
///   "arrays of atomic read/write bits, each initialized to zero".
/// * Writes extend the backing storage on demand, so the address space is
///   conceptually unbounded (the paper's infinite arrays).
/// * [`SimMemory::alloc`] hands out disjoint [`Region`]s so several
///   protocol instances (e.g. lean-consensus plus its §8 backup) can share
///   one memory without address collisions.
/// * Armed value faults ([`SimMemory::set_faults`]) may make reads and
///   writes deviate from the stored words, deterministically per arming
///   seed; [`SimMemory::peek`] always returns the stored word.
///
/// # Example
///
/// ```
/// use nc_memory::{Addr, Op, SimMemory};
///
/// let mut mem = SimMemory::new();
/// assert_eq!(mem.read(Addr::new(1_000_000)), 0); // untouched => 0
/// mem.write(Addr::new(3), 7);
/// assert_eq!(mem.exec(Op::Read(Addr::new(3))), Some(7));
/// assert_eq!(mem.exec(Op::Write(Addr::new(3), 9)), None);
/// assert_eq!(mem.read(Addr::new(3)), 9);
/// ```
#[derive(Clone, Debug, Default)]
pub struct SimMemory {
    words: Vec<Word>,
    next_region: usize,
    ops_executed: u64,
    /// Whether `faults` applies to accesses: set by
    /// [`SimMemory::arm_faults`], cleared by [`SimMemory::reset`], so
    /// setup writes (sentinels, layouts) are never faulted.
    armed: bool,
    faults: Option<Box<FaultPlane>>,
}

impl SimMemory {
    /// Creates an empty memory. All addresses read as `0`.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a memory with backing storage preallocated for `words`
    /// registers (an optimisation only; the address space is still
    /// unbounded).
    pub fn with_capacity(words: usize) -> Self {
        SimMemory {
            words: Vec::with_capacity(words),
            ..Self::default()
        }
    }

    /// Returns the memory to its pristine observable state — all
    /// registers read zero, no regions allocated, operation and fault
    /// counters cleared, value faults disarmed (the spec stays) — while
    /// keeping the backing storage, so trial sweeps can reuse one memory
    /// without reallocating.
    ///
    /// Zeroing happens **in place** (`fill(0)` over the used storage,
    /// keeping `len`), so the next trial's writes never re-enter the
    /// grow branch; a consequence is that
    /// [`SimMemory::footprint_words`] persists across resets as a
    /// high-water mark.
    pub fn reset(&mut self) {
        self.words.fill(0);
        self.next_region = 0;
        self.ops_executed = 0;
        self.armed = false;
    }

    /// Gives this memory the value faults of `spec`, replacing any
    /// earlier spec. The faults stay disarmed until
    /// [`SimMemory::arm_faults`].
    pub fn set_faults(&mut self, spec: FaultSpec) {
        self.faults = Some(Box::new(FaultPlane::new(spec)));
        self.armed = false;
    }

    /// Arms the value faults for the coming run, deriving their stream
    /// from `seed`. Call it
    /// after the setup writes, so initial state is never faulted. A
    /// no-op on a memory without a spec.
    pub fn arm_faults(&mut self, seed: u64) {
        if let Some(faults) = &mut self.faults {
            faults.arm(seed);
            self.armed = true;
        }
    }

    /// Reserves a fresh region of `len` registers, disjoint from every
    /// region handed out before.
    ///
    /// Allocation is a bump allocator over the flat address space; it does
    /// not touch backing storage (registers stay zero until written).
    pub fn alloc(&mut self, len: usize) -> Region {
        let region = Region::new(Addr::new(self.next_region), len);
        self.next_region = self
            .next_region
            .checked_add(len)
            .expect("simulated address space exhausted");
        region
    }

    /// Atomically reads the register at `addr`, counting one operation.
    #[inline]
    pub fn read(&mut self, addr: Addr) -> Word {
        self.ops_executed += 1;
        let word = self.peek(addr);
        if self.armed {
            return self.faulted_read(addr, word);
        }
        word
    }

    /// Atomically writes `value` to the register at `addr`, counting one
    /// operation and growing the backing storage if needed. A write lost
    /// to an armed fault still counts, but never grows the storage.
    #[inline]
    pub fn write(&mut self, addr: Addr, value: Word) {
        self.ops_executed += 1;
        if self.armed && self.loses_write(addr) {
            return;
        }
        let idx = addr.offset();
        if idx >= self.words.len() {
            // Grow geometrically so long races don't reallocate per round.
            let new_len = (idx + 1).max(self.words.len() * 2).max(16);
            self.words.resize(new_len, 0);
        }
        self.words[idx] = value;
    }

    // The fault paths stay out of line: only armed runs reach them, so
    // the fault-free access keeps its one branch on `armed`.
    #[cold]
    fn faulted_read(&mut self, addr: Addr, word: Word) -> Word {
        self.faults
            .as_mut()
            .map_or(word, |faults| faults.read(addr, word))
    }

    #[cold]
    fn loses_write(&mut self, addr: Addr) -> bool {
        self.faults
            .as_mut()
            .is_some_and(|faults| faults.loses_write(addr))
    }

    /// Executes one operation under interleaving semantics, returning the
    /// value read (for reads) or `None` (for writes).
    #[inline]
    pub fn exec(&mut self, op: Op) -> Option<Word> {
        match op {
            Op::Read(addr) => Some(self.read(addr)),
            Op::Write(addr, value) => {
                self.write(addr, value);
                None
            }
        }
    }

    /// Returns the stored word at `addr` **without** counting it as an
    /// operation and without value faults. For assertions and metrics
    /// only — protocols must go through [`SimMemory::exec`].
    #[inline]
    pub fn peek(&self, addr: Addr) -> Word {
        self.words.get(addr.offset()).copied().unwrap_or(0)
    }

    /// Total number of operations executed so far (reads + writes).
    pub fn ops_executed(&self) -> u64 {
        self.ops_executed
    }

    /// Number of registers that currently have backing storage. This is
    /// the (geometrically padded) high-water mark of written addresses,
    /// i.e. the space the executions have consumed — it persists across
    /// [`SimMemory::reset`] by the in-place-zeroing contract.
    pub fn footprint_words(&self) -> usize {
        self.words.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Bit;
    use proptest::prelude::*;

    /// The store contract: zero-initialised, every read/write/exec
    /// counts one operation (peek does not), disjoint regions, and a
    /// reset back to the pristine state.
    fn exercise(mut mem: SimMemory) {
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
    fn plain_and_armed_stores_meet_the_contract() {
        exercise(SimMemory::new());
        let mut armed = SimMemory::new();
        armed.set_faults(FaultSpec::new());
        armed.arm_faults(7);
        exercise(armed);
    }

    #[test]
    fn fresh_memory_reads_zero_everywhere() {
        let mut mem = SimMemory::new();
        for off in [0usize, 1, 17, 1 << 20] {
            assert_eq!(mem.read(Addr::new(off)), 0);
        }
        // Reads never allocate backing storage.
        assert_eq!(mem.footprint_words(), 0);
    }

    #[test]
    fn write_then_read_roundtrips() {
        let mut mem = SimMemory::new();
        mem.write(Addr::new(5), 99);
        assert_eq!(mem.read(Addr::new(5)), 99);
        assert_eq!(mem.read(Addr::new(4)), 0);
        assert_eq!(mem.read(Addr::new(6)), 0);
    }

    #[test]
    fn exec_read_returns_value_exec_write_returns_none() {
        let mut mem = SimMemory::new();
        assert_eq!(mem.exec(Op::Write(Addr::new(2), 11)), None);
        assert_eq!(mem.exec(Op::Read(Addr::new(2))), Some(11));
    }

    #[test]
    fn overwrite_keeps_latest_value() {
        let mut mem = SimMemory::new();
        mem.write(Addr::new(0), 1);
        mem.write(Addr::new(0), 2);
        mem.write(Addr::new(0), 3);
        assert_eq!(mem.read(Addr::new(0)), 3);
    }

    #[test]
    fn alloc_returns_disjoint_regions() {
        let mut mem = SimMemory::new();
        let r1 = mem.alloc(10);
        let r2 = mem.alloc(5);
        let r3 = mem.alloc(0);
        let r4 = mem.alloc(1);
        assert_eq!(r1.base(), Addr::new(0));
        assert_eq!(r2.base(), Addr::new(10));
        assert_eq!(r3.base(), Addr::new(15));
        assert_eq!(r4.base(), Addr::new(15));
        assert!(r1.contains(Addr::new(9)));
        assert!(!r1.contains(Addr::new(10)));
        assert!(r2.contains(Addr::new(10)));
    }

    #[test]
    fn ops_executed_counts_reads_and_writes() {
        let mut mem = SimMemory::new();
        mem.read(Addr::new(0));
        mem.write(Addr::new(0), 1);
        mem.exec(Op::Read(Addr::new(0)));
        assert_eq!(mem.ops_executed(), 3);
        // peek does not count
        assert_eq!(mem.peek(Addr::new(0)), 1);
        assert_eq!(mem.ops_executed(), 3);
    }

    #[test]
    fn footprint_tracks_high_water_mark() {
        let mut mem = SimMemory::new();
        mem.write(Addr::new(100), Bit::One.word());
        assert!(mem.footprint_words() >= 101);
    }

    #[test]
    fn reset_restores_pristine_state_keeping_capacity() {
        let mut mem = SimMemory::new();
        let r = mem.alloc(8);
        mem.write(Addr::new(3), 77);
        mem.write(Addr::new(100), 5);
        let cap_before = mem.words.capacity();
        let footprint_before = mem.footprint_words();
        mem.reset();
        assert_eq!(mem.ops_executed(), 0);
        // In-place zeroing keeps the storage: the footprint persists as
        // a high-water mark, but every register reads zero again.
        assert_eq!(mem.footprint_words(), footprint_before);
        assert_eq!(mem.read(Addr::new(3)), 0);
        assert_eq!(mem.read(Addr::new(100)), 0);
        // Regions start over from the base.
        let r2 = mem.alloc(8);
        assert_eq!(r2.base(), r.base());
        // Writes after reset see zeroed storage, not stale values.
        mem.write(Addr::new(50), 1);
        assert_eq!(mem.read(Addr::new(3)), 0);
        assert!(mem.words.capacity() >= cap_before.min(101));
    }

    #[test]
    fn with_capacity_preallocates_but_reads_zero() {
        let mut mem = SimMemory::with_capacity(64);
        assert_eq!(mem.read(Addr::new(10)), 0);
    }

    proptest! {
        /// Register semantics: after any sequence of writes, each address
        /// holds the last value written to it.
        #[test]
        fn last_write_wins(writes in proptest::collection::vec((0usize..64, any::<u64>()), 0..200)) {
            let mut mem = SimMemory::new();
            let mut model = std::collections::HashMap::new();
            for (off, val) in &writes {
                mem.write(Addr::new(*off), *val);
                model.insert(*off, *val);
            }
            for off in 0usize..64 {
                let expect = model.get(&off).copied().unwrap_or(0);
                prop_assert_eq!(mem.read(Addr::new(off)), expect);
            }
        }

        /// Allocation never hands out overlapping regions.
        #[test]
        fn alloc_disjoint(lens in proptest::collection::vec(0usize..100, 1..20)) {
            let mut mem = SimMemory::new();
            let regions: Vec<_> = lens.iter().map(|&l| mem.alloc(l)).collect();
            for (i, a) in regions.iter().enumerate() {
                for b in regions.iter().skip(i + 1) {
                    let a_end = a.base().offset() + a.len();
                    let b_start = b.base().offset();
                    prop_assert!(a_end <= b_start);
                }
            }
        }
    }
}
