//! [`FaultyMemory`] — deterministic, seeded value-fault injection over
//! any [`MemStore`].
//!
//! The paper's noise lives in the *schedule* (when operations happen);
//! related work puts it in the *values* instead: Fraigniaud–Natale's
//! noisy-communication model flips each transmitted bit with
//! probability ε, and Clementi et al. show such noise can make
//! consensus strictly easier. `FaultyMemory` is the instrument for
//! measuring where lean-consensus sits on that axis: a composable
//! wrapper that perturbs the **values** protocols observe while the
//! engine's schedule stays untouched, so every run remains a pure
//! function of its seed.
//!
//! Three fault families, all configured by a [`FaultSpec`]:
//!
//! * **stuck-at registers** — a chosen set of addresses reads as a
//!   fixed bit regardless of what was written (and absorbs writes), the
//!   classic stuck-at-zero/one hardware fault;
//! * **write drops** — each write is silently discarded with
//!   probability δ (a lossy store port / omitted message);
//! * **read bit-flips** — each read's low bit is flipped with
//!   probability ε (Fraigniaud–Natale's binary noisy channel; the
//!   racing arrays store bits, so flipping bit 0 is exactly their
//!   model).
//!
//! Determinism: faults draw from a private stream derived from the
//! trial seed via [`MemStore::reseed`] (the engine calls it once per
//! trial, after setup writes like sentinels — initial state is never
//! faulted). Same seed ⇒ byte-identical fault decisions, at any thread
//! count. Before `reseed` arms it — and always with an
//! empty spec — the wrapper is a transparent pass-through, pinned
//! observationally identical to its inner store by the engine's
//! equivalence suites.

use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

use crate::layout::Region;
use crate::store::MemStore;
use crate::types::{Addr, Bit, Word};

/// Salt folded into the trial seed for the fault stream, so it can
/// never collide with the engine's `(seed, pid, salt)` streams (which
/// use small salts and a different pre-mix).
const FAULT_STREAM_SALT: u64 = 0xFA_17_5E_ED_0B_AD_B1_75;

/// Salt for the seed handed down to a wrapped inner plane on
/// [`MemStore::reseed`], so stacked `FaultyMemory` layers derive
/// distinct, uncorrelated fault streams from one trial seed.
const NESTED_RESEED_SALT: u64 = 0x0DD5_7ACC_ED13_A7E5;

/// SplitMix64 finalizer (local copy: `nc-memory` sits below `nc-sched`
/// in the crate graph, so it cannot use `nc_sched::rng`).
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Declarative description of the value faults to inject.
///
/// The default spec injects nothing; build one with the chained
/// setters:
///
/// ```
/// use nc_memory::{Addr, Bit, FaultSpec};
///
/// let spec = FaultSpec::new()
///     .read_flip(0.01)              // ε: flip each read's low bit
///     .write_drop(0.005)            // δ: silently drop writes
///     .stuck_at(Addr::new(4), Bit::Zero); // a stuck-at-zero register
/// assert!(spec.any());
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultSpec {
    /// Probability ε that a read's low bit is flipped.
    pub read_flip: f64,
    /// Probability δ that a write is silently dropped.
    pub write_drop: f64,
    /// Registers stuck at a fixed bit: reads of these addresses return
    /// the stuck value, writes to them are absorbed.
    pub stuck: Vec<(Addr, Bit)>,
}

impl FaultSpec {
    /// A spec injecting no faults.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the read bit-flip rate ε (in `[0, 1]`).
    ///
    /// # Panics
    ///
    /// Panics if `epsilon` is not a probability.
    pub fn read_flip(mut self, epsilon: f64) -> Self {
        assert!((0.0..=1.0).contains(&epsilon), "ε must be in [0, 1]");
        self.read_flip = epsilon;
        self
    }

    /// Sets the write-drop rate δ (in `[0, 1]`).
    ///
    /// # Panics
    ///
    /// Panics if `delta` is not a probability.
    pub fn write_drop(mut self, delta: f64) -> Self {
        assert!((0.0..=1.0).contains(&delta), "δ must be in [0, 1]");
        self.write_drop = delta;
        self
    }

    /// Declares the register at `addr` stuck at `value`.
    pub fn stuck_at(mut self, addr: Addr, value: Bit) -> Self {
        self.stuck.push((addr, value));
        self
    }

    /// Whether this spec injects any fault at all.
    pub fn any(&self) -> bool {
        self.read_flip > 0.0 || self.write_drop > 0.0 || !self.stuck.is_empty()
    }
}

/// A [`MemStore`] wrapper injecting the deterministic value faults of a
/// [`FaultSpec`] into an inner store. See the [module docs](self).
#[derive(Clone, Debug)]
pub struct FaultyMemory<M> {
    inner: M,
    spec: FaultSpec,
    rng: SmallRng,
    /// Armed by [`MemStore::reseed`]; disarmed by [`MemStore::reset`].
    /// While disarmed the wrapper is a transparent pass-through, so
    /// setup writes (sentinels, layout installation) are never faulted.
    armed: bool,
    ops_executed: u64,
    /// Writes dropped and reads flipped since the last reseed, for
    /// experiment diagnostics.
    faults_injected: u64,
}

impl<M: MemStore> FaultyMemory<M> {
    /// Wraps `inner` with the faults of `spec` (armed per trial by
    /// [`MemStore::reseed`]).
    pub fn new(inner: M, spec: FaultSpec) -> Self {
        FaultyMemory {
            inner,
            spec,
            rng: SmallRng::seed_from_u64(0),
            armed: false,
            ops_executed: 0,
            faults_injected: 0,
        }
    }

    /// Wraps `inner` with an empty spec — observationally the identity,
    /// used by differential tests.
    pub fn pass_through(inner: M) -> Self {
        Self::new(inner, FaultSpec::new())
    }

    /// The fault specification this wrapper applies.
    pub fn spec(&self) -> &FaultSpec {
        &self.spec
    }

    /// The wrapped store.
    pub fn inner(&self) -> &M {
        &self.inner
    }

    /// Stochastic faults (dropped writes + flipped reads) injected
    /// since the last [`MemStore::reseed`]. Stuck-at masking is not
    /// counted (it is not an event — the register is simply broken).
    pub fn faults_injected(&self) -> u64 {
        self.faults_injected
    }

    /// The stuck value for `addr`, if that register is stuck. Last
    /// declaration wins, matching the setter order.
    #[inline]
    fn stuck_value(&self, addr: Addr) -> Option<Word> {
        self.spec
            .stuck
            .iter()
            .rev()
            .find(|(a, _)| *a == addr)
            .map(|(_, b)| b.word())
    }
}

impl<M: MemStore> MemStore for FaultyMemory<M> {
    #[inline]
    fn read(&mut self, addr: Addr) -> Word {
        self.ops_executed += 1;
        if self.armed {
            // A stuck register is broken hardware: its fixed bit short-
            // circuits both the underlying cell and the ε channel noise
            // (symmetric with the write path, which absorbs the write
            // before the δ draw).
            if let Some(stuck) = self.stuck_value(addr) {
                return stuck;
            }
        }
        // Delegate to the inner *read* (not peek) so stacked fault
        // planes apply their own read faults.
        let mut v = self.inner.read(addr);
        // Drawing only when ε > 0 keeps the stream aligned with the
        // spec (deterministic either way: the draw sequence is a pure
        // function of the executed op sequence and the spec).
        if self.armed && self.spec.read_flip > 0.0 && self.rng.random::<f64>() < self.spec.read_flip
        {
            v ^= 1;
            self.faults_injected += 1;
        }
        v
    }

    #[inline]
    fn write(&mut self, addr: Addr, value: Word) {
        self.ops_executed += 1;
        if self.armed {
            if self.stuck_value(addr).is_some() {
                return; // a stuck register absorbs the write
            }
            if self.spec.write_drop > 0.0 && self.rng.random::<f64>() < self.spec.write_drop {
                self.faults_injected += 1;
                return;
            }
        }
        self.inner.write(addr, value);
    }

    fn alloc(&mut self, len: usize) -> Region {
        self.inner.alloc(len)
    }

    fn reset(&mut self) {
        self.inner.reset();
        self.armed = false;
        self.ops_executed = 0;
        self.faults_injected = 0;
    }

    fn reseed(&mut self, seed: u64) {
        // Arm any wrapped fault plane first, on a salted seed of its
        // own, so stacked wrappers inject independent streams (a no-op
        // for faithful inner stores).
        self.inner.reseed(splitmix64(seed ^ NESTED_RESEED_SALT));
        self.rng = SmallRng::seed_from_u64(splitmix64(seed ^ FAULT_STREAM_SALT));
        self.armed = true;
        self.faults_injected = 0;
    }

    fn ops_executed(&self) -> u64 {
        self.ops_executed
    }

    fn peek(&self, addr: Addr) -> Word {
        // The true stored value: peek is a diagnostic view, so neither
        // stuck masking nor flips apply.
        self.inner.peek(addr)
    }

    fn footprint_words(&self) -> usize {
        self.inner.footprint_words()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::SimMemory;
    use crate::types::Op;

    #[test]
    fn disarmed_wrapper_is_transparent() {
        let mut faulty = FaultyMemory::new(
            SimMemory::new(),
            FaultSpec::new().read_flip(1.0).write_drop(1.0),
        );
        let mut plain = SimMemory::new();
        for i in 0..20usize {
            faulty.write(Addr::new(i % 7), i as Word);
            plain.write(Addr::new(i % 7), i as Word);
            assert_eq!(faulty.read(Addr::new(i % 5)), plain.read(Addr::new(i % 5)));
        }
        assert_eq!(
            MemStore::ops_executed(&faulty),
            MemStore::ops_executed(&plain)
        );
        assert_eq!(faulty.faults_injected(), 0);
    }

    #[test]
    fn empty_spec_is_transparent_even_when_armed() {
        let mut faulty = FaultyMemory::pass_through(SimMemory::new());
        faulty.reseed(42);
        let mut plain = SimMemory::new();
        for i in 0..50usize {
            faulty.write(Addr::new(i), 1);
            plain.write(Addr::new(i), 1);
            assert_eq!(faulty.read(Addr::new(i / 2)), plain.read(Addr::new(i / 2)));
        }
        assert_eq!(faulty.faults_injected(), 0);
    }

    #[test]
    fn stuck_registers_mask_reads_and_absorb_writes() {
        let spec = FaultSpec::new()
            .stuck_at(Addr::new(1), Bit::One)
            .stuck_at(Addr::new(2), Bit::Zero);
        let mut mem = FaultyMemory::new(SimMemory::new(), spec);
        // Before arming, writes land normally.
        mem.write(Addr::new(2), 9);
        mem.reseed(7);
        assert_eq!(mem.read(Addr::new(1)), 1, "stuck-at-one reads 1");
        assert_eq!(mem.read(Addr::new(2)), 0, "stuck-at-zero masks the 9");
        assert_eq!(mem.peek(Addr::new(2)), 9, "peek sees the true word");
        mem.write(Addr::new(1), 0); // absorbed
        assert_eq!(mem.peek(Addr::new(1)), 0, "absorbed write never lands");
        assert_eq!(mem.read(Addr::new(1)), 1);
    }

    #[test]
    fn stuck_registers_ignore_channel_noise() {
        // A stuck register is broken hardware, not a noisy channel: the
        // ε flip must never apply to it (only to faithful registers).
        let spec = FaultSpec::new()
            .stuck_at(Addr::new(1), Bit::One)
            .read_flip(1.0);
        let mut mem = FaultyMemory::new(SimMemory::new(), spec);
        mem.reseed(3);
        for _ in 0..8 {
            assert_eq!(mem.read(Addr::new(1)), 1, "stuck bit must not flip");
        }
        assert_eq!(mem.read(Addr::new(0)), 1, "ε = 1 flips non-stuck reads");
    }

    #[test]
    fn stacked_wrappers_arm_and_inject_independently() {
        // Composition: the inner plane drops every write, the outer
        // flips every read — one reseed must arm both layers.
        let inner = FaultyMemory::new(SimMemory::new(), FaultSpec::new().write_drop(1.0));
        let mut mem = FaultyMemory::new(inner, FaultSpec::new().read_flip(1.0));
        mem.reseed(5);
        mem.write(Addr::new(0), 1); // dropped by the inner plane
        assert_eq!(mem.peek(Addr::new(0)), 0, "inner wrapper must be armed");
        assert_eq!(mem.read(Addr::new(0)), 1, "outer flip applies on top");
    }

    #[test]
    fn certain_write_drop_loses_every_write() {
        let mut mem = FaultyMemory::new(SimMemory::new(), FaultSpec::new().write_drop(1.0));
        mem.reseed(1);
        mem.write(Addr::new(0), 5);
        assert_eq!(mem.read(Addr::new(0)), 0);
        assert_eq!(
            MemStore::ops_executed(&mem),
            2,
            "dropped writes still count"
        );
        assert_eq!(mem.faults_injected(), 1);
    }

    #[test]
    fn certain_read_flip_inverts_the_low_bit() {
        let mut mem = FaultyMemory::new(SimMemory::new(), FaultSpec::new().read_flip(1.0));
        mem.reseed(1);
        mem.write(Addr::new(0), 1);
        assert_eq!(mem.read(Addr::new(0)), 0);
        assert_eq!(mem.read(Addr::new(3)), 1, "flipped zero reads as one");
    }

    #[test]
    fn same_seed_same_fault_stream() {
        let run = |seed: u64| -> Vec<Word> {
            let mut mem = FaultyMemory::new(
                SimMemory::new(),
                FaultSpec::new().read_flip(0.3).write_drop(0.3),
            );
            mem.reseed(seed);
            let mut out = Vec::new();
            for i in 0..200usize {
                mem.write(Addr::new(i % 11), 1);
                out.push(mem.read(Addr::new(i % 13)));
            }
            out.push(mem.faults_injected());
            out
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10), "distinct seeds must vary the stream");
    }

    #[test]
    fn reset_disarms_and_clears_counters() {
        let mut mem = FaultyMemory::new(SimMemory::new(), FaultSpec::new().write_drop(1.0));
        mem.reseed(3);
        mem.write(Addr::new(0), 5); // dropped
        assert_eq!(mem.faults_injected(), 1);
        MemStore::reset(&mut mem);
        assert_eq!(mem.faults_injected(), 0);
        assert_eq!(MemStore::ops_executed(&mem), 0);
        mem.write(Addr::new(0), 5); // disarmed: lands
        assert_eq!(mem.exec(Op::Read(Addr::new(0))), Some(5));
    }

    #[test]
    fn spec_helpers() {
        assert!(!FaultSpec::new().any());
        assert!(FaultSpec::new().read_flip(0.1).any());
        assert!(FaultSpec::new().write_drop(0.1).any());
        assert!(FaultSpec::new().stuck_at(Addr::new(0), Bit::Zero).any());
        let mem = FaultyMemory::new(SimMemory::new(), FaultSpec::new().read_flip(0.5));
        assert_eq!(mem.spec().read_flip, 0.5);
        assert_eq!(mem.inner().footprint_words(), 0);
    }

    #[test]
    #[should_panic(expected = "ε must be in [0, 1]")]
    fn out_of_range_epsilon_panics() {
        let _ = FaultSpec::new().read_flip(1.5);
    }
}
