//! Deterministic, seeded value faults for [`SimMemory`]: the
//! [`FaultSpec`] describing them and the plane that injects them.
//!
//! The paper's noise lives in the *schedule* (when operations happen);
//! related work puts it in the *values* instead: Fraigniaud–Natale's
//! noisy-communication model flips each transmitted bit with
//! probability ε, and Clementi et al. show such noise can make
//! consensus strictly easier. Value faults are the instrument for
//! measuring where lean-consensus sits on that axis: they perturb the
//! **values** protocols observe while the engine's schedule stays
//! untouched, so every run remains a pure function of its seed.
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
//! A memory gets its spec once through [`SimMemory::set_faults`]; the
//! engine arms it per trial with [`SimMemory::arm_faults`], after setup
//! writes like sentinels (initial state is never faulted), and
//! [`SimMemory::reset`] disarms it. Faults draw from a private stream
//! derived from the arming seed, so the same seed gives byte-identical
//! fault decisions at any thread count. Disarmed — and always with an
//! empty spec — the memory behaves exactly as a fault-free one, pinned
//! by the engine's equivalence suites.
//!
//! [`SimMemory`]: crate::SimMemory
//! [`SimMemory::set_faults`]: crate::SimMemory::set_faults
//! [`SimMemory::arm_faults`]: crate::SimMemory::arm_faults
//! [`SimMemory::reset`]: crate::SimMemory::reset

use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

use crate::types::{Addr, Bit, Word};

/// Salt folded into the arming seed for the fault stream, so it can
/// never collide with the engine's `(seed, pid, salt)` streams (which
/// use small salts and a different pre-mix).
const FAULT_STREAM_SALT: u64 = 0xFA_17_5E_ED_0B_AD_B1_75;

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

/// The fault state of a [`crate::SimMemory`] that has been given a
/// [`FaultSpec`]: the spec and its seeded stream.
#[derive(Clone, Debug)]
pub(crate) struct FaultPlane {
    spec: FaultSpec,
    rng: SmallRng,
}

impl FaultPlane {
    pub(crate) fn new(spec: FaultSpec) -> Self {
        FaultPlane {
            spec,
            rng: SmallRng::seed_from_u64(0),
        }
    }

    /// Re-derives the fault stream from `seed` for the coming run.
    pub(crate) fn arm(&mut self, seed: u64) {
        self.rng = SmallRng::seed_from_u64(splitmix64(seed ^ FAULT_STREAM_SALT));
    }

    /// The stuck value for `addr`, if that register is stuck. Last
    /// declaration wins, matching the setter order.
    fn stuck_value(&self, addr: Addr) -> Option<Word> {
        self.spec
            .stuck
            .iter()
            .rev()
            .find(|(a, _)| *a == addr)
            .map(|(_, b)| b.word())
    }

    /// What a read of `addr` observes when the register holds `stored`.
    pub(crate) fn read(&mut self, addr: Addr, stored: Word) -> Word {
        // A stuck register is broken hardware: its fixed bit short-
        // circuits both the stored word and the ε channel noise
        // (symmetric with the write path, which absorbs the write
        // before the δ draw).
        if let Some(stuck) = self.stuck_value(addr) {
            return stuck;
        }
        // Drawing only when ε > 0 keeps the stream aligned with the
        // spec (deterministic either way: the draw sequence is a pure
        // function of the executed op sequence and the spec).
        if self.spec.read_flip > 0.0 && self.rng.random::<f64>() < self.spec.read_flip {
            return stored ^ 1;
        }
        stored
    }

    /// Whether a write to `addr` is lost: absorbed by a stuck register,
    /// or dropped with probability δ.
    pub(crate) fn loses_write(&mut self, addr: Addr) -> bool {
        if self.stuck_value(addr).is_some() {
            return true;
        }
        if self.spec.write_drop > 0.0 && self.rng.random::<f64>() < self.spec.write_drop {
            return true;
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::SimMemory;
    use crate::types::Op;

    /// A memory carrying `spec`, disarmed.
    fn faulty(spec: FaultSpec) -> SimMemory {
        let mut mem = SimMemory::new();
        mem.set_faults(spec);
        mem
    }

    #[test]
    fn disarmed_wrapper_is_transparent() {
        let mut faulty = faulty(FaultSpec::new().read_flip(1.0).write_drop(1.0));
        let mut plain = SimMemory::new();
        for i in 0..20usize {
            faulty.write(Addr::new(i % 7), i as Word);
            plain.write(Addr::new(i % 7), i as Word);
            assert_eq!(faulty.read(Addr::new(i % 5)), plain.read(Addr::new(i % 5)));
        }
        assert_eq!(faulty.ops_executed(), plain.ops_executed());
    }

    #[test]
    fn empty_spec_is_transparent_even_when_armed() {
        let mut faulty = faulty(FaultSpec::new());
        faulty.arm_faults(42);
        let mut plain = SimMemory::new();
        for i in 0..50usize {
            faulty.write(Addr::new(i), 1);
            plain.write(Addr::new(i), 1);
            assert_eq!(faulty.read(Addr::new(i / 2)), plain.read(Addr::new(i / 2)));
        }
    }

    #[test]
    fn stuck_registers_mask_reads_and_absorb_writes() {
        let spec = FaultSpec::new()
            .stuck_at(Addr::new(1), Bit::One)
            .stuck_at(Addr::new(2), Bit::Zero);
        let mut mem = faulty(spec);
        // Before arming, writes land normally.
        mem.write(Addr::new(2), 9);
        mem.arm_faults(7);
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
        let mut mem = faulty(spec);
        mem.arm_faults(3);
        for _ in 0..8 {
            assert_eq!(mem.read(Addr::new(1)), 1, "stuck bit must not flip");
        }
        assert_eq!(mem.read(Addr::new(0)), 1, "ε = 1 flips non-stuck reads");
    }

    #[test]
    fn certain_write_drop_loses_every_write() {
        let mut mem = faulty(FaultSpec::new().write_drop(1.0));
        mem.arm_faults(1);
        mem.write(Addr::new(0), 5);
        assert_eq!(mem.read(Addr::new(0)), 0);
        assert_eq!(mem.ops_executed(), 2, "dropped writes still count");
        assert_eq!(
            mem.footprint_words(),
            0,
            "dropped writes never grow the store"
        );
    }

    #[test]
    fn certain_read_flip_inverts_the_low_bit() {
        let mut mem = faulty(FaultSpec::new().read_flip(1.0));
        mem.arm_faults(1);
        mem.write(Addr::new(0), 1);
        assert_eq!(mem.read(Addr::new(0)), 0);
        assert_eq!(mem.read(Addr::new(3)), 1, "flipped zero reads as one");
    }

    #[test]
    fn same_seed_same_fault_stream() {
        let run = |seed: u64| -> Vec<Word> {
            let mut mem = faulty(FaultSpec::new().read_flip(0.3).write_drop(0.3));
            mem.arm_faults(seed);
            let mut out = Vec::new();
            for i in 0..200usize {
                mem.write(Addr::new(i % 11), 1);
                out.push(mem.read(Addr::new(i % 13)));
            }
            out
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10), "distinct seeds must vary the stream");
    }

    #[test]
    fn reset_disarms_and_clears_counters() {
        let mut mem = faulty(FaultSpec::new().write_drop(1.0));
        mem.arm_faults(3);
        mem.write(Addr::new(0), 5); // dropped
        assert_eq!(mem.peek(Addr::new(0)), 0);
        mem.reset();
        assert_eq!(mem.ops_executed(), 0);
        mem.write(Addr::new(0), 5); // disarmed: lands
        assert_eq!(mem.exec(Op::Read(Addr::new(0))), Some(5));
    }

    #[test]
    fn spec_helpers() {
        assert!(!FaultSpec::new().any());
        assert!(FaultSpec::new().read_flip(0.1).any());
        assert!(FaultSpec::new().write_drop(0.1).any());
        assert!(FaultSpec::new().stuck_at(Addr::new(0), Bit::Zero).any());
        assert_eq!(FaultSpec::new().read_flip(0.5).read_flip, 0.5);
        assert_eq!(faulty(FaultSpec::new().read_flip(0.5)).footprint_words(), 0);
    }

    #[test]
    #[should_panic(expected = "ε must be in [0, 1]")]
    fn out_of_range_epsilon_panics() {
        let _ = FaultSpec::new().read_flip(1.5);
    }
}
