//! Core vocabulary types shared across the workspace.
//!
//! These are deliberately small, `Copy`, and eagerly implement the common
//! traits so that every other crate (scheduler, engine, protocols, theory)
//! can use them in keys, logs, and test assertions without friction.

use std::fmt;
use std::ops::Not;

/// The value stored in a single shared register.
///
/// The paper's lean-consensus only needs bits, but the backup protocol of
/// §8 stores packed `(round, preference)` pairs and random-walk counters,
/// so the common register width is a 64-bit word.
pub type Word = u64;

/// Identifier of a process (zero-based, dense).
///
/// Process ids are assigned by whoever creates the processes (the
/// simulation engine or the native runner) and are dense in `0..n`, which
/// lets them double as vector indices via [`Pid::index`].
///
/// ```
/// use nc_memory::Pid;
/// let p = Pid::new(3);
/// assert_eq!(p.index(), 3);
/// assert_eq!(p.to_string(), "P3");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct Pid(u32);

impl Pid {
    /// Creates a process id from its dense index.
    pub const fn new(id: u32) -> Self {
        Pid(id)
    }

    /// Returns the id as a `usize`, suitable for indexing per-process
    /// vectors.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Pid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

impl From<u32> for Pid {
    fn from(id: u32) -> Self {
        Pid(id)
    }
}

/// Address of a shared atomic read/write register.
///
/// Addresses index a flat, conceptually unbounded, zero-initialised
/// address space (see [`crate::sim::SimMemory`]). Layouts
/// (`crate::layout`) carve this space into the structures the protocols
/// need.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct Addr(usize);

impl Addr {
    /// Creates an address from a raw offset.
    pub const fn new(offset: usize) -> Self {
        Addr(offset)
    }

    /// Returns the raw offset.
    pub const fn offset(self) -> usize {
        self.0
    }

    /// Returns the address `delta` slots after `self`.
    ///
    /// # Panics
    ///
    /// Panics on overflow of the underlying offset (debug and release).
    pub const fn plus(self, delta: usize) -> Self {
        match self.0.checked_add(delta) {
            Some(o) => Addr(o),
            None => panic!("address offset overflow"),
        }
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "@{}", self.0)
    }
}

impl From<usize> for Addr {
    fn from(offset: usize) -> Self {
        Addr(offset)
    }
}

/// A binary consensus value / preference.
///
/// `Bit` is the input and output alphabet of binary consensus and the
/// index of the paper's two racing arrays `a0` and `a1`. Using a dedicated
/// enum (rather than `bool`) keeps call sites self-describing
/// (`layout.slot(Bit::One, r)` instead of `layout.slot(true, r)`).
///
/// ```
/// use nc_memory::Bit;
/// assert_eq!(!Bit::Zero, Bit::One);
/// assert_eq!(Bit::from_word(7), Bit::One); // nonzero => One
/// assert_eq!(Bit::One.word(), 1);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub enum Bit {
    /// The value 0.
    #[default]
    Zero,
    /// The value 1.
    One,
}

impl Bit {
    /// Both bit values, in numeric order.
    pub const BOTH: [Bit; 2] = [Bit::Zero, Bit::One];

    /// Converts a register word to a bit: zero maps to [`Bit::Zero`], any
    /// nonzero word to [`Bit::One`].
    pub const fn from_word(w: Word) -> Self {
        if w == 0 {
            Bit::Zero
        } else {
            Bit::One
        }
    }

    /// The register word representing this bit (`0` or `1`).
    pub const fn word(self) -> Word {
        match self {
            Bit::Zero => 0,
            Bit::One => 1,
        }
    }

    /// The bit as an array index (`0` or `1`).
    pub const fn index(self) -> usize {
        self.word() as usize
    }

    /// The opposite bit — the paper's `1 - b`.
    pub const fn rival(self) -> Self {
        match self {
            Bit::Zero => Bit::One,
            Bit::One => Bit::Zero,
        }
    }
}

impl Not for Bit {
    type Output = Bit;

    fn not(self) -> Bit {
        self.rival()
    }
}

impl From<bool> for Bit {
    fn from(b: bool) -> Self {
        if b {
            Bit::One
        } else {
            Bit::Zero
        }
    }
}

impl From<Bit> for bool {
    fn from(b: Bit) -> bool {
        b == Bit::One
    }
}

impl fmt::Display for Bit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.word())
    }
}

/// A single pending shared-memory operation.
///
/// Protocols in this workspace are *step machines*: they surface the next
/// `Op` they want to perform and are resumed with its result. This is what
/// lets one protocol implementation run under the discrete-event engine,
/// the hybrid uniprocessor scheduler, and native threads alike.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Op {
    /// Atomically read the register at the address.
    Read(Addr),
    /// Atomically write the word to the register at the address.
    Write(Addr, Word),
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Op::Read(a) => write!(f, "read {a}"),
            Op::Write(a, w) => write!(f, "write {a} <- {w}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pid_roundtrip_and_display() {
        let p = Pid::new(42);
        assert_eq!(p.index(), 42);
        assert_eq!(p.to_string(), "P42");
        assert_eq!(Pid::from(7u32), Pid::new(7));
    }

    #[test]
    fn pid_ordering_is_by_id() {
        assert!(Pid::new(1) < Pid::new(2));
        assert_eq!(Pid::default(), Pid::new(0));
    }

    #[test]
    fn addr_arithmetic() {
        let a = Addr::new(10);
        assert_eq!(a.plus(5).offset(), 15);
        assert_eq!(Addr::from(3usize), Addr::new(3));
        assert_eq!(a.to_string(), "@10");
    }

    #[test]
    #[should_panic(expected = "address offset overflow")]
    fn addr_plus_overflow_panics() {
        let _ = Addr::new(usize::MAX).plus(1);
    }

    #[test]
    fn bit_rival_is_involution() {
        for b in Bit::BOTH {
            assert_eq!(b.rival().rival(), b);
            assert_eq!(!(!b), b);
            assert_ne!(b.rival(), b);
        }
    }

    #[test]
    fn bit_word_conversions() {
        assert_eq!(Bit::from_word(0), Bit::Zero);
        assert_eq!(Bit::from_word(1), Bit::One);
        assert_eq!(Bit::from_word(u64::MAX), Bit::One);
        assert_eq!(Bit::Zero.word(), 0);
        assert_eq!(Bit::One.word(), 1);
        assert_eq!(Bit::Zero.index(), 0);
        assert_eq!(Bit::One.index(), 1);
    }

    #[test]
    fn bit_bool_conversions() {
        assert_eq!(Bit::from(true), Bit::One);
        assert_eq!(Bit::from(false), Bit::Zero);
        assert!(bool::from(Bit::One));
        assert!(!bool::from(Bit::Zero));
    }

    #[test]
    fn bit_display() {
        assert_eq!(Bit::Zero.to_string(), "0");
        assert_eq!(Bit::One.to_string(), "1");
    }

    #[test]
    fn op_accessors() {
        let r = Op::Read(Addr::new(4));
        let w = Op::Write(Addr::new(9), 2);
        assert_eq!(r.to_string(), "read @4");
        assert_eq!(w.to_string(), "write @9 <- 2");
    }
}
