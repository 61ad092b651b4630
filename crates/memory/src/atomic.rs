//! Native atomic register arrays for real-thread execution.
//!
//! The simulation substrate models registers; this module *is* registers.
//! [`SegArray`] is a growable array of `AtomicU64` words that never moves
//! allocated storage (readers hold references into segments while other
//! threads extend the array), which is what the paper's conceptually
//! infinite arrays `a0`/`a1` need when lean-consensus runs on real
//! threads.
//!
//! Storage is a fixed table of segment slots, each lazily initialised on
//! first touch. Lazy initialisation uses [`std::sync::OnceLock`]: reads
//! and writes to already-initialised segments are wait-free atomic
//! `load`/`store`; the one-time segment allocation may briefly block a
//! concurrent initialiser, a deviation from strict wait-freedom that is
//! confined to `O(capacity / SEGMENT_WORDS)` events per run and does not
//! affect the algorithm's step counting (memory allocation is not a
//! shared-memory operation in the model).
//!
//! All atomic accesses use `SeqCst`, so every execution of single-word
//! loads and stores is linearizable — the interleaving model the paper's
//! safety proofs (§5) assume.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use crate::types::Word;

/// Number of 64-bit registers per lazily-allocated segment.
pub const SEGMENT_WORDS: usize = 1024;

/// Default maximum number of segments (4096 segments × 1024 words ≈ 4.2M
/// registers ≈ 2.1M lean-consensus rounds — far beyond the `O(log n)`
/// rounds the paper proves, and far beyond any plausible run).
pub(crate) const DEFAULT_MAX_SEGMENTS: usize = 4096;

/// A lock-free growable array of atomic 64-bit registers.
///
/// * Registers read as `0` until first written.
/// * Storage grows lazily in segments of [`SEGMENT_WORDS`] registers.
/// * Allocated registers never move, so `&SegArray` can be shared across
///   threads (`SegArray` is `Sync`) and used concurrently without locks.
///
/// # Example
///
/// ```
/// use nc_memory::SegArray;
///
/// let a = SegArray::new();
/// assert_eq!(a.load(10_000), 0);
/// a.store(10_000, 7);
/// assert_eq!(a.load(10_000), 7);
/// ```
pub struct SegArray {
    segments: Box<[OnceLock<Box<[AtomicU64]>>]>,
}

impl SegArray {
    /// Creates an array with the default capacity
    /// (`DEFAULT_MAX_SEGMENTS` segments).
    pub fn new() -> Self {
        Self::with_max_segments(DEFAULT_MAX_SEGMENTS)
    }

    /// Creates an array with room for `max_segments` segments
    /// (`max_segments × SEGMENT_WORDS` registers).
    ///
    /// Only the slot table (one pointer-sized cell per segment) is
    /// allocated up front; segment storage is allocated on first touch.
    pub fn with_max_segments(max_segments: usize) -> Self {
        let mut slots = Vec::with_capacity(max_segments);
        slots.resize_with(max_segments, OnceLock::new);
        SegArray {
            segments: slots.into_boxed_slice(),
        }
    }

    /// Total number of addressable registers.
    pub(crate) fn capacity(&self) -> usize {
        self.segments.len() * SEGMENT_WORDS
    }

    /// Number of segments that have been materialised so far.
    pub(crate) fn allocated_segments(&self) -> usize {
        self.segments.iter().filter(|s| s.get().is_some()).count()
    }

    fn segment(&self, seg: usize) -> &[AtomicU64] {
        assert!(
            seg < self.segments.len(),
            "register index beyond SegArray capacity ({} registers); \
             use with_max_segments or the bounded protocol",
            self.capacity()
        );
        self.segments[seg].get_or_init(|| {
            let mut v = Vec::with_capacity(SEGMENT_WORDS);
            v.resize_with(SEGMENT_WORDS, || AtomicU64::new(0));
            v.into_boxed_slice()
        })
    }

    /// Returns a reference to the atomic register at `index`, allocating
    /// its segment if needed.
    ///
    /// # Panics
    ///
    /// Panics if `index >= capacity()`.
    pub(crate) fn register(&self, index: usize) -> &AtomicU64 {
        &self.segment(index / SEGMENT_WORDS)[index % SEGMENT_WORDS]
    }

    /// Atomically reads the register at `index` (`SeqCst`).
    ///
    /// Reads of never-touched segments see `0`, but do allocate the
    /// segment; protocols in this workspace only read addresses they may
    /// also write, so this keeps the fast path branch-free.
    ///
    /// # Panics
    ///
    /// Panics if `index >= capacity()`.
    pub fn load(&self, index: usize) -> Word {
        self.register(index).load(Ordering::SeqCst)
    }

    /// Atomically writes the register at `index` (`SeqCst`).
    ///
    /// # Panics
    ///
    /// Panics if `index >= capacity()`.
    pub fn store(&self, index: usize, value: Word) {
        self.register(index).store(value, Ordering::SeqCst);
    }
}

impl Default for SegArray {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for SegArray {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SegArray")
            .field("capacity", &self.capacity())
            .field("allocated_segments", &self.allocated_segments())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_array_reads_zero() {
        let a = SegArray::new();
        assert_eq!(a.load(0), 0);
        assert_eq!(a.load(SEGMENT_WORDS * 3 + 5), 0);
    }

    #[test]
    fn store_load_roundtrip_across_segments() {
        let a = SegArray::new();
        for i in [
            0,
            1,
            SEGMENT_WORDS - 1,
            SEGMENT_WORDS,
            SEGMENT_WORDS * 2 + 7,
        ] {
            a.store(i, i as u64 + 1);
        }
        for i in [
            0,
            1,
            SEGMENT_WORDS - 1,
            SEGMENT_WORDS,
            SEGMENT_WORDS * 2 + 7,
        ] {
            assert_eq!(a.load(i), i as u64 + 1);
        }
    }

    #[test]
    fn segments_allocate_lazily() {
        let a = SegArray::new();
        assert_eq!(a.allocated_segments(), 0);
        a.store(0, 1);
        assert_eq!(a.allocated_segments(), 1);
        a.store(SEGMENT_WORDS * 5, 1);
        assert_eq!(a.allocated_segments(), 2);
    }

    #[test]
    fn capacity_matches_limits() {
        let a = SegArray::with_max_segments(2);
        assert_eq!(a.capacity(), 2 * SEGMENT_WORDS);
        a.store(2 * SEGMENT_WORDS - 1, 9);
        assert_eq!(a.load(2 * SEGMENT_WORDS - 1), 9);
    }

    #[test]
    #[should_panic(expected = "beyond SegArray capacity")]
    fn out_of_capacity_panics() {
        let a = SegArray::with_max_segments(1);
        a.store(SEGMENT_WORDS, 1);
    }

    #[test]
    fn debug_is_nonempty() {
        let a = SegArray::with_max_segments(1);
        let s = format!("{a:?}");
        assert!(s.contains("SegArray"));
        assert!(s.contains("capacity"));
    }

    #[test]
    fn send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SegArray>();
    }

    /// Bits written by many threads are all visible afterwards — the
    /// monotone write pattern lean-consensus relies on (only 0 -> 1
    /// transitions on each register).
    #[test]
    fn concurrent_monotone_writes_are_all_visible() {
        let a = SegArray::new();
        let threads = 8;
        let per_thread = 500;
        std::thread::scope(|s| {
            for t in 0..threads {
                let a = &a;
                s.spawn(move || {
                    for i in 0..per_thread {
                        a.store(t * per_thread + i, 1);
                    }
                });
            }
        });
        for idx in 0..threads * per_thread {
            assert_eq!(a.load(idx), 1, "register {idx} lost its write");
        }
    }

    /// Concurrent readers of a register being set never observe anything
    /// but 0 or the written value, and once they see 1 it stays 1
    /// (registers are regular/atomic, not flickering).
    #[test]
    fn concurrent_reader_sees_monotone_flag() {
        for _ in 0..20 {
            let a = SegArray::with_max_segments(1);
            std::thread::scope(|s| {
                let reader = s.spawn(|| {
                    let mut seen_one = false;
                    for _ in 0..10_000 {
                        let v = a.load(7);
                        assert!(v == 0 || v == 1);
                        if seen_one {
                            assert_eq!(v, 1, "flag reverted to 0");
                        }
                        if v == 1 {
                            seen_one = true;
                        }
                    }
                });
                s.spawn(|| {
                    a.store(7, 1);
                });
                reader.join().unwrap();
            });
        }
    }
}
