//! The engine's event queue: a **4-ary min-heap** of 16-byte integer
//! keys with an in-place **peek-and-replace** fast path.
//!
//! The discrete-event engine's common case pops the earliest event and
//! immediately pushes exactly one successor *for the same process* (the
//! classic "hold" operation). With `std::collections::BinaryHeap` that
//! costs a full pop + push per event, with two tree traversals whose
//! comparison branches are data-dependent — on random event times they
//! mispredict constantly, and the mispredicts dominate the queue cost.
//! [`EventQueue::replace_top`] restructures the work three ways:
//!
//! * **One traversal, not two** — Floyd's bottom-up heapify: walk a hole
//!   from the root to a leaf along the smallest-child path, drop the
//!   replacement in, sift it back up (usually zero steps). The walk's
//!   trip count depends only on the heap size, so its loop branches are
//!   perfectly predictable.
//! * **Branchless comparisons** — an [`Event`] is two `u64` words
//!   forming one 128-bit sort key: the event time's bits mapped through
//!   the order-preserving [`f64` → `u64` transform](Event::new) (exactly
//!   `f64::total_cmp`'s order), then `(seq, pid)`. Key comparisons are
//!   pure integer compares the compiler lowers to conditional moves —
//!   no data-dependent branches at all in child selection.
//! * **4-ary fan-out** — half the levels of a binary heap, and all four
//!   children share one cache line (4 × 16 bytes), so the walk touches
//!   one line per level.
//!
//! Ordering is the engine's deterministic tie-break: earlier time first,
//! equal times broken by insertion sequence. Because the key order is
//! **total** and `seq` values are unique, the pop sequence of any
//! correct priority queue is uniquely determined — so swapping queue
//! implementations can never change simulation results (pinned by the
//! equivalence tests against the naive `BinaryHeap` driver).

/// Fan-out of the heap. Four 16-byte events fill one cache line.
const ARITY: usize = 4;

/// Bits of the low key word reserved for the process id.
pub(crate) const PID_BITS: u32 = 24;

/// Maximum process id an [`Event`] can carry (`2^24 - 1` ≈ 16.7M).
pub const MAX_PID: u32 = (1 << PID_BITS) - 1;

/// Maximum sequence number an [`Event`] can carry (`2^40 - 1` ≈ 1.1e12
/// scheduled events per run — two orders of magnitude above the default
/// operation budget).
pub(crate) const MAX_SEQ: u64 = (1 << (64 - PID_BITS)) - 1;

/// A scheduled simulation event: process [`Event::pid`]'s next operation
/// occurs at simulated time [`Event::time`]; the `seq` given to
/// [`Event::new`] is the insertion sequence number used for
/// deterministic tie-breaking.
///
/// Stored as a 16-byte integer sort key — see [the module docs](self)
/// for why. Construct with [`Event::new`] and read fields through the
/// accessors; the key encoding is lossless, so `time()` returns exactly
/// the `f64` passed in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Event {
    /// The event time's bits, mapped so unsigned integer order equals
    /// `f64::total_cmp` order.
    pub(crate) time_key: u64,
    /// `seq << PID_BITS | pid`.
    pub(crate) seq_pid: u64,
}

/// Order-preserving `f64` → `u64` map: flips the sign bit of positives
/// and all bits of negatives, so `u64` order equals `total_cmp` order.
#[inline]
fn map_time(t: f64) -> u64 {
    let b = t.to_bits();
    b ^ ((((b as i64) >> 63) as u64) | 0x8000_0000_0000_0000)
}

/// Inverse of [`map_time`].
#[inline]
fn unmap_time(k: u64) -> f64 {
    let b = k ^ (((!(k as i64)) >> 63) as u64 | 0x8000_0000_0000_0000);
    f64::from_bits(b)
}

impl Event {
    /// Packs `(time, seq, pid)` into a 16-byte sort key.
    ///
    /// # Panics
    ///
    /// Debug-asserts `pid <= MAX_PID` and `seq <= MAX_SEQ`; in release
    /// builds out-of-range values would corrupt tie-breaking. Callers
    /// bound the pid themselves: `nc_engine`'s `Sim` refuses a noisy run
    /// of more than `MAX_PID + 1` processes, and `nc_msg` asserts its
    /// slot bound.
    #[inline]
    pub fn new(time: f64, seq: u64, pid: u32) -> Self {
        debug_assert!(pid <= MAX_PID, "pid {pid} exceeds {MAX_PID}");
        debug_assert!(seq <= MAX_SEQ, "seq {seq} exceeds {MAX_SEQ}");
        Event {
            time_key: map_time(time),
            seq_pid: (seq << PID_BITS) | pid as u64,
        }
    }

    /// The simulated occurrence time (bit-exact round trip of the value
    /// given to [`Event::new`]).
    #[inline]
    pub fn time(&self) -> f64 {
        unmap_time(self.time_key)
    }

    /// The owning process id.
    #[inline]
    pub fn pid(&self) -> u32 {
        (self.seq_pid & MAX_PID as u64) as u32
    }

    /// The full 128-bit sort key: `(time, seq, pid)` lexicographic, the
    /// engine's total event order.
    ///
    /// Totality (the property the engine's determinism rests on): the
    /// time map preserves `total_cmp`'s total order bit-for-bit, and the
    /// unique `seq` breaks every remaining tie, so distinct queued
    /// events never compare `Equal`.
    #[inline]
    pub(crate) fn key(&self) -> u128 {
        ((self.time_key as u128) << 64) | self.seq_pid as u128
    }
}

/// An indexed 4-ary min-heap of [`Event`]s on `(time, seq)`.
///
/// # Example
///
/// ```
/// use nc_sched::queue::{Event, EventQueue};
///
/// let mut q = EventQueue::with_capacity(4);
/// q.push(Event::new(2.0, 1, 0));
/// q.push(Event::new(1.0, 2, 1));
/// assert_eq!(q.peek().unwrap().pid(), 1);
/// // Pop-and-push of the common case, as one traversal:
/// let new_top = q.replace_top(Event::new(3.0, 3, 1));
/// assert_eq!(new_top.pid(), 0);
/// ```
#[derive(Clone, Debug, Default)]
pub struct EventQueue {
    heap: Vec<Event>,
}

impl EventQueue {
    /// An empty queue with room for `cap` events before reallocating.
    pub fn with_capacity(cap: usize) -> Self {
        EventQueue {
            heap: Vec::with_capacity(cap),
        }
    }

    /// Removes all events, keeping the allocation (for reuse across
    /// trials).
    #[inline]
    pub fn clear(&mut self) {
        self.heap.clear();
    }

    /// The earliest event, if any.
    #[inline]
    pub fn peek(&self) -> Option<&Event> {
        self.heap.first()
    }

    /// Inserts an event (sift-up).
    #[inline]
    pub fn push(&mut self, ev: Event) {
        self.heap.push(ev);
        self.sift_up(self.heap.len() - 1, ev);
    }

    /// Removes and returns the earliest event.
    pub fn pop(&mut self) -> Option<Event> {
        let len = self.heap.len();
        match len {
            0 => None,
            1 => self.heap.pop(),
            _ => {
                let top = self.heap[0];
                let last = self.heap.pop().expect("len >= 2");
                let hole = self.walk_hole_down(self.heap.len());
                self.heap[hole] = last;
                self.sift_up(hole, last);
                Some(top)
            }
        }
    }

    /// Replaces the earliest event with `ev` in place and returns a copy
    /// of the resulting earliest event.
    ///
    /// Equivalent to `pop(); push(ev); *peek()` as one Floyd traversal —
    /// the engine's hot "hold" operation. See the module docs for the
    /// design.
    ///
    /// # Panics
    ///
    /// Panics if the queue is empty.
    #[inline]
    pub fn replace_top(&mut self, ev: Event) -> Event {
        assert!(!self.heap.is_empty(), "replace_top on empty queue");
        let hole = self.walk_hole_down(self.heap.len());
        self.heap[hole] = ev;
        self.sift_up(hole, ev);
        self.heap[0]
    }

    /// Walks a hole from the root to a leaf, moving the smallest child
    /// up at each level; returns the final hole index. `len` is the
    /// logical heap length to respect (callers may have virtually
    /// removed the tail element).
    #[inline]
    fn walk_hole_down(&mut self, len: usize) -> usize {
        let mut hole = 0usize;
        loop {
            let first = ARITY * hole + 1;
            if first >= len {
                return hole;
            }
            let best = if len - first >= ARITY {
                // Full node: min-of-4 as a pairwise tournament. The
                // child values are effectively random, so a sequential
                // "running best" scan would mispredict its branches
                // roughly half the time — the tournament's independent
                // (index, key) selects compile to conditional moves,
                // keeping the walk branch-free on the hot path.
                let k0 = self.heap[first].key();
                let k1 = self.heap[first + 1].key();
                let k2 = self.heap[first + 2].key();
                let k3 = self.heap[first + 3].key();
                let (a, ka) = if k1 < k0 {
                    (first + 1, k1)
                } else {
                    (first, k0)
                };
                let (b, kb) = if k3 < k2 {
                    (first + 3, k3)
                } else {
                    (first + 2, k2)
                };
                if kb < ka {
                    b
                } else {
                    a
                }
            } else {
                // Partial leaf-edge node (at most once per walk).
                let mut best = first;
                let mut best_key = self.heap[first].key();
                for c in first + 1..len {
                    let k = self.heap[c].key();
                    if k < best_key {
                        best = c;
                        best_key = k;
                    }
                }
                best
            };
            self.heap[hole] = self.heap[best];
            hole = best;
        }
    }

    /// Moves `ev` (already written at index `i`) up to its heap
    /// position.
    #[inline]
    fn sift_up(&mut self, mut i: usize, ev: Event) {
        let key = ev.key();
        while i > 0 {
            let parent = (i - 1) / ARITY;
            if key < self.heap[parent].key() {
                self.heap[i] = self.heap[parent];
                i = parent;
            } else {
                break;
            }
        }
        self.heap[i] = ev;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn ev(time: f64, seq: u64) -> Event {
        Event::new(time, seq, seq as u32 & MAX_PID)
    }

    #[test]
    fn key_roundtrip_is_exact() {
        for t in [
            0.0,
            -0.0,
            1.5e-8,
            1.0,
            2.0f64.powi(900),
            -3.25,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE,
        ] {
            let e = Event::new(t, 123, 45);
            assert_eq!(e.time().to_bits(), t.to_bits(), "time {t}");
            assert_eq!(e.seq_pid >> PID_BITS, 123);
            assert_eq!(e.pid(), 45);
        }
        let e = Event::new(7.0, MAX_SEQ, MAX_PID);
        assert_eq!(e.seq_pid >> PID_BITS, MAX_SEQ);
        assert_eq!(e.pid(), MAX_PID);
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::default();
        for (i, t) in [5.0, 1.0, 3.0, 2.0, 4.0].iter().enumerate() {
            q.push(ev(*t, i as u64));
        }
        let times: Vec<f64> = std::iter::from_fn(|| q.pop()).map(|e| e.time()).collect();
        assert_eq!(times, vec![1.0, 2.0, 3.0, 4.0, 5.0]);
    }

    #[test]
    fn equal_times_break_by_seq() {
        let mut q = EventQueue::default();
        q.push(ev(1.0, 7));
        q.push(ev(1.0, 3));
        q.push(ev(1.0, 5));
        let seqs: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|e| e.seq_pid >> PID_BITS)
            .collect();
        assert_eq!(seqs, vec![3, 5, 7]);
    }

    #[test]
    fn replace_top_equals_pop_then_push() {
        let mut a = EventQueue::default();
        let mut b = EventQueue::default();
        for (i, t) in [9.0, 2.0, 7.0, 4.0, 6.0, 3.0].iter().enumerate() {
            a.push(ev(*t, i as u64));
            b.push(ev(*t, i as u64));
        }
        let new = ev(5.0, 10);
        let top_a = a.replace_top(new);
        b.pop();
        b.push(new);
        let top_b = *b.peek().unwrap();
        assert_eq!(top_a, top_b);
        let rest_a: Vec<Event> = std::iter::from_fn(|| a.pop()).collect();
        let rest_b: Vec<Event> = std::iter::from_fn(|| b.pop()).collect();
        assert_eq!(rest_a, rest_b);
    }

    #[test]
    fn clear_keeps_capacity() {
        let mut q = EventQueue::with_capacity(8);
        for i in 0..8 {
            q.push(ev(i as f64, i));
        }
        let cap = q.heap.capacity();
        q.clear();
        assert!(q.heap.is_empty());
        assert_eq!(q.heap.capacity(), cap);
    }

    #[test]
    #[should_panic(expected = "replace_top on empty queue")]
    fn replace_top_empty_panics() {
        EventQueue::default().replace_top(ev(1.0, 1));
    }

    proptest! {
        /// The key order is total and antisymmetric over arbitrary
        /// (time-bits, seq) pairs — including equal, infinite, and NaN
        /// times — and agrees with `(total_cmp, seq)` lexicographic.
        #[test]
        fn key_cmp_is_total_and_stable(
            raw in proptest::collection::vec((0u64..u64::MAX, 0u64..1000), 2..40),
        ) {
            let evs: Vec<Event> = raw
                .iter()
                .map(|&(bits, seq)| Event::new(f64::from_bits(bits), seq, 0))
                .collect();
            let seq = |e: &Event| e.seq_pid >> PID_BITS;
            for a in &evs {
                prop_assert_eq!(a.key().cmp(&a.key()), std::cmp::Ordering::Equal);
                for b in &evs {
                    prop_assert_eq!(a.key().cmp(&b.key()), b.key().cmp(&a.key()).reverse());
                    let reference = a
                        .time()
                        .total_cmp(&b.time())
                        .then_with(|| seq(a).cmp(&seq(b)));
                    prop_assert_eq!(a.key().cmp(&b.key()), reference);
                    // Distinct seqs never tie, even at bit-equal times.
                    if seq(a) != seq(b) {
                        prop_assert!(a.key().cmp(&b.key()) != std::cmp::Ordering::Equal);
                    }
                }
            }
        }

        /// Heap pops exactly sort by the key, under arbitrary interleaved
        /// push/replace traffic mirrored against a sorted-model oracle.
        #[test]
        fn heap_matches_sorted_model(
            times in proptest::collection::vec(0.0f64..100.0, 1..60),
            replacements in proptest::collection::vec(0.0f64..100.0, 0..30),
        ) {
            let mut q = EventQueue::default();
            let mut model: Vec<Event> = Vec::new();
            let mut seq = 0u64;
            for &t in &times {
                let e = ev(t, seq);
                seq += 1;
                q.push(e);
                model.push(e);
            }
            for &t in &replacements {
                model.sort_by_key(Event::key);
                let e = ev(t, seq);
                seq += 1;
                q.replace_top(e);
                model[0] = e;
            }
            model.sort_by_key(Event::key);
            let popped: Vec<Event> = std::iter::from_fn(|| q.pop()).collect();
            prop_assert_eq!(popped, model);
        }

        /// Interleaved pops keep the heap consistent too (pop uses the
        /// same hole walk as replace_top).
        #[test]
        fn push_pop_interleave_matches_model(
            ops in proptest::collection::vec((any::<bool>(), 0.0f64..50.0), 1..80),
        ) {
            let mut q = EventQueue::default();
            let mut model: Vec<Event> = Vec::new();
            let mut seq = 0u64;
            for &(is_pop, t) in &ops {
                if is_pop {
                    model.sort_by_key(Event::key);
                    let expect = if model.is_empty() { None } else { Some(model.remove(0)) };
                    prop_assert_eq!(q.pop(), expect);
                } else {
                    let e = ev(t, seq);
                    seq += 1;
                    q.push(e);
                    model.push(e);
                }
            }
            model.sort_by_key(Event::key);
            let drained: Vec<Event> = std::iter::from_fn(|| q.pop()).collect();
            prop_assert_eq!(drained, model);
        }
    }
}
