//! A branchless **tournament tree** over per-process event slots.
//!
//! Engine-free: the engine runs on the 4-ary heap
//! ([`crate::queue::EventQueue`]) at every `n`. perfbench's
//! `sched.hold_ns` is the tree's only user; it times the tree's hold at
//! the process counts where [`crate::select::QueuePolicy::Auto`] picks
//! it.
//!
//! Motivation: comparison-based queues spend much of the simulation hot
//! loop in **branch mispredicts** — every comparison on random event
//! times is a coin-flip branch. This structure removes data-dependent
//! branches entirely:
//!
//! * An [`Event`] is already a 16-byte integer
//!   sort key `(mapped time, seq, pid)` — and its **low 24 bits are the
//!   pid**. So `min` over the `u128` keys is simultaneously the
//!   earliest event *and* its owner: no index bookkeeping at all.
//! * A hold queue keeps at most one event per process, so the tree's
//!   leaves are a **fixed pid-indexed array** (`u128::MAX` = no event).
//! * Internal nodes store the min of a 16-slot block. Updating a leaf
//!   recomputes one balanced 16-wide `min` reduction per level — pure
//!   `cmp`+`select` chains the compiler lowers without a single
//!   data-dependent branch. Peek reads the root.
//!
//! **Measured outcome:** while the heap fits hot cache, the
//! zero-mispredict property does not pay for the `u128::min` dependency
//! chains — each select is a multi-µop `cmp`/`sbb`/`cmov` sequence with
//! ~4-6 cycle latency, serialized along the reduction — and the 4-ary
//! tournament-select heap wins. End to end on the 2-core reference host
//! the tree never won by a margin that held across repeated
//! measurements at larger `n` either, so the engine dropped it.
//!
//! Determinism: `min` over total integer keys is exact — the pop
//! sequence is identical to every other queue in this crate (pinned by
//! differential property tests).

use crate::queue::Event;

/// Fan-out of the reduction tree (power of two). Sixteen 16-byte keys
/// span four cache lines and reduce in fifteen `min` ops arranged as a
/// depth-4 balanced tree — wider fan-out halves the number of levels
/// (and their serial store-to-load dependencies) at the same total
/// comparison count.
const ARITY: usize = 16;
const ARITY_LOG2: u32 = ARITY.trailing_zeros();

/// Sentinel key for "no event in this slot". Real events cannot collide
/// with it: their time keys come from finite `f64`s, which never map to
/// all-ones.
const EMPTY: u128 = u128::MAX;

/// A fixed-capacity tournament tree of at most one event per process.
///
/// [`EventTree::reset`] sizes it for pids `0..n`; [`EventTree::set`]
/// inserts or reschedules a process's event, [`EventTree::remove`]
/// clears one, [`EventTree::peek`]/[`EventTree::pop`] read the global
/// earliest.
///
/// # Example
///
/// ```
/// use nc_sched::queue::Event;
/// use nc_sched::tree::EventTree;
///
/// let mut q = EventTree::new();
/// q.reset(2);
/// q.set(Event::new(2.0, 1, 0));
/// q.set(Event::new(1.0, 2, 1));
/// assert_eq!(q.peek().unwrap().pid(), 1);
/// q.set(Event::new(3.0, 3, 1)); // reschedule pid 1: the hold operation
/// assert_eq!(q.peek().unwrap().pid(), 0);
/// ```
#[derive(Debug, Default)]
pub struct EventTree {
    /// `levels[0]` = pid-indexed leaf keys (padded with [`EMPTY`] to a
    /// multiple of [`ARITY`]); each higher level holds the 16-block mins
    /// of the one below; the last level is a single root.
    levels: Vec<Vec<u128>>,
    len: usize,
}

/// Balanced 16-wide `min` reduction of one block: latency depth 4 (vs 15
/// for a running min), every `min` a branchless compare+select.
#[inline(always)]
fn block_min(b: &[u128]) -> u128 {
    let m01 = b[0].min(b[1]);
    let m23 = b[2].min(b[3]);
    let m45 = b[4].min(b[5]);
    let m67 = b[6].min(b[7]);
    let m89 = b[8].min(b[9]);
    let mab = b[10].min(b[11]);
    let mcd = b[12].min(b[13]);
    let mef = b[14].min(b[15]);
    m01.min(m23)
        .min(m45.min(m67))
        .min(m89.min(mab).min(mcd.min(mef)))
}

impl EventTree {
    /// An empty tree; size it with [`EventTree::reset`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Clears the tree and sizes it for pids `0..n`, reusing existing
    /// storage when the capacity matches.
    pub fn reset(&mut self, n: usize) {
        let mut width = n.max(1).next_multiple_of(ARITY);
        let mut depth = 0;
        loop {
            if self.levels.len() == depth {
                self.levels.push(Vec::new());
            }
            let level = &mut self.levels[depth];
            level.clear();
            level.resize(width, EMPTY);
            depth += 1;
            if width == 1 {
                break;
            }
            width = (width / ARITY).max(1);
            if width > 1 {
                width = width.next_multiple_of(ARITY);
            }
        }
        self.levels.truncate(depth);
        self.len = 0;
    }

    /// Number of queued events.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the tree holds no events.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The earliest event, if any — a single root read.
    #[inline]
    pub fn peek(&self) -> Option<Event> {
        let root = self.levels[self.levels.len() - 1][0];
        if root == EMPTY {
            None
        } else {
            Some(Event {
                time_key: (root >> 64) as u64,
                seq_pid: root as u64,
            })
        }
    }

    /// Inserts or reschedules the event of `ev.pid()` — the branchless
    /// hold operation: one leaf write plus one 16-wide `min`
    /// reduction per level.
    #[inline]
    pub fn set(&mut self, ev: Event) {
        let pid = ev.pid() as usize;
        debug_assert!(pid < self.levels[0].len(), "pid {pid} out of range");
        if self.levels[0][pid] == EMPTY {
            self.len += 1;
        }
        self.update(pid, ev.key());
    }

    /// Removes the event of `pid`, if present.
    #[inline]
    pub fn remove(&mut self, pid: u32) {
        let pid = pid as usize;
        debug_assert!(pid < self.levels[0].len(), "pid {pid} out of range");
        if self.levels[0][pid] != EMPTY {
            self.len -= 1;
            self.update(pid, EMPTY);
        }
    }

    /// Removes and returns the earliest event.
    #[inline]
    pub fn pop(&mut self) -> Option<Event> {
        let top = self.peek()?;
        self.len -= 1;
        self.update(top.pid() as usize, EMPTY);
        Some(top)
    }

    /// Writes `key` at leaf `idx` and recomputes the block min on every
    /// level above. The fixed-width reduction is the whole point:
    /// sixteen loads and fifteen `u128::min`s per level, no
    /// data-dependent branches anywhere.
    #[inline]
    fn update(&mut self, mut idx: usize, key: u128) {
        self.levels[0][idx] = key;
        for l in 0..self.levels.len() - 1 {
            let (lo, hi) = self.levels.split_at_mut(l + 1);
            let level = &lo[l];
            let block = idx & !(ARITY - 1);
            let m = block_min(&level[block..block + ARITY]);
            idx >>= ARITY_LOG2;
            hi[0][idx] = m;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventTree::new();
        q.reset(5);
        for (i, t) in [5.0, 1.0, 3.0, 2.0, 4.0].iter().enumerate() {
            q.set(Event::new(*t, i as u64, i as u32));
        }
        assert_eq!(q.len(), 5);
        let times: Vec<f64> = std::iter::from_fn(|| q.pop()).map(|e| e.time()).collect();
        assert_eq!(times, vec![1.0, 2.0, 3.0, 4.0, 5.0]);
        assert!(q.is_empty());
    }

    #[test]
    fn equal_times_break_by_seq() {
        let mut q = EventTree::new();
        q.reset(3);
        q.set(Event::new(1.0, 7, 0));
        q.set(Event::new(1.0, 3, 1));
        q.set(Event::new(1.0, 5, 2));
        let seqs: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|e| e.seq()).collect();
        assert_eq!(seqs, vec![3, 5, 7]);
    }

    #[test]
    fn set_reschedules_in_place() {
        let mut q = EventTree::new();
        q.reset(2);
        q.set(Event::new(1.0, 1, 0));
        q.set(Event::new(2.0, 2, 1));
        q.set(Event::new(5.0, 3, 0)); // pid 0 rescheduled later
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek().unwrap().pid(), 1);
        let order: Vec<u32> = std::iter::from_fn(|| q.pop()).map(|e| e.pid()).collect();
        assert_eq!(order, vec![1, 0]);
    }

    #[test]
    fn remove_clears_slots() {
        let mut q = EventTree::new();
        q.reset(4);
        for pid in 0..4u32 {
            q.set(Event::new(pid as f64, pid as u64, pid));
        }
        q.remove(0);
        q.remove(0); // idempotent
        assert_eq!(q.len(), 3);
        assert_eq!(q.peek().unwrap().pid(), 1);
    }

    #[test]
    fn single_process_tree_works() {
        let mut q = EventTree::new();
        q.reset(1);
        assert!(q.peek().is_none());
        q.set(Event::new(0.5, 1, 0));
        assert_eq!(q.pop().unwrap().time(), 0.5);
        assert!(q.pop().is_none());
    }

    #[test]
    fn reset_reuses_and_clears() {
        let mut q = EventTree::new();
        for trial in 0..20 {
            let n = 1 + (trial * 37) % 500;
            q.reset(n);
            assert!(q.is_empty());
            for pid in 0..n as u32 {
                q.set(Event::new(pid as f64 * 0.25, pid as u64, pid));
            }
            assert_eq!(q.len(), n);
            assert_eq!(q.peek().unwrap().pid(), 0);
        }
    }

    #[test]
    fn large_n_boundaries() {
        // Exercise multi-level trees around padding boundaries.
        for n in [7usize, 8, 9, 63, 64, 65, 511, 512, 513, 4097] {
            let mut q = EventTree::new();
            q.reset(n);
            for pid in (0..n as u32).rev() {
                q.set(Event::new(pid as f64, pid as u64, pid));
            }
            let popped: Vec<u32> = std::iter::from_fn(|| q.pop()).map(|e| e.pid()).collect();
            assert_eq!(popped, (0..n as u32).collect::<Vec<_>>(), "n = {n}");
        }
    }

    proptest! {
        /// Differential test against the heap under hold-model traffic.
        #[test]
        fn hold_traffic_matches_heap(
            starts in proptest::collection::vec(0.0f64..10.0, 1..60),
            incs in proptest::collection::vec(0.0f64..1e3, 0..200),
        ) {
            use crate::queue::EventQueue;
            let n = starts.len();
            let mut tree = EventTree::new();
            tree.reset(n);
            let mut heap = EventQueue::new();
            let mut seq = 0u64;
            for (pid, &t) in starts.iter().enumerate() {
                let e = Event::new(t, seq, pid as u32);
                seq += 1;
                tree.set(e);
                heap.push(e);
            }
            for (i, &inc) in incs.iter().enumerate() {
                let top_h = *heap.peek().unwrap();
                let top_t = tree.peek().unwrap();
                prop_assert_eq!(top_h, top_t, "diverged before hold {}", i);
                let new = Event::new(top_h.time() + inc, seq, top_h.pid());
                seq += 1;
                heap.pop();
                heap.push(new);
                tree.set(new);
            }
            let heap_rest: Vec<Event> = std::iter::from_fn(|| heap.pop()).collect();
            let tree_rest: Vec<Event> = std::iter::from_fn(|| tree.pop()).collect();
            prop_assert_eq!(heap_rest, tree_rest);
        }

        /// Arbitrary set/remove traffic keeps the root exact.
        #[test]
        fn set_remove_traffic_matches_model(
            ops in proptest::collection::vec((0usize..32, 0.0f64..50.0, any::<bool>()), 1..150),
        ) {
            let mut tree = EventTree::new();
            tree.reset(32);
            let mut model: Vec<Option<Event>> = vec![None; 32];
            let mut seq = 0u64;
            for &(pid, t, is_remove) in &ops {
                if is_remove {
                    tree.remove(pid as u32);
                    model[pid] = None;
                } else {
                    let e = Event::new(t, seq, pid as u32);
                    seq += 1;
                    tree.set(e);
                    model[pid] = Some(e);
                }
                let expect = model
                    .iter()
                    .flatten()
                    .copied()
                    .min_by(|a, b| a.key_cmp(b));
                prop_assert_eq!(tree.peek(), expect);
                prop_assert_eq!(tree.len(), model.iter().flatten().count());
            }
        }
    }
}
