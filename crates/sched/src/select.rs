//! Runtime event-queue selection: one trait over the crate's queue
//! implementations plus a size heuristic choosing between them.
//!
//! The engine's queue traffic is almost entirely the *hold* pattern —
//! pop the earliest event, push one successor for the same process —
//! over a totally ordered key space ([`Event::key_cmp`] never returns
//! `Equal` for distinct queued events). Totality means the pop sequence
//! of any correct priority queue is **uniquely determined**, so queue
//! choice is purely a performance knob: swapping implementations cannot
//! change simulation results (pinned by the differential equivalence
//! suites in `nc-engine`).
//!
//! Two implementations compete:
//!
//! * [`EventQueue`] — the 4-ary tournament-select heap. Hold cost is one
//!   root-to-leaf Floyd walk: `O(log₄ len)` levels, one cache line per
//!   level. Wins at small and medium `n`, where the whole heap stays in
//!   L1/L2.
//! * [`EventTree`] — the branchless pid-indexed tournament tree. Hold
//!   cost is a fixed `O(log₁₆ n)` reduction with **no data-dependent
//!   branches at all**, so it shrugs off the mispredicts that grow with
//!   heap depth. It overtakes the heap once the heap walk gets deep and
//!   its line-per-level misses stop hiding (measured crossover on the
//!   reference VM: between n = 1000 and n = 10000 on the isolated hold
//!   benchmark; [`TREE_MIN_N`] holds the conservative production cut).
//!
//! [`QueuePolicy`] is the engine-facing knob: `Auto` applies the
//! heuristic per run, `Heap`/`Tree` force an implementation (used by the
//! differential tests, benchmarks, and anyone who has measured their own
//! crossover).

use crate::queue::{Event, EventQueue};
use crate::tree::EventTree;

/// Smallest process count at which [`QueuePolicy::Auto`] picks the
/// branchless [`EventTree`] over the 4-ary heap.
///
/// Set from the `event_queue` hold benchmark on the reference VM: the
/// tree's fixed `log₁₆ n` branchless reduction beats the heap's
/// `log₄ n` line-per-level walk once the heap no longer fits hot cache.
/// Re-confirmed under the engine's end-to-end probe
/// (`bench_engine --probe --n {2048,4096,8192}`): per-event, the tree
/// loses at 2048, roughly ties at 4096, and wins at 8192. Re-tune on
/// new hardware by running `cargo bench -p nc-bench --bench event_queue`.
pub const TREE_MIN_N: usize = 4096;

/// Which queue implementation a simulation run should use.
///
/// The default (`Auto`) applies the [`TREE_MIN_N`] size heuristic per
/// run; the forced variants exist for differential tests and perf
/// ablations. Any choice produces bit-identical simulation results —
/// see the module docs.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum QueuePolicy {
    /// Pick per run by process count: heap below [`TREE_MIN_N`], tree at
    /// or above it.
    #[default]
    Auto,
    /// Always the 4-ary tournament-select heap ([`EventQueue`]).
    Heap,
    /// Always the branchless tournament tree ([`EventTree`]).
    Tree,
}

/// A concrete queue implementation choice, after [`QueuePolicy`]'s
/// heuristic has been applied to a run's process count.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum QueueKind {
    /// The 4-ary tournament-select heap.
    Heap,
    /// The branchless pid-indexed tournament tree.
    Tree,
}

impl QueuePolicy {
    /// Resolves the policy for a run with `n` processes: `Auto` cuts
    /// over from the heap to the tree at [`TREE_MIN_N`].
    #[inline]
    pub fn kind_for(self, n: usize) -> QueueKind {
        match self {
            QueuePolicy::Auto if n >= TREE_MIN_N => QueueKind::Tree,
            QueuePolicy::Auto | QueuePolicy::Heap => QueueKind::Heap,
            QueuePolicy::Tree => QueueKind::Tree,
        }
    }
}

/// The queue interface the simulation loops are generic over.
///
/// # Contract
///
/// Callers (the `nc-engine` drivers) maintain the engine invariants the
/// tree implementation depends on:
///
/// * at most one queued event per pid at any time;
/// * every queued `Event::pid()` is below the `n` given to
///   [`SimQueue::prepare`];
/// * [`SimQueue::reschedule_first`] is only called with an event whose
///   pid equals the current first event's pid (the hold operation).
///
/// Under that contract, and because the event key order is total, every
/// implementation yields the identical pop sequence.
pub trait SimQueue {
    /// Empties the queue and sizes it for pids `0..n`, keeping
    /// allocations for reuse across trials.
    fn prepare(&mut self, n: usize);

    /// Inserts a new event (used when priming a run).
    fn insert(&mut self, ev: Event);

    /// The earliest event, if any.
    fn first(&self) -> Option<Event>;

    /// Removes and returns the earliest event.
    fn pop_first(&mut self) -> Option<Event>;

    /// Replaces the earliest event with `ev` — the hold operation. `ev`
    /// must carry the same pid as the current first event.
    fn reschedule_first(&mut self, ev: Event);
}

impl SimQueue for EventQueue {
    #[inline]
    fn prepare(&mut self, _n: usize) {
        self.clear();
    }

    #[inline]
    fn insert(&mut self, ev: Event) {
        self.push(ev);
    }

    #[inline]
    fn first(&self) -> Option<Event> {
        self.peek().copied()
    }

    #[inline]
    fn pop_first(&mut self) -> Option<Event> {
        self.pop()
    }

    #[inline]
    fn reschedule_first(&mut self, ev: Event) {
        self.replace_top(ev);
    }
}

impl SimQueue for EventTree {
    #[inline]
    fn prepare(&mut self, n: usize) {
        self.reset(n);
    }

    #[inline]
    fn insert(&mut self, ev: Event) {
        self.set(ev);
    }

    #[inline]
    fn first(&self) -> Option<Event> {
        self.peek()
    }

    #[inline]
    fn pop_first(&mut self) -> Option<Event> {
        self.pop()
    }

    #[inline]
    fn reschedule_first(&mut self, ev: Event) {
        // The hold event carries the top's pid, so `set` reschedules the
        // popped slot in place — one leaf write + reduction, no separate
        // remove.
        self.set(ev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn auto_policy_switches_at_the_threshold() {
        assert_eq!(QueuePolicy::Auto.kind_for(1), QueueKind::Heap);
        assert_eq!(QueuePolicy::Auto.kind_for(TREE_MIN_N - 1), QueueKind::Heap);
        assert_eq!(QueuePolicy::Auto.kind_for(TREE_MIN_N), QueueKind::Tree);
        assert_eq!(QueuePolicy::Auto.kind_for(usize::MAX), QueueKind::Tree);
    }

    #[test]
    fn forced_policies_ignore_n() {
        for n in [0, 1, TREE_MIN_N, 10 * TREE_MIN_N] {
            assert_eq!(QueuePolicy::Heap.kind_for(n), QueueKind::Heap);
            assert_eq!(QueuePolicy::Tree.kind_for(n), QueueKind::Tree);
        }
    }

    /// Hold-model traffic through the trait produces the identical pop
    /// sequence on both implementations.
    #[test]
    fn trait_impls_agree_on_hold_traffic() {
        fn run<Q: SimQueue>(q: &mut Q) -> Vec<(u64, u32)> {
            q.prepare(8);
            let mut seq = 0u64;
            for pid in 0..8u32 {
                q.insert(Event::new(pid as f64 * 0.37, seq, pid));
                seq += 1;
            }
            let mut log = Vec::new();
            for i in 0..200 {
                let top = q.first().unwrap();
                log.push((top.seq(), top.pid()));
                if i % 5 == 4 {
                    q.pop_first();
                } else {
                    let inc = 0.1 + (i as f64 * 0.731).fract();
                    q.reschedule_first(Event::new(top.time() + inc, seq, top.pid()));
                    seq += 1;
                }
                if q.first().is_none() {
                    break;
                }
            }
            while let Some(e) = q.pop_first() {
                log.push((e.seq(), e.pid()));
            }
            log
        }
        let mut heap = EventQueue::new();
        let mut tree = EventTree::new();
        assert_eq!(run(&mut heap), run(&mut tree));
    }
}
