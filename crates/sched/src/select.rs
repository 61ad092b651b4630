//! The size heuristic that picks between the crate's two hold queues.
//!
//! The engine runs on one queue, the 4-ary heap ([`crate::EventQueue`]):
//! its event key `(time, seq, pid)` is total, so every correct priority
//! queue yields the same run, and the branchless tournament tree
//! ([`crate::EventTree`]) never beat the heap by a margin that held
//! across repeated measurements on the 2-core reference host
//! (`docs/engine-internals.md`, "Event queue").
//!
//! What is left here is engine-free. perfbench's `sched.hold_ns` is its
//! only user: it calls [`QueuePolicy::Auto`]'s [`QueuePolicy::kind_for`]
//! to pick which queue's hold operation it times at a workload's process
//! count. It goes, together with the tree, once that benchmark times
//! [`crate::EventQueue`] directly.

/// Smallest process count at which [`QueuePolicy::Auto`] picks the
/// branchless [`crate::EventTree`] over the 4-ary heap.
///
/// Engine-free: the engine always runs on the heap. perfbench's
/// `sched.hold_ns` is the only caller of the cut.
pub const TREE_MIN_N: usize = 4096;

/// Which hold queue a caller should time.
///
/// The default (`Auto`) applies the [`TREE_MIN_N`] size heuristic; the
/// forced variants pick one queue whatever the size.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum QueuePolicy {
    /// Pick by process count: heap below [`TREE_MIN_N`], tree at or
    /// above it.
    #[default]
    Auto,
    /// Always the 4-ary tournament-select heap ([`crate::EventQueue`]).
    Heap,
    /// Always the branchless tournament tree ([`crate::EventTree`]).
    Tree,
}

/// A concrete queue choice, after [`QueuePolicy`]'s heuristic has been
/// applied to a process count.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum QueueKind {
    /// The 4-ary tournament-select heap.
    Heap,
    /// The branchless pid-indexed tournament tree.
    Tree,
}

impl QueuePolicy {
    /// Resolves the policy for `n` processes: `Auto` cuts over from the
    /// heap to the tree at [`TREE_MIN_N`].
    #[inline]
    pub fn kind_for(self, n: usize) -> QueueKind {
        match self {
            QueuePolicy::Auto if n >= TREE_MIN_N => QueueKind::Tree,
            QueuePolicy::Auto | QueuePolicy::Heap => QueueKind::Heap,
            QueuePolicy::Tree => QueueKind::Tree,
        }
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
}
