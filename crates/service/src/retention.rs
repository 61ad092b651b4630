//! Instance retention: how long decided instances stay resident in
//! the shard tables.
//!
//! A multi-shot service decides millions of instances; keeping every
//! one in the in-memory table forever is the unbounded-growth bug the
//! ROADMAP called out. [`Retention`] bounds residency: once an
//! instance's commit fact is durable (appended to its shard journal),
//! the table entry is *evictable* — `status()` keeps answering for
//! evicted ids out of the compact journal index
//! ([`crate::InstanceStatus::Evicted`]), so eviction is invisible to
//! the API surface except for the cheaper answer shape.
//!
//! Eviction is deterministic: it happens in the serial publish pass of
//! [`crate::NcService::run_ready`], in commit order, so the resident
//! set after any batch is a pure function of the request stream —
//! never of threads or shard fan-out timing.

use std::collections::{BTreeMap, HashMap, VecDeque};

/// How long decided instances stay resident in the shard tables.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Retention {
    /// Never evict (the pre-durability behavior; table growth is
    /// unbounded).
    #[default]
    KeepAll,
    /// Keep at most `k` decided instances resident, evicting the
    /// earliest-decided first (FIFO in commit order).
    DecidedCap(usize),
    /// Keep at most `k` decided instances resident, evicting the least
    /// recently *polled* first ([`crate::NcService::poll`] refreshes
    /// recency; `status()` stays `&self` and does not).
    Lru(usize),
}

impl Retention {
    /// The residency cap, if the policy has one.
    pub(crate) fn cap(&self) -> Option<usize> {
        match self {
            Retention::KeepAll => None,
            Retention::DecidedCap(k) | Retention::Lru(k) => Some(*k),
        }
    }
}

/// Tracks which decided instances are resident and picks eviction
/// victims. Commit order doubles as both the FIFO axis
/// ([`Retention::DecidedCap`]) and the initial recency axis
/// ([`Retention::Lru`]); only `Lru` ever refreshes.
#[derive(Debug, Default)]
pub(crate) struct ResidencyTracker {
    policy: Retention,
    /// Monotone stamp source (commit order, refreshed by touches).
    next_stamp: u64,
    /// stamp -> id, ascending = eviction order.
    by_stamp: BTreeMap<u64, u64>,
    /// id -> its current stamp.
    stamp_of: HashMap<u64, u64>,
}

impl ResidencyTracker {
    pub(crate) fn new(policy: Retention) -> Self {
        ResidencyTracker {
            policy,
            ..Default::default()
        }
    }

    /// Number of decided instances currently resident.
    pub(crate) fn resident(&self) -> usize {
        self.by_stamp.len()
    }

    /// Records `id` as a freshly decided resident and drains any
    /// over-cap victims into `evict` (earliest stamp first).
    pub(crate) fn admit(&mut self, id: u64, evict: &mut VecDeque<u64>) {
        let Some(cap) = self.policy.cap() else {
            return;
        };
        let stamp = self.next_stamp;
        self.next_stamp += 1;
        self.by_stamp.insert(stamp, id);
        self.stamp_of.insert(id, stamp);
        while self.by_stamp.len() > cap {
            let (_, victim) = self.by_stamp.pop_first().expect("len > cap >= 0");
            self.stamp_of.remove(&victim);
            evict.push_back(victim);
        }
    }

    /// Refreshes `id`'s recency (LRU policy only; a no-op otherwise or
    /// when `id` is not resident).
    pub(crate) fn touch(&mut self, id: u64) {
        if !matches!(self.policy, Retention::Lru(_)) {
            return;
        }
        let Some(old) = self.stamp_of.get(&id).copied() else {
            return;
        };
        self.by_stamp.remove(&old);
        let stamp = self.next_stamp;
        self.next_stamp += 1;
        self.by_stamp.insert(stamp, id);
        self.stamp_of.insert(id, stamp);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(evict: &mut VecDeque<u64>) -> Vec<u64> {
        evict.drain(..).collect()
    }

    #[test]
    fn keep_all_never_evicts() {
        let mut t = ResidencyTracker::new(Retention::KeepAll);
        let mut evict = VecDeque::new();
        for id in 0..100 {
            t.admit(id, &mut evict);
        }
        assert!(evict.is_empty());
        assert_eq!(t.resident(), 0, "KeepAll tracks nothing");
    }

    #[test]
    fn decided_cap_evicts_fifo_in_commit_order() {
        let mut t = ResidencyTracker::new(Retention::DecidedCap(3));
        let mut evict = VecDeque::new();
        for id in [10, 20, 30] {
            t.admit(id, &mut evict);
        }
        assert!(evict.is_empty());
        t.admit(40, &mut evict);
        t.admit(50, &mut evict);
        assert_eq!(drain(&mut evict), vec![10, 20]);
        assert_eq!(t.resident(), 3);
        // Touch is a no-op under DecidedCap: 30 is still next out.
        t.touch(30);
        t.admit(60, &mut evict);
        assert_eq!(drain(&mut evict), vec![30]);
    }

    #[test]
    fn lru_touch_rescues_the_polled_instance() {
        let mut t = ResidencyTracker::new(Retention::Lru(2));
        let mut evict = VecDeque::new();
        t.admit(1, &mut evict);
        t.admit(2, &mut evict);
        t.touch(1); // 2 is now least recent
        t.admit(3, &mut evict);
        assert_eq!(drain(&mut evict), vec![2]);
        t.touch(999); // unknown id: no-op
        t.admit(4, &mut evict);
        assert_eq!(drain(&mut evict), vec![1]);
    }
}
