//! Instance retention: how long decided instances stay resident in
//! the instance table.
//!
//! [`Retention`] bounds how many decided instances are *resident*:
//! once an instance's commit fact is published (and, with an on-disk
//! journal, durable), its table slot is *evictable*. Eviction turns the
//! slot into an evicted one in place, which keeps the fact for the
//! reduced log and answers `status()` as
//! [`crate::InstanceStatus::Evicted`], so eviction is invisible to the
//! API surface except for the cheaper answer shape.
//!
//! Eviction is deterministic: it happens in the serial publish pass of
//! [`crate::NcService::run_ready`], in commit order, so the resident
//! set after any batch is a pure function of the request stream —
//! never of threads or shard fan-out timing.

use std::collections::{BTreeMap, HashMap, VecDeque};

/// How long decided instances stay resident in the instance table.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Retention {
    /// Never evict.
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

/// Tracks which decided instances are resident and picks eviction
/// victims. Commit order doubles as both the FIFO axis
/// ([`Retention::DecidedCap`]) and the initial recency axis
/// ([`Retention::Lru`]); only `Lru` ever refreshes.
#[derive(Debug)]
pub(crate) enum ResidencyTracker {
    /// Tracks nothing: nothing is ever evicted.
    KeepAll,
    /// Resident ids in commit order, oldest first.
    DecidedCap { cap: usize, fifo: VecDeque<u64> },
    /// Resident ids by recency stamp.
    Lru { cap: usize, order: LruOrder },
}

/// Recency order for [`Retention::Lru`].
#[derive(Debug, Default)]
pub(crate) struct LruOrder {
    /// Monotone stamp source (commit order, refreshed by touches).
    next_stamp: u64,
    /// stamp -> id, ascending = eviction order.
    by_stamp: BTreeMap<u64, u64>,
    /// id -> its current stamp.
    stamp_of: HashMap<u64, u64>,
}

impl LruOrder {
    /// Gives `id` the newest stamp, dropping its old one if it had one.
    fn stamp(&mut self, id: u64) {
        let stamp = self.next_stamp;
        self.next_stamp += 1;
        if let Some(old) = self.stamp_of.insert(id, stamp) {
            self.by_stamp.remove(&old);
        }
        self.by_stamp.insert(stamp, id);
    }
}

impl ResidencyTracker {
    pub(crate) fn new(policy: Retention) -> Self {
        match policy {
            Retention::KeepAll => ResidencyTracker::KeepAll,
            Retention::DecidedCap(cap) => ResidencyTracker::DecidedCap {
                cap,
                fifo: VecDeque::new(),
            },
            Retention::Lru(cap) => ResidencyTracker::Lru {
                cap,
                order: LruOrder::default(),
            },
        }
    }

    /// Records `id` as a freshly decided resident and returns the
    /// victim it forces out, if any. The tracker is at most `cap`
    /// before the admission, so one admission evicts at most one id.
    pub(crate) fn admit(&mut self, id: u64) -> Option<u64> {
        match self {
            ResidencyTracker::KeepAll => None,
            ResidencyTracker::DecidedCap { cap, fifo } => {
                fifo.push_back(id);
                if fifo.len() > *cap {
                    fifo.pop_front()
                } else {
                    None
                }
            }
            ResidencyTracker::Lru { cap, order } => {
                order.stamp(id);
                if order.by_stamp.len() <= *cap {
                    return None;
                }
                let (_, victim) = order.by_stamp.pop_first()?;
                order.stamp_of.remove(&victim);
                Some(victim)
            }
        }
    }

    /// Refreshes `id`'s recency (LRU policy only; a no-op otherwise or
    /// when `id` is not resident).
    pub(crate) fn touch(&mut self, id: u64) {
        if let ResidencyTracker::Lru { order, .. } = self {
            if order.stamp_of.contains_key(&id) {
                order.stamp(id);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keep_all_never_evicts() {
        let mut t = ResidencyTracker::new(Retention::KeepAll);
        for id in 0..100 {
            t.touch(id / 2);
            assert_eq!(t.admit(id), None);
        }
    }

    #[test]
    fn decided_cap_evicts_fifo_in_commit_order() {
        let mut t = ResidencyTracker::new(Retention::DecidedCap(3));
        for id in [10, 20, 30] {
            assert_eq!(t.admit(id), None);
        }
        assert_eq!(t.admit(40), Some(10));
        assert_eq!(t.admit(50), Some(20));
        // Touch is a no-op under DecidedCap: 30 is still next out.
        t.touch(30);
        assert_eq!(t.admit(60), Some(30));
    }

    #[test]
    fn lru_touch_rescues_the_polled_instance() {
        let mut t = ResidencyTracker::new(Retention::Lru(2));
        assert_eq!(t.admit(1), None);
        assert_eq!(t.admit(2), None);
        t.touch(1); // 2 is now least recent
        assert_eq!(t.admit(3), Some(2));
        t.touch(999); // unknown id: no-op
        assert_eq!(t.admit(4), Some(1));
        // Two residents, 3 then 4: each admission evicts the older.
        assert_eq!(t.admit(5), Some(3));
        assert_eq!(t.admit(6), Some(4));
    }

    #[test]
    fn one_admission_evicts_at_most_one() {
        // Past the cap, every admission evicts exactly one resident id,
        // so the residents stay at the cap: one victim always suffices.
        for policy in [Retention::DecidedCap(3), Retention::Lru(3)] {
            let mut t = ResidencyTracker::new(policy);
            let mut resident = Vec::new();
            for id in 0..20u64 {
                t.touch(id / 2);
                resident.push(id);
                let victim = t.admit(id);
                assert_eq!(victim.is_some(), id >= 3, "{policy:?} admitting {id}");
                resident.retain(|&r| Some(r) != victim);
                assert_eq!(resident.len(), (id as usize + 1).min(3), "{policy:?}");
            }
        }
    }
}
