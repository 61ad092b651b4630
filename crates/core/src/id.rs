//! Id consensus from a tree of binary consensus objects (footnote 2).
//!
//! > "In many cases, id consensus can be solved in a natural way using a
//! > (lg n)-depth tree of binary consensus protocols."
//!
//! Processes must agree on the **id of some active process** (not just a
//! bit). The construction decides the winner id one bit per level, LSB
//! first. At level `ℓ` each process
//!
//! 1. *announces* its current candidate id in the register for the
//!    candidate's `ℓ`-th bit (so losers can find a real candidate),
//! 2. proposes the candidate's `ℓ`-th bit to that level's binary
//!    consensus,
//! 3. if the decided bit differs from its candidate's, adopts the id
//!    found in the winning announcement register.
//!
//! Invariant: entering level `ℓ`, every process's candidate agrees with
//! the decided bits `0..ℓ`, and every candidate is some process's
//! original id. Binary-consensus validity guarantees the decided bit was
//! proposed, hence its announcement register was written *before* the
//! proposal — so the adopting read always finds a valid candidate.
//! After `⌈lg(id-space)⌉` levels all candidates are equal.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use nc_memory::Bit;

use crate::threaded::{NativeConsensus, RoundLimitError};

/// A wait-free id-consensus object for native threads.
///
/// `propose(id)` returns the agreed id, which is always some proposer's
/// id (validity) and the same for all callers (agreement).
///
/// # Example
///
/// ```
/// use nc_core::id::IdConsensus;
/// use std::sync::Arc;
///
/// let obj = Arc::new(IdConsensus::new(16));
/// let handles: Vec<_> = (0..4u32)
///     .map(|i| {
///         let o = Arc::clone(&obj);
///         std::thread::spawn(move || o.propose(i).unwrap())
///     })
///     .collect();
/// let winners: Vec<u32> = handles.into_iter().map(|h| h.join().unwrap()).collect();
/// assert!(winners.iter().all(|&w| w == winners[0]));
/// assert!(winners[0] < 4, "winner must be a proposer");
/// ```
pub struct IdConsensus {
    /// One (binary consensus, two announcement registers) per bit level.
    /// Announcement registers store `id + 1` (0 = empty).
    levels: Vec<(NativeConsensus, [AtomicU64; 2])>,
}

impl IdConsensus {
    /// Creates an id-consensus object for ids in `0..id_space`.
    ///
    /// # Panics
    ///
    /// Panics if `id_space == 0`.
    pub fn new(id_space: u32) -> Self {
        assert!(id_space > 0, "id space must be non-empty");
        let bits = (u32::BITS - (id_space - 1).leading_zeros()).max(1) as usize;
        let levels = (0..bits)
            .map(|_| {
                (
                    NativeConsensus::new(),
                    [AtomicU64::new(0), AtomicU64::new(0)],
                )
            })
            .collect();
        IdConsensus { levels }
    }

    /// Number of bit levels (the `lg n` tree depth).
    pub fn depth(&self) -> usize {
        self.levels.len()
    }

    /// Proposes `id` and returns the agreed id.
    ///
    /// # Errors
    ///
    /// Propagates [`RoundLimitError`] from an underlying binary consensus
    /// (see [`NativeConsensus::propose`]; astronomically unlikely under
    /// real scheduling).
    ///
    /// # Panics
    ///
    /// Panics if `id` is outside the id space the object was created for.
    pub fn propose(&self, id: u32) -> Result<u32, RoundLimitError> {
        assert!(
            (id as u64) < (1u64 << self.levels.len()),
            "id {id} outside the configured id space"
        );
        let mut candidate = id;
        for (level, (consensus, announce)) in self.levels.iter().enumerate() {
            let my_bit = (candidate >> level) & 1;
            // Announce before proposing: the decided bit's announcement
            // register is guaranteed non-empty by validity.
            announce[my_bit as usize].store(u64::from(candidate) + 1, Ordering::SeqCst);
            let decided = consensus.propose(Bit::from(my_bit == 1))?.value;
            let decided_bit = decided.word() as u32;
            if decided_bit != my_bit {
                let found = announce[decided_bit as usize].load(Ordering::SeqCst);
                debug_assert_ne!(found, 0, "winning announcement must exist (validity)");
                candidate = (found - 1) as u32;
            }
        }
        Ok(candidate)
    }
}

impl fmt::Debug for IdConsensus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("IdConsensus")
            .field("depth", &self.depth())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn depth_is_logarithmic() {
        assert_eq!(IdConsensus::new(1).depth(), 1);
        assert_eq!(IdConsensus::new(2).depth(), 1);
        assert_eq!(IdConsensus::new(3).depth(), 2);
        assert_eq!(IdConsensus::new(16).depth(), 4);
        assert_eq!(IdConsensus::new(17).depth(), 5);
        assert_eq!(IdConsensus::new(1 << 20).depth(), 20);
    }

    #[test]
    fn solo_proposer_wins_with_own_id() {
        let obj = IdConsensus::new(64);
        assert_eq!(obj.propose(37).unwrap(), 37);
        // Later proposers adopt the settled winner.
        assert_eq!(obj.propose(12).unwrap(), 37);
        assert_eq!(obj.propose(0).unwrap(), 37);
    }

    #[test]
    fn sequential_proposers_agree_on_first() {
        let obj = IdConsensus::new(8);
        let first = obj.propose(5).unwrap();
        for id in [0u32, 3, 7] {
            assert_eq!(obj.propose(id).unwrap(), first);
        }
    }

    #[test]
    fn concurrent_proposers_agree_on_a_proposed_id() {
        for trial in 0..20u32 {
            let obj = IdConsensus::new(32);
            let proposers: Vec<u32> = (0..6).map(|i| (i * 5 + trial) % 32).collect();
            let winners: Vec<u32> = std::thread::scope(|s| {
                let handles: Vec<_> = proposers
                    .iter()
                    .map(|&id| {
                        let obj = &obj;
                        s.spawn(move || obj.propose(id).unwrap())
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            let w = winners[0];
            assert!(
                winners.iter().all(|&x| x == w),
                "trial {trial}: {winners:?}"
            );
            assert!(
                proposers.contains(&w),
                "trial {trial}: winner {w} was never proposed ({proposers:?})"
            );
        }
    }

    #[test]
    fn boundary_ids_work() {
        let obj = IdConsensus::new(16);
        let w = obj.propose(15).unwrap();
        assert_eq!(w, 15);
        assert_eq!(obj.propose(0).unwrap(), 15);
    }

    #[test]
    #[should_panic(expected = "outside the configured id space")]
    fn out_of_space_id_panics() {
        IdConsensus::new(8).propose(8).unwrap();
    }

    #[test]
    fn debug_impl() {
        assert!(format!("{:?}", IdConsensus::new(4)).contains("depth"));
    }
}
