//! The ABD wire protocol.
//!
//! Every register is replicated at every node as a timestamped value;
//! timestamps are `(counter, writer)` pairs ordered lexicographically,
//! which makes concurrent writes totally ordered and the emulation
//! multi-writer safe.
//!
//! A read and a write are the same two quorum round trips:
//!
//! 1. **Query**: send `Query` to all; collect a majority of `Reply`s,
//!    each a replica's (stamp, value); keep the maximum stamp.
//! 2. **Put**: send `Put` with a (stamp, value) to all; collect a
//!    majority of `Ack`s.
//!
//! A read puts back the freshest (stamp, value) it saw and returns that
//! value (the write-back is what upgrades regular to atomic: a later
//! read can't see an older value). A write ignores the replied values
//! and puts its own value under `counter = max + 1`, `writer = self`.

use std::fmt;

use nc_memory::{Addr, Bit, Word};

/// A logical timestamp: `(counter, writer)`, ordered lexicographically.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct Stamp {
    /// The write counter (monotone per register).
    pub counter: u64,
    /// The writing node (tie-breaker, makes stamps unique per write).
    pub writer: u32,
}

impl Stamp {
    /// The initial stamp of every register (value 0, "written" by
    /// nobody).
    pub(crate) const ZERO: Stamp = Stamp {
        counter: 0,
        writer: 0,
    };

    /// The successor stamp for a write by `writer`.
    pub(crate) fn next_for(self, writer: u32) -> Stamp {
        Stamp {
            counter: self.counter + 1,
            writer,
        }
    }
}

impl fmt::Display for Stamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}", self.counter, self.writer)
    }
}

/// Identifier of one client operation, unique per node (`node`, `seq`).
/// Replies carrying a stale `op` are discarded by the client.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct OpId {
    /// The node that issued the operation.
    pub node: u32,
    /// The node-local operation sequence number.
    pub seq: u64,
}

/// A protocol message payload.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Payload {
    /// Client → replica: what is your (stamp, value) for `addr`?
    Query {
        /// Operation id for reply matching.
        op: OpId,
        /// Register being read or written.
        addr: Addr,
    },
    /// Replica → client: my copy of the queried register.
    Reply {
        /// Operation id echoed.
        op: OpId,
        /// The replying replica (quorums count **distinct** replicas, so
        /// retransmitted or duplicated replies must be deduplicable).
        from: u32,
        /// Register stamp at the replica.
        stamp: Stamp,
        /// Register value at the replica (a write ignores it).
        value: Word,
    },
    /// Client → replica: adopt (stamp, value) for `addr` if newer
    /// (a read's write-back and a write's new value alike).
    Put {
        /// Operation id for ack matching.
        op: OpId,
        /// Register being updated.
        addr: Addr,
        /// Stamp to install (if greater than the replica's).
        stamp: Stamp,
        /// Value to install.
        value: Word,
    },
    /// Replica → client: `Put` applied (or superseded — still an ack).
    Ack {
        /// Operation id echoed.
        op: OpId,
        /// The acking replica (see [`Payload::Reply::from`]).
        from: u32,
    },
    /// Anti-entropy push between peers: the sender's decision (if any)
    /// plus one drip-fed replica entry. An undecided receiver adopts an
    /// incoming decision outright (decision adoption is safe: agreement
    /// of the underlying protocol makes every decision equal); the entry
    /// merges under the usual highest-stamp-wins rule, so repeated
    /// gossip rounds converge replica state across a healed partition.
    Gossip {
        /// The gossiping node.
        from: u32,
        /// The sender's decision, if it has one.
        decision: Option<Bit>,
        /// One replica entry (round-robin over the sender's replica).
        entry: Option<(Addr, Stamp, Word)>,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stamps_order_lexicographically() {
        let a = Stamp {
            counter: 1,
            writer: 9,
        };
        let b = Stamp {
            counter: 2,
            writer: 0,
        };
        assert!(a < b);
        let c = Stamp {
            counter: 1,
            writer: 3,
        };
        assert!(c < a);
        assert_eq!(
            Stamp::ZERO,
            Stamp {
                counter: 0,
                writer: 0
            }
        );
    }

    #[test]
    fn next_stamp_beats_everything_seen() {
        let seen = Stamp {
            counter: 7,
            writer: 4,
        };
        let next = seen.next_for(2);
        assert!(next > seen);
        assert!(
            next > Stamp {
                counter: 7,
                writer: u32::MAX
            }
        );
        assert_eq!(next.writer, 2);
    }

    #[test]
    fn stamp_display() {
        assert_eq!(
            Stamp {
                counter: 3,
                writer: 1
            }
            .to_string(),
            "3.1"
        );
    }
}
