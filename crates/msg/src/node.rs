//! One message-passing node: replica + ABD client + lean-consensus.
//!
//! The node hosts a replica of every register (the highest-stamped value
//! it has seen per address, in a `Vec` sorted by address), an ABD client
//! executing one emulated register operation at a time, and an unchanged
//! [`nc_core::LeanConsensus`] step machine. Whenever the lean machine
//! surfaces a pending [`nc_memory::Op`], the client runs it as ABD's two
//! quorum round trips, a query and a put, which reads and writes share;
//! when the put's quorum answers, the machine is advanced — the
//! step-machine design means lean-consensus itself never learns it left
//! shared memory.
//!
//! Three robustness mechanisms ride on top of the classic emulation:
//!
//! * **Distinct-quorum counting.** Replies carry the replica id and the
//!   client marks responders in a bitset, so retransmitted or
//!   network-duplicated replies can never fake a majority.
//! * **Resendable phases.** Every phase keeps enough state to rebroadcast
//!   its request verbatim (`Node::resend`, same operation id); replicas
//!   are idempotent (highest-stamp-wins puts, re-replies deduplicated by
//!   the bitset), so the simulator's retry timers make the client
//!   survive message loss and partitions.
//! * **Gossip / anti-entropy.** `Node::gossip` pushes the node's
//!   decision plus one drip-fed replica entry to a round-robin peer; an
//!   undecided receiver adopts an incoming decision outright (safe by
//!   agreement of the underlying protocol) and merges entries under the
//!   highest-stamp rule — after a partition heals, the minority side
//!   catches up instead of stalling.
//!
//! Nodes may also share a memory plane (`SharedPlane`, one replica
//! held in common): plane members serve replica duties out of one
//! store, modelling mixed shared-memory/message deployments.
//! Merging replicas is safe — replica state is a join-semilattice under
//! highest-stamp-wins, and a shared replica is simply the join of its
//! members' private states.

use std::cell::RefCell;
use std::rc::Rc;

use nc_core::{LeanConsensus, Protocol, Status};
use nc_memory::{Addr, Bit, Op, Word};

use crate::proto::{OpId, Payload, Stamp};

/// Destination of an outgoing message: one peer, or every node (the
/// simulator expands `All` according to the configured channel model —
/// independent unicast delays, or a single broadcast delay).
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Dest {
    /// A single destination node.
    One(u32),
    /// Every node, including the sender.
    All,
}

/// A message handed to the network for delivery.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Outgoing {
    /// The sending node (the fault plane cuts links by endpoint pair).
    pub from: u32,
    /// Destination.
    pub to: Dest,
    /// The payload.
    pub payload: Payload,
}

/// One replica entry: a register's address, stamp and value.
type Entry = (Addr, Stamp, Word);

/// A replica shared by a subset of nodes, modelling a mixed
/// shared-memory/message deployment.
///
/// It holds the same `(address, stamp, value)` entries, sorted by
/// address, as a private replica, under the same highest-stamp-wins
/// `put`, so a `Put` applied by one member is instantly visible to every
/// member — the plane is the join of its members' replicas, which the
/// ABD emulation tolerates by construction. One rule differs: a put
/// whose stamp loses leaves no entry behind here, while a private
/// replica keeps a `(Stamp::ZERO, 0)` entry that gossip's drip counts.
pub(crate) type SharedPlane = Rc<RefCell<Vec<Entry>>>;

/// A replica holding only `sentinels`, each stamped just above
/// `Stamp::ZERO` (see [`Node::new`]).
pub(crate) fn seeded(sentinels: &[(Addr, Word)]) -> SharedPlane {
    let mut entries = Vec::with_capacity(sentinels.len());
    for &(addr, value) in sentinels {
        put(&mut entries, addr, Stamp::ZERO.next_for(0), value, true);
    }
    Rc::new(RefCell::new(entries))
}

/// Highest-stamp-wins put of `(stamp, value)` at `addr` into sorted
/// `entries`. An address with no entry reads as `(Stamp::ZERO, 0)`; a
/// put that does not beat that leaves the zero entry behind when
/// `keep_losers` is set (a private replica, whose gossip drip counts
/// it), and nothing otherwise (a shared plane).
fn put(entries: &mut Vec<Entry>, addr: Addr, stamp: Stamp, value: Word, keep_losers: bool) {
    match entries.binary_search_by_key(&addr, |e| e.0) {
        Ok(i) if stamp > entries[i].1 => entries[i] = (addr, stamp, value),
        Err(i) if stamp > Stamp::ZERO => entries.insert(i, (addr, stamp, value)),
        Err(i) if keep_losers => entries.insert(i, (addr, Stamp::ZERO, 0)),
        _ => {}
    }
}

/// What the ABD client is doing. A read and a write run the same two
/// round trips, and each waiting phase carries enough state to
/// rebroadcast its request verbatim on a retry timeout.
#[derive(Clone, Copy, Debug, PartialEq)]
enum ClientPhase {
    /// No operation in flight (lean machine decided, or about to start).
    Idle,
    /// Round trip 1: collecting `Reply`s; `write` holds a write's value.
    Query { addr: Addr, write: Option<Word> },
    /// Round trip 2: collecting `Ack`s for `(stamp, value)`; a read then
    /// returns `value`.
    Put {
        addr: Addr,
        stamp: Stamp,
        value: Word,
        read: bool,
    },
}

/// One simulated node.
#[derive(Debug)]
pub struct Node {
    id: u32,
    n: u32,
    machine: LeanConsensus,
    /// The replica: `(address, stamp, value)` entries sorted by address,
    /// so lookups binary-search and gossip's drip (entry `k % len`)
    /// walks them in address order — a pure function of the replica's
    /// contents, as run reproducibility needs. It holds one entry per
    /// address it has seen, so any [`Addr`] a caller passes costs one
    /// entry, not an array reaching up to that address. Plane members
    /// hold one `SharedPlane` in common; a private replica has the same
    /// type, with this node its only holder.
    replica: SharedPlane,
    /// The `keep_losers` rule of every put into `replica`: set for a
    /// private replica, clear for a shared plane.
    keep_losers: bool,
    phase: ClientPhase,
    /// Bumped on every phase transition; the simulator's retry timers
    /// carry the epoch they were armed for, so a stale timer (the phase
    /// it guarded already completed) dies silently.
    epoch: u64,
    op_seq: u64,
    /// The replicas the in-flight phase has heard from, one bit per
    /// node in `n.div_ceil(64)` words sized once, at construction.
    heard: Vec<u64>,
    /// How many bits of `heard` are set.
    replies: u32,
    /// The freshest `(stamp, value)` the in-flight query has heard.
    best: (Stamp, Word),
    /// Decision adopted from gossip (the local machine may still be
    /// mid-run; [`Node::decision`] prefers whichever exists).
    adopted: Option<Bit>,
    gossip_peer: u32,
    gossip_entry: usize,
    /// Emulated register operations completed (= lean-consensus ops).
    pub ops_done: u64,
}

impl Node {
    /// Creates node `id` of `n`, proposing `input`, with a private
    /// replica.
    ///
    /// The sentinels `a0[0] = a1[0] = 1` are pre-seeded into the local
    /// replica of every node (initial state, exactly like the
    /// shared-memory runs install them before the first step). They get
    /// a stamp above `Stamp::ZERO` so quorum replies carrying them
    /// outrank a reader's "never heard anything" initial best — with the
    /// zero stamp, the seeded 1 would tie with the default 0 and lose,
    /// and lean-consensus would (unsoundly) decide at round 1.
    ///
    /// Any `n ≥ 1` is supported: the reply bitset takes `n.div_ceil(64)`
    /// words, allocated here once.
    pub fn new(id: u32, n: u32, input: Bit, sentinels: &[(Addr, Word)]) -> Self {
        Self::with_replica(id, n, input, seeded(sentinels), true)
    }

    /// Creates node `id` of `n` whose replica duties are served out of
    /// `plane` (a shared word store; the plane carries the sentinels).
    pub(crate) fn new_shared(id: u32, n: u32, input: Bit, plane: SharedPlane) -> Self {
        Self::with_replica(id, n, input, plane, false)
    }

    fn with_replica(id: u32, n: u32, input: Bit, replica: SharedPlane, keep_losers: bool) -> Self {
        Node {
            id,
            n,
            machine: LeanConsensus::new(nc_memory::RaceLayout::at_base(0), input),
            replica,
            keep_losers,
            phase: ClientPhase::Idle,
            epoch: 0,
            op_seq: 0,
            heard: vec![0; n.div_ceil(64) as usize],
            replies: 0,
            best: (Stamp::ZERO, 0),
            adopted: None,
            gossip_peer: id,
            gossip_entry: 0,
            ops_done: 0,
        }
    }

    /// The decision: the lean machine's, or one adopted from gossip.
    pub fn decision(&self) -> Option<Bit> {
        self.machine.status().decision().or(self.adopted)
    }

    /// The lean machine's current round.
    pub fn round(&self) -> usize {
        self.machine.round()
    }

    /// Whether an ABD phase is in flight (waiting on quorum replies).
    pub(crate) fn awaiting(&self) -> bool {
        self.phase != ClientPhase::Idle
    }

    /// The phase epoch (see the field doc; used by retry timers).
    pub(crate) fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Enters `phase`, forgetting every reply the last phase heard.
    fn set_phase(&mut self, phase: ClientPhase) {
        self.phase = phase;
        self.epoch += 1;
        self.heard.fill(0);
        self.replies = 0;
        self.best = (Stamp::ZERO, 0);
    }

    /// Enters `phase` under a fresh operation id and broadcasts its
    /// request.
    fn start(&mut self, phase: ClientPhase, out: &mut Vec<Outgoing>) {
        self.op_seq += 1;
        self.set_phase(phase);
        self.resend(out);
    }

    /// The in-flight phase's operation id (`op_seq` moves on per phase).
    fn op_id(&self) -> OpId {
        OpId {
            node: self.id,
            seq: self.op_seq,
        }
    }

    /// Counts replica `from`'s answer to `op` toward the in-flight
    /// phase's quorum. Returns `false`, counting nothing, when `op` is
    /// stale or `from` already counted (a duplicated or retransmitted
    /// reply).
    fn hear(&mut self, op: OpId, from: u32) -> bool {
        let (word, bit) = ((from / 64) as usize, 1u64 << (from % 64));
        if op != self.op_id() || self.heard[word] & bit != 0 {
            return false;
        }
        self.heard[word] |= bit;
        self.replies += 1;
        true
    }

    fn send(&self, to: Dest, payload: Payload, out: &mut Vec<Outgoing>) {
        out.push(Outgoing {
            from: self.id,
            to,
            payload,
        });
    }

    /// `addr`'s `(stamp, value)` in the replica; `(Stamp::ZERO, 0)` when
    /// it has no entry.
    fn lookup(&self, addr: Addr) -> (Stamp, Word) {
        let entries = self.replica.borrow();
        match entries.binary_search_by_key(&addr, |e| e.0) {
            Ok(i) => (entries[i].1, entries[i].2),
            Err(_) => (Stamp::ZERO, 0),
        }
    }

    /// Puts `(stamp, value)` at `addr` into the replica (see `put`).
    fn store(&self, addr: Addr, stamp: Stamp, value: Word) {
        let mut entries = self.replica.borrow_mut();
        put(&mut entries, addr, stamp, value, self.keep_losers);
    }

    /// Gossip's drip: the next replica entry, round-robin over the
    /// sorted entries (`None` while there are none).
    fn drip(&mut self) -> Option<Entry> {
        let entries = self.replica.borrow();
        let entry = (!entries.is_empty()).then(|| entries[self.gossip_entry % entries.len()]);
        self.gossip_entry = self.gossip_entry.wrapping_add(1);
        entry
    }

    /// Starts the next emulated operation if the machine is pending and
    /// the client idle.
    pub fn kick(&mut self, out: &mut Vec<Outgoing>) {
        if self.phase != ClientPhase::Idle || self.adopted.is_some() {
            return;
        }
        let (addr, write) = match self.machine.status() {
            Status::Decided(_) => return,
            Status::Pending(Op::Read(addr)) => (addr, None),
            Status::Pending(Op::Write(addr, value)) => (addr, Some(value)),
        };
        self.start(ClientPhase::Query { addr, write }, out);
    }

    /// Rebroadcasts the in-flight phase's request (same operation id —
    /// replies already collected keep counting; replicas re-reply
    /// idempotently and the `heard` bitset deduplicates). Sends nothing
    /// when idle.
    pub(crate) fn resend(&self, out: &mut Vec<Outgoing>) {
        let op = self.op_id();
        let payload = match self.phase {
            ClientPhase::Idle => return,
            ClientPhase::Query { addr, .. } => Payload::Query { op, addr },
            ClientPhase::Put {
                addr, stamp, value, ..
            } => Payload::Put {
                op,
                addr,
                stamp,
                value,
            },
        };
        self.send(Dest::All, payload, out);
    }

    /// Emits one anti-entropy push to the next round-robin peer: the
    /// node's decision (if any) plus one replica entry, cycling through
    /// the replica so repeated rounds converge state.
    pub(crate) fn gossip(&mut self, out: &mut Vec<Outgoing>) {
        // Round-robin peer selection, skipping self (n = 1 degenerates
        // to self-gossip, which is harmless).
        self.gossip_peer = (self.gossip_peer + 1) % self.n;
        if self.gossip_peer == self.id && self.n > 1 {
            self.gossip_peer = (self.gossip_peer + 1) % self.n;
        }
        self.push_gossip(self.gossip_peer, out);
    }

    /// Sends `to` the node's decision (if any) and the next drip entry.
    fn push_gossip(&mut self, to: u32, out: &mut Vec<Outgoing>) {
        let payload = Payload::Gossip {
            from: self.id,
            decision: self.decision(),
            entry: self.drip(),
        };
        self.send(Dest::One(to), payload, out);
    }

    /// Handles one delivered message (replica duties + client progress),
    /// emitting any replies / next-phase broadcasts.
    pub fn on_message(&mut self, payload: Payload, out: &mut Vec<Outgoing>) {
        match payload {
            // ----- replica side -----
            Payload::Query { op, addr } => {
                let (stamp, value) = self.lookup(addr);
                let reply = Payload::Reply {
                    op,
                    from: self.id,
                    stamp,
                    value,
                };
                self.send(Dest::One(op.node), reply, out);
            }
            Payload::Put {
                op,
                addr,
                stamp,
                value,
            } => {
                self.store(addr, stamp, value);
                self.send(Dest::One(op.node), Payload::Ack { op, from: self.id }, out);
            }

            // ----- client side -----
            Payload::Reply {
                op,
                from,
                stamp,
                value,
            } => {
                let ClientPhase::Query { addr, write } = self.phase else {
                    return;
                };
                if !self.hear(op, from) {
                    return;
                }
                if stamp > self.best.0 {
                    self.best = (stamp, value);
                }
                if self.replies > self.n / 2 {
                    // Round trip 2: a read writes back the freshest
                    // (stamp, value); a write puts its own value under
                    // the next stamp.
                    let (stamp, value) = match write {
                        None => self.best,
                        Some(value) => (self.best.0.next_for(self.id), value),
                    };
                    let read = write.is_none();
                    let put = ClientPhase::Put {
                        addr,
                        stamp,
                        value,
                        read,
                    };
                    self.start(put, out);
                }
            }
            Payload::Ack { op, from } => {
                let ClientPhase::Put { value, read, .. } = self.phase else {
                    return;
                };
                if self.hear(op, from) && self.replies > self.n / 2 {
                    self.finish_op(read.then_some(value), out);
                }
            }

            // ----- gossip / anti-entropy -----
            Payload::Gossip {
                from,
                decision,
                entry,
            } => {
                if let Some((addr, stamp, value)) = entry {
                    self.store(addr, stamp, value);
                }
                match (decision, self.decision()) {
                    (Some(d), None) => {
                        // Adopt: abandon the in-flight phase (its timer
                        // dies with the epoch bump) and decide.
                        self.adopted = Some(d);
                        self.set_phase(ClientPhase::Idle);
                    }
                    // Push-pull: an undecided peer asked — answer with
                    // our decision (and an entry of our own).
                    (None, Some(_)) => self.push_gossip(from, out),
                    _ => {}
                }
            }
        }
    }

    fn finish_op(&mut self, read_value: Option<Word>, out: &mut Vec<Outgoing>) {
        self.set_phase(ClientPhase::Idle);
        self.ops_done += 1;
        self.machine.advance(read_value);
        // Immediately start the next operation (the network delay model
        // lives on messages; per-op think time is optional and handled by
        // the simulator's kick scheduling).
        self.kick(out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nc_memory::RaceLayout;

    fn sentinels() -> Vec<(Addr, Word)> {
        let layout = RaceLayout::at_base(0);
        vec![
            (layout.slot(Bit::Zero, 0), 1),
            (layout.slot(Bit::One, 0), 1),
        ]
    }

    fn expand(out: &mut Vec<Outgoing>, n: u32, queue: &mut Vec<(u32, Payload)>) {
        for o in out.drain(..) {
            match o.to {
                Dest::One(to) => queue.push((to, o.payload)),
                Dest::All => queue.extend((0..n).map(|to| (to, o.payload))),
            }
        }
    }

    /// Delivery loop with a seeded pseudo-random delivery order
    /// (`scramble = 0` gives strict FIFO). Strict FIFO is a symmetric,
    /// deterministic schedule that can tie split-input races forever —
    /// the message-passing incarnation of the paper's lockstep — so
    /// termination tests scramble the order.
    fn run_sync(nodes: &mut [Node], max_msgs: u64, scramble: u64) -> u64 {
        let n = nodes.len() as u32;
        let mut queue: Vec<(u32, Payload)> = Vec::new();
        let mut out = Vec::new();
        let mut lcg = scramble.wrapping_mul(2).wrapping_add(1);
        for node in nodes.iter_mut() {
            node.kick(&mut out);
        }
        let mut delivered = 0;
        loop {
            expand(&mut out, n, &mut queue);
            if queue.is_empty() || delivered >= max_msgs {
                return delivered;
            }
            let k = if scramble == 0 {
                0
            } else {
                lcg = lcg
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (lcg >> 33) as usize % queue.len()
            };
            let (to, payload) = queue.remove(k);
            delivered += 1;
            nodes[to as usize].on_message(payload, &mut out);
        }
    }

    fn stamp(counter: u64, writer: u32) -> Stamp {
        Stamp { counter, writer }
    }

    /// Replica `from`'s reply of `(stamp, value)` to `node`'s in-flight
    /// query.
    fn reply(node: &Node, from: u32, stamp: Stamp, value: Word) -> Payload {
        Payload::Reply {
            op: node.op_id(),
            from,
            stamp,
            value,
        }
    }

    #[test]
    fn solo_node_decides_its_input_via_quorum_of_one() {
        for input in Bit::BOTH {
            let mut nodes = vec![Node::new(0, 1, input, &sentinels())];
            run_sync(&mut nodes, 10_000, 0);
            assert_eq!(nodes[0].decision(), Some(input));
            assert_eq!(nodes[0].ops_done, 8, "lean still costs 8 emulated ops");
        }
    }

    #[test]
    fn three_nodes_unanimous_all_decide_input() {
        for input in Bit::BOTH {
            let mut nodes: Vec<Node> = (0..3)
                .map(|i| Node::new(i, 3, input, &sentinels()))
                .collect();
            run_sync(&mut nodes, 1_000_000, 0);
            for node in &nodes {
                assert_eq!(node.decision(), Some(input));
                assert_eq!(node.ops_done, 8);
            }
        }
    }

    #[test]
    fn mixed_inputs_agree_under_scrambled_delivery() {
        // (Strict FIFO can tie the race forever, like lockstep in shared
        // memory; a scrambled delivery order terminates.)
        for scramble in 1..=10u64 {
            let inputs = [Bit::Zero, Bit::One, Bit::One];
            let mut nodes: Vec<Node> = inputs
                .iter()
                .enumerate()
                .map(|(i, &b)| Node::new(i as u32, 3, b, &sentinels()))
                .collect();
            run_sync(&mut nodes, 5_000_000, scramble);
            let decisions: Vec<Bit> = nodes
                .iter()
                .map(|n| n.decision().expect("decided"))
                .collect();
            assert!(
                decisions.iter().all(|&d| d == decisions[0]),
                "{decisions:?}"
            );
        }
    }

    #[test]
    fn shared_plane_nodes_agree_with_private_nodes() {
        // Nodes 0 and 1 share a plane; node 2 is message-only. The mixed
        // deployment must still reach agreement under scrambled delivery.
        for scramble in 1..=5u64 {
            let plane = seeded(&sentinels());
            let inputs = [Bit::Zero, Bit::One, Bit::One];
            let mut nodes = vec![
                Node::new_shared(0, 3, inputs[0], Rc::clone(&plane)),
                Node::new_shared(1, 3, inputs[1], Rc::clone(&plane)),
                Node::new(2, 3, inputs[2], &sentinels()),
            ];
            run_sync(&mut nodes, 5_000_000, scramble);
            let decisions: Vec<Bit> = nodes
                .iter()
                .map(|n| n.decision().expect("decided"))
                .collect();
            assert!(
                decisions.iter().all(|&d| d == decisions[0]),
                "scramble {scramble}: {decisions:?}"
            );
            assert!(
                plane.borrow().len() > sentinels().len(),
                "members wrote through the plane"
            );
        }
    }

    #[test]
    fn replica_adopts_only_newer_stamps() {
        let mut node = Node::new(0, 2, Bit::Zero, &[]);
        let mut out = Vec::new();
        let addr = Addr::new(5);
        let op = OpId { node: 1, seq: 1 };
        let (newer, older) = (stamp(2, 1), stamp(1, 1));
        node.on_message(
            Payload::Put {
                op,
                addr,
                stamp: newer,
                value: 7,
            },
            &mut out,
        );
        node.on_message(
            Payload::Put {
                op,
                addr,
                stamp: older,
                value: 9,
            },
            &mut out,
        );
        assert_eq!(node.lookup(addr), (newer, 7));
        // Both puts were acked regardless.
        let acks = out
            .iter()
            .filter(|o| matches!(o.payload, Payload::Ack { .. }))
            .count();
        assert_eq!(acks, 2);
    }

    #[test]
    fn losing_puts_still_leave_an_entry_for_gossip() {
        // A read's put writes back a zero stamp when its quorum holds
        // nothing newer. A private replica keeps each such address at
        // the zero stamp, in address order, and gossip's drip (entry k
        // mod len) counts it; a shared plane keeps no entry for a put
        // that loses, so its drip stays empty.
        let five = Some((Addr::new(5), Stamp::ZERO, 0));
        let nine = Some((Addr::new(9), Stamp::ZERO, 0));
        let nodes = [
            (Node::new(0, 2, Bit::Zero, &[]), vec![five, nine, five]),
            (
                Node::new_shared(0, 2, Bit::Zero, seeded(&[])),
                vec![None; 3],
            ),
        ];
        for (mut node, want) in nodes {
            let mut out = Vec::new();
            let op = OpId { node: 1, seq: 1 };
            for addr in [Addr::new(9), Addr::new(5)] {
                let put = Payload::Put {
                    op,
                    addr,
                    stamp: Stamp::ZERO,
                    value: 0,
                };
                node.on_message(put, &mut out);
            }
            let drip: Vec<_> = (0..3).map(|_| node.drip()).collect();
            assert_eq!(drip, want);
        }
    }

    #[test]
    fn stale_replies_are_ignored() {
        // A reply or an ack under any op id but the in-flight phase's
        // counts toward no quorum, even from a replica not yet heard.
        let mut node = Node::new(0, 3, Bit::One, &sentinels());
        let mut out = Vec::new();
        node.kick(&mut out); // starts the read of a0[1], op_seq = 1
        let stale = OpId { node: 0, seq: 99 };
        for from in [1, 2] {
            let reply = Payload::Reply {
                op: stale,
                from,
                stamp: stamp(9, 9),
                value: 1,
            };
            node.on_message(reply, &mut out);
        }
        assert!(matches!(node.phase, ClientPhase::Query { .. }));
        assert_eq!((node.replies, node.best), (0, (Stamp::ZERO, 0)));
        // The query's own replies move it on to the put; a stale ack,
        // here one carrying the query's now-finished op id, does not.
        let query = node.op_id();
        node.on_message(reply(&node, 1, Stamp::ZERO, 0), &mut out);
        node.on_message(reply(&node, 2, Stamp::ZERO, 0), &mut out);
        assert!(matches!(node.phase, ClientPhase::Put { .. }));
        for op in [query, stale] {
            for from in [1, 2] {
                node.on_message(Payload::Ack { op, from }, &mut out);
            }
        }
        assert!(matches!(node.phase, ClientPhase::Put { .. }));
        assert_eq!((node.replies, node.ops_done), (0, 0));
    }

    #[test]
    fn duplicated_replies_do_not_fake_a_quorum() {
        // n = 3 needs 2 distinct replicas; two copies of the same reply
        // must not advance the phase.
        let mut node = Node::new(0, 3, Bit::One, &sentinels());
        let mut out = Vec::new();
        node.kick(&mut out);
        let first = reply(&node, 1, Stamp::ZERO, 0);
        node.on_message(first, &mut out);
        node.on_message(first, &mut out);
        assert!(
            matches!(node.phase, ClientPhase::Query { .. }),
            "duplicate reply advanced the phase"
        );
        // A reply from a second replica completes the majority.
        node.on_message(reply(&node, 2, Stamp::ZERO, 0), &mut out);
        assert!(matches!(node.phase, ClientPhase::Put { read: true, .. }));
    }

    #[test]
    fn a_read_puts_back_the_freshest_reply() {
        // n = 5: the quorum is three replies. The freshest of them, not
        // the first, is what the read writes back and then returns.
        let mut node = Node::new(0, 5, Bit::One, &sentinels());
        let mut out = Vec::new();
        node.kick(&mut out);
        let ClientPhase::Query { addr, write: None } = node.phase else {
            panic!("lean's first op is a read, got {:?}", node.phase);
        };
        for (from, counter, value) in [(3, 1, 4), (1, 7, 9), (4, 2, 5)] {
            node.on_message(reply(&node, from, stamp(counter, from), value), &mut out);
        }
        let want = ClientPhase::Put {
            addr,
            stamp: stamp(7, 1),
            value: 9,
            read: true,
        };
        assert_eq!(node.phase, want);
    }

    #[test]
    fn a_write_puts_its_value_under_the_next_stamp() {
        // Lean's third op is a write. Its put carries the highest stamp
        // in the query's reply quorum, moved on under the writer's id,
        // and the writer's own value; the replies' values are ignored.
        let mut node = Node::new(2, 5, Bit::One, &sentinels());
        let mut out = Vec::new();
        node.kick(&mut out);
        for _ in 0..4 {
            // Each read's two round trips hear three empty replicas.
            let op = node.op_id();
            for from in [0, 1, 3] {
                let answer = match node.phase {
                    ClientPhase::Query { .. } => reply(&node, from, Stamp::ZERO, 0),
                    _ => Payload::Ack { op, from },
                };
                node.on_message(answer, &mut out);
            }
        }
        assert_eq!(node.ops_done, 2);
        let ClientPhase::Query {
            addr,
            write: Some(value),
        } = node.phase
        else {
            panic!("lean's third op is a write, got {:?}", node.phase);
        };
        for (from, counter) in [(4, 3), (0, 5), (1, 4)] {
            node.on_message(reply(&node, from, stamp(counter, from), 7), &mut out);
        }
        let want = ClientPhase::Put {
            addr,
            stamp: stamp(6, 2),
            value,
            read: false,
        };
        assert_eq!(node.phase, want);
    }

    #[test]
    fn resend_rebroadcasts_the_current_phase_verbatim() {
        let mut node = Node::new(0, 3, Bit::One, &sentinels());
        let mut out = Vec::new();
        node.kick(&mut out);
        let original = out[0];
        out.clear();
        let epoch = node.epoch();
        node.resend(&mut out);
        assert_eq!(out, [original], "resend must repeat the same request");
        assert_eq!(node.epoch(), epoch, "resend must not bump the epoch");
        // Idle nodes have nothing to resend.
        let mut idle = Node::new(1, 3, Bit::One, &sentinels());
        idle.adopted = Some(Bit::One);
        out.clear();
        idle.resend(&mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn gossip_decision_is_adopted_by_undecided_peers() {
        let mut node = Node::new(0, 3, Bit::One, &sentinels());
        let mut out = Vec::new();
        node.kick(&mut out);
        assert!(node.awaiting());
        out.clear();
        node.on_message(
            Payload::Gossip {
                from: 2,
                decision: Some(Bit::Zero),
                entry: Some((Addr::new(9), Stamp::ZERO.next_for(2), 1)),
            },
            &mut out,
        );
        assert_eq!(node.decision(), Some(Bit::Zero), "adopted the decision");
        assert!(!node.awaiting(), "in-flight phase abandoned");
        assert_eq!(node.lookup(Addr::new(9)), (Stamp::ZERO.next_for(2), 1));
        // A decided node answers an undecided gossiper (push-pull).
        out.clear();
        node.on_message(
            Payload::Gossip {
                from: 1,
                decision: None,
                entry: None,
            },
            &mut out,
        );
        assert_eq!(out.len(), 1);
        assert!(matches!(
            out[0].payload,
            Payload::Gossip {
                decision: Some(Bit::Zero),
                ..
            }
        ));
        assert_eq!(out[0].to, Dest::One(1));
    }

    #[test]
    fn gossip_cycles_peers_and_entries() {
        let mut node = Node::new(1, 4, Bit::One, &sentinels());
        let mut out = Vec::new();
        for _ in 0..6 {
            node.gossip(&mut out);
        }
        let peers: Vec<Dest> = out.iter().map(|o| o.to).collect();
        assert!(!peers.contains(&Dest::One(1)), "never gossips to self");
        let want = [2, 3, 0, 2, 3, 0].map(Dest::One);
        assert_eq!(peers, want, "cycles through all peers");
        // Entries drip round-robin over the (sorted) replica.
        let entries: Vec<Addr> = out
            .iter()
            .filter_map(|o| match o.payload {
                Payload::Gossip {
                    entry: Some((addr, _, _)),
                    ..
                } => Some(addr),
                _ => None,
            })
            .collect();
        assert_eq!(entries.len(), 6);
        assert_ne!(entries[0], entries[1], "cursor advances");
        assert_eq!(entries[0], entries[2], "and wraps");
    }

    #[test]
    fn reply_bitset_dedups_and_counts_at_every_n() {
        // One bitset serves every n: inserts are idempotent and counts
        // exact across the word boundaries at 64, 128 and 256.
        for n in [1u32, 64, 65, 128, 129, 257] {
            let mut node = Node::new(0, n, Bit::One, &sentinels());
            assert_eq!(node.heard.len(), n.div_ceil(64) as usize);
            let op = node.op_id();
            for id in 0..n {
                assert!(node.hear(op, id), "first insert of {id} (n = {n})");
                assert!(!node.hear(op, id), "duplicate insert of {id} (n = {n})");
                assert_eq!(node.replies, id + 1);
            }
            assert_eq!(node.heard.iter().map(|w| w.count_ones()).sum::<u32>(), n);
        }
    }

    #[test]
    fn oversize_deployment_spills_mask_and_still_dedups() {
        // Regression for the old `assert!(n <= 128)`: n = 129 must
        // construct, and replica 128's reply must land in the bitset's
        // third word without shadowing replica 64 (which shares its bit
        // index mod 64).
        let mut node = Node::new(0, 129, Bit::One, &sentinels());
        let mut out = Vec::new();
        node.kick(&mut out);
        for from in [64u32, 128, 128] {
            node.on_message(reply(&node, from, Stamp::ZERO, 0), &mut out);
        }
        assert!(
            matches!(node.phase, ClientPhase::Query { .. }) && node.replies == 2,
            "expected 2 distinct replicas counted, phase = {:?}",
            node.phase
        );
        assert_eq!(node.heard, [0, 1, 1]);
    }

    #[test]
    fn sentinel_reads_come_back_as_one() {
        // One node, quorum 1: the first lean op is a read of a0[1] = 0;
        // step through manually until the round-1 final read of the
        // sentinel a1[0], which must return 1 (pre-seeded replica).
        let mut nodes = vec![Node::new(0, 1, Bit::Zero, &sentinels())];
        run_sync(&mut nodes, 10_000, 0);
        // Decision at round 2 proves the sentinel read returned 1 at
        // round 1 (otherwise lean would have decided at round 1, which
        // is impossible by construction).
        assert_eq!(nodes[0].machine.status().decision(), Some(Bit::Zero));
        assert_eq!(nodes[0].machine.round(), 2);
    }
}
