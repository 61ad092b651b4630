//! One message-passing node: replica + ABD client + lean-consensus.
//!
//! The node hosts a replica of every register (the highest-stamped value
//! it has seen per address, in a `Vec` sorted by address), an ABD client
//! executing one emulated register operation at a time, and an unchanged
//! [`nc_core::LeanConsensus`] step machine. Whenever the lean machine
//! surfaces a pending [`nc_memory::Op`], the client turns it into the
//! two-phase ABD exchange; when the quorum answers, the machine is
//! advanced — the step-machine design means lean-consensus itself never
//! learns it left shared memory.
//!
//! Three robustness mechanisms ride on top of the classic emulation:
//!
//! * **Distinct-quorum counting.** Replies carry the replica id and each
//!   phase tracks responders in a bitmask, so retransmitted or
//!   network-duplicated replies can never fake a majority.
//! * **Resendable phases.** Every phase keeps enough state to rebroadcast
//!   its request verbatim (`Node::resend`, same operation id); replicas
//!   are idempotent (highest-stamp-wins puts, re-replies deduplicated by
//!   the mask), so the simulator's retry timers make the client survive
//!   message loss and partitions.
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

/// A replica shared by a subset of nodes, modelling a mixed
/// shared-memory/message deployment.
///
/// It stores the same `(address, stamp, value)` entries, sorted by
/// address, as a private replica. Plane members hand out and absorb
/// `(stamp, value)` pairs through the same highest-stamp-wins rule, so
/// a `Put` applied by one member is instantly visible to every member —
/// the plane is the join of its members' replicas, which the ABD
/// emulation tolerates by construction. One rule differs: a put whose
/// stamp loses leaves no entry behind here, while a private replica
/// keeps a `(Stamp::ZERO, 0)` entry that gossip's drip counts.
#[derive(Debug)]
pub(crate) struct SharedPlane {
    entries: Vec<(Addr, Stamp, Word)>,
}

impl SharedPlane {
    /// Creates a plane pre-seeded with `sentinels` (same stamping rule
    /// as [`Node::new`]).
    pub(crate) fn new(sentinels: &[(Addr, Word)]) -> Rc<RefCell<Self>> {
        let mut plane = SharedPlane {
            entries: Vec::with_capacity(sentinels.len()),
        };
        for &(addr, value) in sentinels {
            plane.put(addr, Stamp::ZERO.next_for(0), value);
        }
        Rc::new(RefCell::new(plane))
    }

    fn put(&mut self, addr: Addr, stamp: Stamp, value: Word) {
        match self.entries.binary_search_by_key(&addr, |e| e.0) {
            Ok(i) if stamp > self.entries[i].1 => self.entries[i] = (addr, stamp, value),
            Err(i) if stamp > Stamp::ZERO => self.entries.insert(i, (addr, stamp, value)),
            _ => {}
        }
    }
}

/// The node's replica state: private, or a shared plane.
#[derive(Debug)]
enum ReplicaStore {
    /// A private replica: `(address, stamp, value)` entries sorted by
    /// address, so lookups binary-search and gossip's drip (entry
    /// `k % len`) walks them in address order — a pure function of the
    /// replica's contents, as run reproducibility needs. It holds one
    /// entry per address it has seen, so any [`Addr`] a caller passes
    /// costs one entry, not an array reaching up to that address.
    Private(Vec<(Addr, Stamp, Word)>),
    /// A plane shared with other nodes.
    Shared(Rc<RefCell<SharedPlane>>),
}

/// Index of `addr`'s entry in a sorted private replica, inserting
/// `(addr, Stamp::ZERO, 0)` there first if it has none. A put whose
/// stamp loses still leaves that entry behind, and gossip's drip
/// counts it.
fn entry_index(entries: &mut Vec<(Addr, Stamp, Word)>, addr: Addr) -> usize {
    entries
        .binary_search_by_key(&addr, |e| e.0)
        .unwrap_or_else(|i| {
            entries.insert(i, (addr, Stamp::ZERO, 0));
            i
        })
}

/// `addr`'s `(stamp, value)` in sorted `entries`; `(Stamp::ZERO, 0)`
/// when it has no entry.
fn lookup(entries: &[(Addr, Stamp, Word)], addr: Addr) -> (Stamp, Word) {
    match entries.binary_search_by_key(&addr, |e| e.0) {
        Ok(i) => (entries[i].1, entries[i].2),
        Err(_) => (Stamp::ZERO, 0),
    }
}

/// Gossip's drip: entry `k % len` of sorted `entries`, or `None` when
/// there are none.
fn nth_entry(entries: &[(Addr, Stamp, Word)], k: usize) -> Option<(Addr, Stamp, Word)> {
    (!entries.is_empty()).then(|| entries[k % entries.len()])
}

impl ReplicaStore {
    fn get(&self, addr: Addr) -> (Stamp, Word) {
        match self {
            ReplicaStore::Private(entries) => lookup(entries, addr),
            ReplicaStore::Shared(plane) => lookup(&plane.borrow().entries, addr),
        }
    }

    fn put(&mut self, addr: Addr, stamp: Stamp, value: Word) {
        match self {
            ReplicaStore::Private(entries) => {
                let i = entry_index(entries, addr);
                if stamp > entries[i].1 {
                    entries[i] = (addr, stamp, value);
                }
            }
            ReplicaStore::Shared(plane) => plane.borrow_mut().put(addr, stamp, value),
        }
    }

    fn nth_entry(&self, k: usize) -> Option<(Addr, Stamp, Word)> {
        match self {
            ReplicaStore::Private(entries) => nth_entry(entries, k),
            ReplicaStore::Shared(plane) => nth_entry(&plane.borrow().entries, k),
        }
    }
}

/// Distinct-replica reply mask: which replicas the in-flight phase has
/// heard from. The inline `u128` covers n ≤ 128 with zero allocation
/// (the overwhelmingly common case); larger configurations spill to a
/// boxed word vector sized once per phase, so oversize deployments work
/// instead of panicking a worker thread.
#[derive(Clone, Debug, PartialEq)]
enum Heard {
    /// n ≤ 128: one inline mask word.
    Inline(u128),
    /// n > 128: `⌈n / 64⌉` mask words.
    Spilled(Box<[u64]>),
}

impl Heard {
    /// An empty mask sized for an `n`-node deployment.
    fn for_n(n: u32) -> Self {
        if n <= 128 {
            Heard::Inline(0)
        } else {
            Heard::Spilled(vec![0u64; n.div_ceil(64) as usize].into_boxed_slice())
        }
    }

    /// Records a reply from replica `from`; returns `false` when that
    /// replica was already counted (duplicate / retransmitted reply).
    fn insert(&mut self, from: u32) -> bool {
        match self {
            Heard::Inline(mask) => {
                let bit = 1u128 << from;
                if *mask & bit != 0 {
                    return false;
                }
                *mask |= bit;
                true
            }
            Heard::Spilled(words) => {
                let (word, bit) = ((from / 64) as usize, 1u64 << (from % 64));
                if words[word] & bit != 0 {
                    return false;
                }
                words[word] |= bit;
                true
            }
        }
    }

    /// Number of distinct replicas heard from.
    fn count(&self) -> u32 {
        match self {
            Heard::Inline(mask) => mask.count_ones(),
            Heard::Spilled(words) => words.iter().map(|w| w.count_ones()).sum(),
        }
    }
}

/// What the ABD client is currently doing. Every waiting phase tracks
/// the distinct replicas heard from (`heard`, a bitmask) and carries
/// enough state to rebroadcast its request verbatim on a retry timeout.
#[derive(Clone, Debug, PartialEq)]
enum ClientPhase {
    /// No operation in flight (lean machine decided, or about to start).
    Idle,
    /// Read phase 1: collecting `ReadR` replies.
    ReadQuery {
        addr: Addr,
        heard: Heard,
        best: (Stamp, Word),
    },
    /// Read phase 2 (write-back): collecting `Ack`s; will return `value`.
    ReadBack {
        addr: Addr,
        stamp: Stamp,
        value: Word,
        heard: Heard,
    },
    /// Write phase 1: collecting `WriteR` stamps.
    WriteQuery {
        addr: Addr,
        value: Word,
        heard: Heard,
        best: Stamp,
    },
    /// Write phase 2: collecting `Ack`s.
    WritePut {
        addr: Addr,
        stamp: Stamp,
        value: Word,
        heard: Heard,
    },
}

/// One simulated node.
#[derive(Debug)]
pub struct Node {
    id: u32,
    n: u32,
    machine: LeanConsensus,
    replica: ReplicaStore,
    phase: ClientPhase,
    /// Bumped on every phase transition; the simulator's retry timers
    /// carry the epoch they were armed for, so a stale timer (the phase
    /// it guarded already completed) dies silently.
    epoch: u64,
    op_seq: u64,
    /// Decision adopted from gossip (the local machine may still be
    /// mid-run; [`Node::decision`] prefers whichever exists).
    adopted: Option<Bit>,
    gossip_peer: u32,
    gossip_entry: usize,
    /// Emulated register operations completed (= lean-consensus ops).
    pub ops_done: u64,
    /// Messages this node has sent.
    pub msgs_sent: u64,
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
    /// Any `n ≥ 1` is supported: the quorum mask keeps an inline `u128`
    /// fast path for n ≤ 128 and spills to a heap-backed bitset above.
    pub fn new(id: u32, n: u32, input: Bit, sentinels: &[(Addr, Word)]) -> Self {
        let mut replica = Vec::with_capacity(sentinels.len());
        for &(addr, value) in sentinels {
            let i = entry_index(&mut replica, addr);
            replica[i] = (addr, Stamp::ZERO.next_for(0), value);
        }
        Self::with_store(id, n, input, ReplicaStore::Private(replica))
    }

    /// Creates node `id` of `n` whose replica duties are served out of
    /// `plane` (a shared word store; the plane carries the sentinels).
    pub(crate) fn new_shared(id: u32, n: u32, input: Bit, plane: Rc<RefCell<SharedPlane>>) -> Self {
        Self::with_store(id, n, input, ReplicaStore::Shared(plane))
    }

    fn with_store(id: u32, n: u32, input: Bit, replica: ReplicaStore) -> Self {
        Node {
            id,
            n,
            machine: LeanConsensus::new(nc_memory::RaceLayout::at_base(0), input),
            replica,
            phase: ClientPhase::Idle,
            epoch: 0,
            op_seq: 0,
            adopted: None,
            gossip_peer: id,
            gossip_entry: 0,
            ops_done: 0,
            msgs_sent: 0,
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

    fn set_phase(&mut self, phase: ClientPhase) {
        self.phase = phase;
        self.epoch += 1;
    }

    fn quorum(&self) -> u32 {
        self.n / 2 + 1
    }

    fn broadcast(&mut self, payload: Payload, out: &mut Vec<Outgoing>) {
        out.push(Outgoing {
            from: self.id,
            to: Dest::All,
            payload,
        });
        self.msgs_sent += self.n as u64;
    }

    fn reply(&mut self, to: u32, payload: Payload, out: &mut Vec<Outgoing>) {
        out.push(Outgoing {
            from: self.id,
            to: Dest::One(to),
            payload,
        });
        self.msgs_sent += 1;
    }

    fn fresh_op(&mut self) -> OpId {
        self.op_seq += 1;
        OpId {
            node: self.id,
            seq: self.op_seq,
        }
    }

    fn current_op_id(&self) -> OpId {
        OpId {
            node: self.id,
            seq: self.op_seq,
        }
    }

    /// Starts the next emulated operation if the machine is pending and
    /// the client idle. Returns `true` if messages were emitted.
    pub fn kick(&mut self, out: &mut Vec<Outgoing>) -> bool {
        if self.phase != ClientPhase::Idle || self.adopted.is_some() {
            return false;
        }
        match self.machine.status() {
            Status::Decided(_) => false,
            Status::Pending(Op::Read(addr)) => {
                let op = self.fresh_op();
                self.set_phase(ClientPhase::ReadQuery {
                    addr,
                    heard: Heard::for_n(self.n),
                    best: (Stamp::ZERO, 0),
                });
                self.broadcast(Payload::ReadQ { op, addr }, out);
                true
            }
            Status::Pending(Op::Write(addr, value)) => {
                let op = self.fresh_op();
                self.set_phase(ClientPhase::WriteQuery {
                    addr,
                    value,
                    heard: Heard::for_n(self.n),
                    best: Stamp::ZERO,
                });
                self.broadcast(Payload::WriteQ { op, addr }, out);
                true
            }
        }
    }

    /// Rebroadcasts the in-flight phase's request (same operation id —
    /// replies already collected keep counting; replicas re-reply
    /// idempotently and the `heard` mask deduplicates). Returns `false`
    /// when idle.
    pub(crate) fn resend(&mut self, out: &mut Vec<Outgoing>) -> bool {
        let op = self.current_op_id();
        let payload = match self.phase {
            ClientPhase::Idle => return false,
            ClientPhase::ReadQuery { addr, .. } => Payload::ReadQ { op, addr },
            ClientPhase::WriteQuery { addr, .. } => Payload::WriteQ { op, addr },
            ClientPhase::ReadBack {
                addr, stamp, value, ..
            }
            | ClientPhase::WritePut {
                addr, stamp, value, ..
            } => Payload::Put {
                op,
                addr,
                stamp,
                value,
            },
        };
        self.broadcast(payload, out);
        true
    }

    /// Emits one anti-entropy push to the next round-robin peer: the
    /// node's decision (if any) plus one replica entry, cycling through
    /// the replica so repeated rounds converge state. Returns the chosen
    /// peer.
    pub(crate) fn gossip(&mut self, out: &mut Vec<Outgoing>) -> u32 {
        // Round-robin peer selection, skipping self (n = 1 degenerates
        // to self-gossip, which is harmless).
        self.gossip_peer = (self.gossip_peer + 1) % self.n;
        if self.gossip_peer == self.id && self.n > 1 {
            self.gossip_peer = (self.gossip_peer + 1) % self.n;
        }
        let entry = self.replica.nth_entry(self.gossip_entry);
        self.gossip_entry = self.gossip_entry.wrapping_add(1);
        let payload = Payload::Gossip {
            from: self.id,
            decision: self.decision(),
            entry,
        };
        self.reply(self.gossip_peer, payload, out);
        self.gossip_peer
    }

    /// Handles one delivered message (replica duties + client progress),
    /// emitting any replies / next-phase broadcasts.
    pub fn on_message(&mut self, payload: Payload, out: &mut Vec<Outgoing>) {
        match payload {
            // ----- replica side -----
            Payload::ReadQ { op, addr } => {
                let (stamp, value) = self.replica.get(addr);
                let from = self.id;
                self.reply(
                    op.node,
                    Payload::ReadR {
                        op,
                        from,
                        stamp,
                        value,
                    },
                    out,
                );
            }
            Payload::WriteQ { op, addr } => {
                let (stamp, _) = self.replica.get(addr);
                let from = self.id;
                self.reply(op.node, Payload::WriteR { op, from, stamp }, out);
            }
            Payload::Put {
                op,
                addr,
                stamp,
                value,
            } => {
                self.replica.put(addr, stamp, value);
                let from = self.id;
                self.reply(op.node, Payload::Ack { op, from }, out);
            }

            // ----- client side -----
            Payload::ReadR {
                op,
                from,
                stamp,
                value,
            } => {
                if !self.current_op(op) {
                    return;
                }
                if let ClientPhase::ReadQuery { addr, heard, best } = &mut self.phase {
                    if !heard.insert(from) {
                        return; // duplicate / retransmitted reply
                    }
                    if stamp > best.0 {
                        *best = (stamp, value);
                    }
                    if heard.count() > self.n / 2 {
                        // Phase 2: write back the freshest (stamp, value).
                        let (stamp, value) = *best;
                        let addr = *addr;
                        let op = self.fresh_op();
                        self.set_phase(ClientPhase::ReadBack {
                            addr,
                            stamp,
                            value,
                            heard: Heard::for_n(self.n),
                        });
                        self.broadcast(
                            Payload::Put {
                                op,
                                addr,
                                stamp,
                                value,
                            },
                            out,
                        );
                    }
                }
            }
            Payload::WriteR { op, from, stamp } => {
                if !self.current_op(op) {
                    return;
                }
                if let ClientPhase::WriteQuery {
                    addr,
                    value,
                    heard,
                    best,
                } = &mut self.phase
                {
                    if !heard.insert(from) {
                        return;
                    }
                    if stamp > *best {
                        *best = stamp;
                    }
                    if heard.count() > self.n / 2 {
                        let addr = *addr;
                        let value = *value;
                        let stamp = best.next_for(self.id);
                        let op = self.fresh_op();
                        self.set_phase(ClientPhase::WritePut {
                            addr,
                            stamp,
                            value,
                            heard: Heard::for_n(self.n),
                        });
                        self.broadcast(
                            Payload::Put {
                                op,
                                addr,
                                stamp,
                                value,
                            },
                            out,
                        );
                    }
                }
            }
            Payload::Ack { op, from } => {
                if !self.current_op(op) {
                    return;
                }
                let quorum = self.quorum();
                match &mut self.phase {
                    ClientPhase::ReadBack { heard, value, .. } => {
                        if !heard.insert(from) {
                            return;
                        }
                        if heard.count() >= quorum {
                            let v = *value;
                            self.finish_op(Some(v), out);
                        }
                    }
                    ClientPhase::WritePut { heard, .. } => {
                        if !heard.insert(from) {
                            return;
                        }
                        if heard.count() >= quorum {
                            self.finish_op(None, out);
                        }
                    }
                    _ => {}
                }
            }

            // ----- gossip / anti-entropy -----
            Payload::Gossip {
                from,
                decision,
                entry,
            } => {
                if let Some((addr, stamp, value)) = entry {
                    self.replica.put(addr, stamp, value);
                }
                match (decision, self.decision()) {
                    (Some(d), None) => {
                        // Adopt: abandon the in-flight phase (its timer
                        // dies with the epoch bump) and decide.
                        self.adopted = Some(d);
                        self.set_phase(ClientPhase::Idle);
                    }
                    (None, Some(_)) => {
                        // Push-pull: an undecided peer asked — answer
                        // with our decision (and an entry of our own).
                        let entry = self.replica.nth_entry(self.gossip_entry);
                        self.gossip_entry = self.gossip_entry.wrapping_add(1);
                        let payload = Payload::Gossip {
                            from: self.id,
                            decision: self.decision(),
                            entry,
                        };
                        self.reply(from, payload, out);
                    }
                    _ => {}
                }
            }
        }
    }

    /// Whether `op` belongs to the in-flight client phase (the client
    /// bumps `op_seq` per phase, so the current id is always `op_seq`).
    fn current_op(&self, op: OpId) -> bool {
        op.node == self.id && op.seq == self.op_seq
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
            let plane = SharedPlane::new(&sentinels());
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
                plane.borrow().entries.len() > sentinels().len(),
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
        let newer = Stamp {
            counter: 2,
            writer: 1,
        };
        let older = Stamp {
            counter: 1,
            writer: 1,
        };
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
        assert_eq!(node.replica.get(addr), (newer, 7));
        // Both puts were acked regardless.
        let acks = out
            .iter()
            .filter(|o| matches!(o.payload, Payload::Ack { .. }))
            .count();
        assert_eq!(acks, 2);
    }

    #[test]
    fn losing_puts_still_leave_an_entry_for_gossip() {
        // ReadBack phases write back zero stamps. A private replica
        // keeps each such address at the zero stamp, in address order,
        // and gossip's drip (entry k mod len) counts it; a shared plane
        // keeps no entry for a put that loses, so its drip stays empty.
        let five = Some((Addr::new(5), Stamp::ZERO, 0));
        let nine = Some((Addr::new(9), Stamp::ZERO, 0));
        let nodes = [
            (Node::new(0, 2, Bit::Zero, &[]), vec![five, nine, five]),
            (
                Node::new_shared(0, 2, Bit::Zero, SharedPlane::new(&[])),
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
            let drip: Vec<_> = (0..3).map(|k| node.replica.nth_entry(k)).collect();
            assert_eq!(drip, want);
        }
    }

    #[test]
    fn stale_replies_are_ignored() {
        let mut node = Node::new(0, 3, Bit::One, &sentinels());
        let mut out = Vec::new();
        node.kick(&mut out); // starts read of a0[1], op_seq = 1
        let stale = OpId { node: 0, seq: 99 };
        node.on_message(
            Payload::ReadR {
                op: stale,
                from: 1,
                stamp: Stamp {
                    counter: 9,
                    writer: 9,
                },
                value: 1,
            },
            &mut out,
        );
        // Phase must still be the original query with no replicas heard.
        assert!(matches!(&node.phase, ClientPhase::ReadQuery { heard, .. } if heard.count() == 0));
    }

    #[test]
    fn duplicated_replies_do_not_fake_a_quorum() {
        // n = 3 needs 2 distinct replicas; two copies of the same reply
        // must not advance the phase.
        let mut node = Node::new(0, 3, Bit::One, &sentinels());
        let mut out = Vec::new();
        node.kick(&mut out);
        let op = node.current_op_id();
        let reply = Payload::ReadR {
            op,
            from: 1,
            stamp: Stamp::ZERO,
            value: 0,
        };
        node.on_message(reply, &mut out);
        node.on_message(reply, &mut out);
        assert!(
            matches!(node.phase, ClientPhase::ReadQuery { .. }),
            "duplicate reply advanced the phase"
        );
        // A reply from a second replica completes the majority.
        node.on_message(
            Payload::ReadR {
                op,
                from: 2,
                stamp: Stamp::ZERO,
                value: 0,
            },
            &mut out,
        );
        assert!(matches!(node.phase, ClientPhase::ReadBack { .. }));
    }

    #[test]
    fn resend_rebroadcasts_the_current_phase_verbatim() {
        let mut node = Node::new(0, 3, Bit::One, &sentinels());
        let mut out = Vec::new();
        node.kick(&mut out);
        let original = out[0];
        out.clear();
        let epoch = node.epoch();
        assert!(node.resend(&mut out));
        assert_eq!(out[0], original, "resend must repeat the same request");
        assert_eq!(node.epoch(), epoch, "resend must not bump the epoch");
        // Idle nodes have nothing to resend.
        let mut idle = Node::new(1, 3, Bit::One, &sentinels());
        idle.adopted = Some(Bit::One);
        assert!(!idle.resend(&mut Vec::new()));
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
        assert_eq!(node.replica.get(Addr::new(9)), (Stamp::ZERO.next_for(2), 1));
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
        let peers: Vec<u32> = (0..6).map(|_| node.gossip(&mut out)).collect();
        assert!(peers.iter().all(|&p| p != 1), "never gossips to self");
        let distinct: std::collections::BTreeSet<u32> = peers.iter().copied().collect();
        assert_eq!(distinct.len(), 3, "cycles through all peers");
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
    fn heard_mask_inline_and_spilled_agree() {
        // The spilled representation must behave exactly like the
        // inline mask: idempotent inserts, exact distinct counts.
        for n in [1u32, 64, 128, 129, 130, 192, 257] {
            let mut heard = Heard::for_n(n);
            if n <= 128 {
                assert!(matches!(heard, Heard::Inline(0)));
            } else {
                assert!(matches!(&heard, Heard::Spilled(w) if w.len() == n.div_ceil(64) as usize));
            }
            for id in 0..n {
                assert!(heard.insert(id), "first insert of {id} (n = {n})");
                assert!(!heard.insert(id), "duplicate insert of {id} (n = {n})");
                assert_eq!(heard.count(), id + 1);
            }
        }
    }

    #[test]
    fn oversize_deployment_spills_mask_and_still_dedups() {
        // Regression for the old `assert!(n <= 128)`: n = 129 must
        // construct, and replica 128's reply must land in the spilled
        // mask's second word without shadowing replica 64 (which shares
        // its bit index mod 64).
        let mut node = Node::new(0, 129, Bit::One, &sentinels());
        let mut out = Vec::new();
        node.kick(&mut out);
        let op = node.current_op_id();
        for from in [64u32, 128, 128] {
            node.on_message(
                Payload::ReadR {
                    op,
                    from,
                    stamp: Stamp::ZERO,
                    value: 0,
                },
                &mut out,
            );
        }
        assert!(
            matches!(&node.phase, ClientPhase::ReadQuery { heard, .. } if heard.count() == 2),
            "expected 2 distinct replicas counted, phase = {:?}",
            node.phase
        );
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
