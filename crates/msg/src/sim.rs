//! The noisy, faulty asynchronous network simulator.
//!
//! Every message suffers an independent random delay drawn from the
//! configured [`Noise`] distribution — the message-passing analogue of
//! the paper's noisy operation scheduling. Deliveries execute in time
//! order (deterministic tie-breaking), nodes may crash (dropping all
//! their future sends and deliveries), and the run ends when every live
//! node has decided.
//!
//! On top of the delay model sits a deterministic **network-fault
//! plane** ([`NetFaultSpec`]): i.i.d. message loss, duplication, and a
//! timed partition schedule, drawn from a stream salted independently of
//! the delay noise ([`salts::NET_FAULTS`]) so a run with
//! [`NetFaultSpec::none`] is byte-identical to the fault-free simulator.
//! Whenever faults are armed, a **recovery plane** ([`RecoverySpec`])
//! runs alongside: per-phase retry timers with deterministic
//! timeout/backoff (timeouts derived from the delay distribution via
//! [`Noise::timeout_hint`]) and periodic gossip/anti-entropy ticks
//! ([`salts::GOSSIP`] jitter), so quorum phases stranded by loss or a
//! partition are re-driven and minority-side nodes catch up after heal.
//!
//! Broadcasts can be expanded two ways ([`Channel`]): independent
//! per-recipient unicast delays (the default, matching E13), or a single
//! shared broadcast delay per send — the Clementi–Natale-style broadcast
//! model E17 compares against.
//!
//! Pending events — deliveries, retry timers and gossip ticks — wait in
//! the engine's [`EventQueue`], a 4-ary heap of 16-byte integer keys
//! `(time, seq, slot)`; the event bodies sit in a slab the `slot` field
//! indexes, so sifts never move them. The agenda gives every event the
//! next `seq` when it is scheduled, so no two keys tie and the pop order
//! is exactly `(time by total_cmp, scheduling order)`, whatever the
//! slot — the order the pre-fault oracle in `tests/net_faults.rs`
//! implements with a plain `BinaryHeap`. Equal times are common under
//! two-point, constant or geometric delays, so the scheduling order is
//! part of the behaviour: each copy, duplicate, retry timer and gossip
//! tick is scheduled the moment it is drawn (pinned by
//! `fault_streams_are_pinned` in the same file).

use nc_memory::{Bit, RaceLayout, Word};
use nc_sched::queue::MAX_PID;
use nc_sched::rng::salts;
use nc_sched::{stream_rng, EventQueue, Noise, QueuedEvent};
use rand::RngExt;

use crate::faults::{NetFaultError, NetFaultSpec, RecoverySpec};
use crate::node::{seeded, Dest, Node, Outgoing};
use crate::proto::Payload;

/// How a [`Dest::All`] send is expanded into the network.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Channel {
    /// Each recipient's copy gets its own independent delay draw (the
    /// classic point-to-point model; the historical default).
    #[default]
    Unicast,
    /// All recipients share one delay draw per broadcast (a radio /
    /// LAN-style medium): recipients hear the message simultaneously,
    /// which removes the order-statistic straggler wait of unicast
    /// quorums. Loss and duplication then also apply per broadcast, not
    /// per copy; partitions still cut per link.
    Broadcast,
}

/// Configuration of one message-passing consensus run.
#[derive(Clone, PartialEq, Debug)]
pub struct MsgConfig {
    /// Number of nodes.
    pub n: usize,
    /// Per-message delay distribution.
    pub delay: Noise,
    /// Inputs (defaults to the Figure 1 half-and-half split).
    pub inputs: Vec<Bit>,
    /// Nodes to crash at a given delivered-message count:
    /// `(node, after_deliveries)`. Must leave a majority alive for the
    /// ABD quorums to answer.
    pub crashes: Vec<(u32, u64)>,
    /// Safety cap on total processed events (deliveries, retry timers,
    /// gossip ticks; in a fault-free run only deliveries exist, so this
    /// is the historical delivery cap).
    pub max_deliveries: u64,
    /// Network-fault injection (default: none).
    pub faults: NetFaultSpec,
    /// Retry/gossip tuning; only consulted when `faults` injects
    /// something (see `NetFaultSpec::needs_recovery`).
    pub recovery: RecoverySpec,
    /// Broadcast expansion model (default: unicast).
    pub channel: Channel,
    /// Nodes whose replica duties are served out of one shared
    /// `SharedPlane` (one replica held in common): a mixed
    /// shared-memory/message deployment. Empty = every node keeps a
    /// private replica.
    pub shared_plane: Vec<u32>,
}

impl MsgConfig {
    /// A failure-free run of `n` nodes with half-and-half inputs.
    pub fn new(n: usize, delay: Noise) -> Self {
        MsgConfig {
            n,
            delay,
            inputs: (0..n).map(|i| Bit::from(i >= n / 2)).collect(),
            crashes: Vec::new(),
            max_deliveries: 50_000_000,
            faults: NetFaultSpec::none(),
            recovery: RecoverySpec::default(),
            channel: Channel::Unicast,
            shared_plane: Vec::new(),
        }
    }

    /// Replaces the inputs (builder-style).
    ///
    /// # Panics
    ///
    /// Panics if the length differs from `n`.
    pub fn with_inputs(mut self, inputs: Vec<Bit>) -> Self {
        assert_eq!(inputs.len(), self.n, "inputs length must equal n");
        self.inputs = inputs;
        self
    }

    /// Adds crash events (builder-style).
    pub fn with_crashes(mut self, crashes: Vec<(u32, u64)>) -> Self {
        self.crashes = crashes;
        self
    }

    /// Arms the network-fault plane (builder-style).
    pub fn with_faults(mut self, faults: NetFaultSpec) -> Self {
        self.faults = faults;
        self
    }

    /// Replaces the recovery tuning (builder-style).
    pub fn with_recovery(mut self, recovery: RecoverySpec) -> Self {
        self.recovery = recovery;
        self
    }

    /// Selects the broadcast expansion model (builder-style).
    pub fn with_channel(mut self, channel: Channel) -> Self {
        self.channel = channel;
        self
    }

    /// Puts `nodes` on one shared memory plane (builder-style).
    pub fn with_shared_plane(mut self, nodes: Vec<u32>) -> Self {
        self.shared_plane = nodes;
        self
    }

    /// Checks the whole configuration, returning the first problem
    /// found: a zero-node deployment, an `inputs` vector whose length is
    /// not `n`, a crash plan that would destroy the majority quorum, a
    /// degenerate partition shape (`NetFaultSpec::validate`), or — when
    /// the faults arm the recovery plane — a retry timeout or backoff
    /// that is not finite and positive.
    ///
    /// [`run_message_passing`] calls this eagerly, so a config error
    /// surfaces at the entry point instead of panicking (or silently
    /// no-opping) deep inside a worker thread. Service layers can call
    /// it themselves to turn bad configs into recoverable errors.
    pub fn validate(&self) -> Result<(), MsgConfigError> {
        if self.n == 0 {
            return Err(MsgConfigError::NoNodes);
        }
        if self.inputs.len() != self.n {
            return Err(MsgConfigError::InputsLength {
                inputs: self.inputs.len(),
                n: self.n,
            });
        }
        // Count *distinct* in-range node ids: a plan may legitimately
        // list the same node twice (first entry wins; rest are no-ops).
        let mut crash_ids: Vec<u32> = self
            .crashes
            .iter()
            .map(|&(node, _)| node)
            .filter(|&node| (node as usize) < self.n)
            .collect();
        crash_ids.sort_unstable();
        crash_ids.dedup();
        if crash_ids.len() >= self.n.div_ceil(2) {
            return Err(MsgConfigError::MajorityCrash {
                crashed: crash_ids.len(),
                n: self.n,
            });
        }
        self.faults
            .validate(self.n)
            .map_err(MsgConfigError::Faults)?;
        if self.faults.needs_recovery() {
            for (field, value) in [
                ("timeout_mult", self.recovery.timeout_mult),
                ("backoff", self.recovery.backoff),
            ] {
                if !(value.is_finite() && value > 0.0) {
                    return Err(MsgConfigError::StalledRetry { field, value });
                }
            }
        }
        Ok(())
    }
}

/// Why a [`MsgConfig`] is rejected (see [`MsgConfig::validate`]).
#[derive(Clone, PartialEq, Debug)]
pub enum MsgConfigError {
    /// `n == 0`: there is nothing to run.
    NoNodes,
    /// `inputs` does not hold exactly one input per node.
    InputsLength {
        /// Length of [`MsgConfig::inputs`].
        inputs: usize,
        /// Deployment size.
        n: usize,
    },
    /// The crash plan kills a majority of distinct nodes — the ABD
    /// emulation requires `f < n/2`, so the run would block forever by
    /// construction.
    MajorityCrash {
        /// Distinct in-range nodes the plan crashes.
        crashed: usize,
        /// Deployment size.
        n: usize,
    },
    /// The fault plane holds a degenerate partition shape.
    Faults(NetFaultError),
    /// The faults arm the retry timers, but a [`RecoverySpec`] field
    /// that sets their gaps is not finite and positive: a timer would
    /// re-fire at the instant it fired, and the clock would never
    /// advance.
    StalledRetry {
        /// The field: `"timeout_mult"` or `"backoff"`.
        field: &'static str,
        /// Its value.
        value: f64,
    },
}

impl std::fmt::Display for MsgConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MsgConfigError::NoNodes => write!(f, "need at least one node"),
            MsgConfigError::InputsLength { inputs, n } => {
                write!(f, "{inputs} inputs for {n} nodes (need one per node)")
            }
            MsgConfigError::MajorityCrash { crashed, n } => write!(
                f,
                "crashing {crashed} of {n} nodes would destroy the majority quorum"
            ),
            MsgConfigError::Faults(e) => write!(f, "{e}"),
            MsgConfigError::StalledRetry { field, value } => write!(
                f,
                "recovery {field} = {value} must be finite and positive when faults are armed, \
                 or a retry timer re-fires without advancing the clock"
            ),
        }
    }
}

impl std::error::Error for MsgConfigError {}

/// How a message-passing run ended.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Outcome {
    /// Every live node decided.
    Decided,
    /// The network drained with no progress possible (crash-heavy run).
    Drained,
    /// The event cap was hit with no partition in effect.
    CapHit,
    /// The run was still (or again) inside a partition window when it
    /// ran out of events — the cut, not the cap, is what starved it.
    PartitionStarved,
}

/// The outcome of a message-passing run.
#[derive(Clone, Debug)]
pub struct MsgReport {
    /// Per-node decision (`None` for crashed-before-deciding nodes).
    pub decisions: Vec<Option<Bit>>,
    /// Per-node lean round at the end.
    pub rounds: Vec<usize>,
    /// Per-node emulated register operations completed.
    pub ops: Vec<u64>,
    /// Total messages delivered.
    pub deliveries: u64,
    /// Total messages sent (per recipient copy).
    pub sent: u64,
    /// Simulated time of the last processed event.
    pub sim_time: f64,
    /// How the run ended.
    pub outcome: Outcome,
    /// Phase retransmissions fired by the retry timers.
    pub retries: u64,
    /// Anti-entropy pushes initiated by the gossip timers.
    pub gossip: u64,
    /// Messages dropped by the loss coin.
    pub lost: u64,
    /// Extra copies injected by the duplication coin.
    pub duplicated: u64,
    /// Messages dropped by a partition window.
    pub cut: u64,
    /// Per-node simulated time of first decision (`None` = never).
    pub decide_times: Vec<Option<f64>>,
}

/// A simulator event: a message delivery, a client retry timer, or a
/// gossip tick.
#[derive(Clone, Copy, Debug)]
enum Event {
    /// Deliver `payload` to `to`.
    Msg { to: u32, payload: Payload },
    /// Retry timer for `node`'s phase epoch `epoch` (`attempt` resends
    /// already fired; stale epochs die silently).
    Timeout { node: u32, epoch: u64, attempt: u32 },
    /// Periodic anti-entropy tick for `node`.
    GossipTick { node: u32 },
}

/// The pending events of one run: `(time, seq, slot)` keys in an
/// [`EventQueue`] (the key's `pid` field carries the slot), and the
/// bodies in `bodies`, a slab recycled through the `free` list. Every
/// push takes the next `seq`, so the slot never decides the pop order
/// (see the module docs).
#[derive(Debug, Default)]
struct Agenda {
    queue: EventQueue,
    bodies: Vec<Event>,
    free: Vec<u32>,
    /// The tie-break key of the latest push.
    seq: u64,
}

impl Agenda {
    /// Schedules `event` at `time` under the next tie-break key.
    fn push(&mut self, time: f64, event: Event) {
        self.seq += 1;
        let slot = match self.free.pop() {
            Some(slot) => {
                self.bodies[slot as usize] = event;
                slot
            }
            None => {
                assert!(
                    self.bodies.len() <= MAX_PID as usize,
                    "event slab full: a slot must fit the key's pid field (max {MAX_PID})"
                );
                self.bodies.push(event);
                (self.bodies.len() - 1) as u32
            }
        };
        self.queue.push(QueuedEvent::new(time, self.seq, slot));
    }

    /// Schedules delivery of `payload` to node `to` at `time`.
    fn send(&mut self, time: f64, to: u32, payload: Payload) {
        self.push(time, Event::Msg { to, payload });
    }

    /// Arms a retry timer at `time` for node `i`'s current phase if it
    /// is waiting and no timer chain guards this epoch yet; `armed` is
    /// the epoch the node's latest chain guards.
    fn arm(&mut self, time: f64, i: usize, node: &Node, armed: &mut u64) {
        if node.awaiting() && *armed != node.epoch() {
            *armed = node.epoch();
            let timer = Event::Timeout {
                node: i as u32,
                epoch: *armed,
                attempt: 0,
            };
            self.push(time, timer);
        }
    }

    /// Removes the earliest event, returning its time and body.
    fn pop(&mut self) -> Option<(f64, Event)> {
        let key = self.queue.pop()?;
        let slot = key.pid();
        self.free.push(slot);
        Some((key.time(), self.bodies[slot as usize]))
    }
}

/// Runs lean-consensus over ABD-emulated registers on a noisy — and
/// optionally faulty — network.
///
/// Deterministic in `(cfg, seed)`: the delay stream, the fault coins
/// ([`salts::NET_FAULTS`]) and the gossip jitter ([`salts::GOSSIP`]) are
/// all derived from `seed` through independent salts, so arming faults
/// never perturbs the delays of the fault-free path, and a config with
/// [`NetFaultSpec::none`] reproduces the pre-fault simulator event for
/// event.
///
/// # Panics
///
/// Panics if [`MsgConfig::validate`] rejects the configuration —
/// `cfg.n == 0`, an `inputs` length other than `n`, a crash schedule
/// killing a majority of **distinct** nodes (the ABD emulation requires
/// `f < n/2`; a run configured to violate that would block forever by
/// construction), a degenerate partition shape that would silently cut
/// nothing, or retry timers armed with a gap that cannot advance the
/// clock. Call `validate` first to handle these as recoverable errors
/// instead.
pub fn run_message_passing(cfg: &MsgConfig, seed: u64) -> MsgReport {
    if let Err(e) = cfg.validate() {
        panic!("{e}");
    }

    let layout = RaceLayout::at_base(0);
    let sentinels: Vec<(nc_memory::Addr, Word)> = vec![
        (layout.slot(Bit::Zero, 0), 1),
        (layout.slot(Bit::One, 0), 1),
    ];
    let plane = if cfg.shared_plane.is_empty() {
        None
    } else {
        Some(seeded(&sentinels))
    };
    let mut nodes: Vec<Node> = cfg
        .inputs
        .iter()
        .enumerate()
        .map(|(i, &b)| match &plane {
            Some(plane) if cfg.shared_plane.contains(&(i as u32)) => {
                Node::new_shared(i as u32, cfg.n as u32, b, std::rc::Rc::clone(plane))
            }
            _ => Node::new(i as u32, cfg.n as u32, b, &sentinels),
        })
        .collect();
    let mut alive = vec![true; cfg.n];

    let mut rng = stream_rng(seed, 0, salts::NOISE);
    let mut fault_rng = stream_rng(seed, 0, salts::NET_FAULTS);
    let mut gossip_rng = stream_rng(seed, 0, salts::GOSSIP);

    let mut queue = Agenda::default();
    let mut clock = 0.0f64;
    let mut sent = 0u64;
    let mut lost = 0u64;
    let mut duplicated = 0u64;
    let mut cut = 0u64;
    let mut retries = 0u64;
    let mut gossip_sent = 0u64;
    let mut decide_times: Vec<Option<f64>> = vec![None; cfg.n];

    let recovery_on = cfg.faults.needs_recovery();
    let hint = cfg.delay.timeout_hint().max(1e-6);
    let timeout0 = cfg.recovery.timeout_mult * hint;
    let gossip_interval = cfg.recovery.gossip_mult * hint;
    let mut armed_epoch = vec![u64::MAX; cfg.n];

    let mut outbox: Vec<Outgoing> = Vec::new();
    for node in nodes.iter_mut() {
        node.kick(&mut outbox);
    }
    if recovery_on {
        for (i, node) in nodes.iter().enumerate() {
            queue.arm(clock + timeout0, i, node, &mut armed_epoch[i]);
        }
        if gossip_interval > 0.0 {
            for node in 0..cfg.n as u32 {
                let jitter: f64 = gossip_rng.random();
                queue.push(gossip_interval * (1.0 + jitter), Event::GossipTick { node });
            }
        }
    }

    let mut events = 0u64;
    let mut deliveries = 0u64;
    let mut crash_plan = cfg.crashes.clone();

    loop {
        // Flush the outbox into the network. Every per-recipient copy
        // draws its delay from the noise stream in recipient order
        // (byte-compatible with the pre-fault simulator); fault coins
        // come from their own stream and only when the spec arms them.
        for out in outbox.drain(..) {
            if out.to == Dest::All && cfg.channel == Channel::Broadcast {
                // One shared delay and one loss/duplication draw for the
                // whole broadcast; partitions still cut per link.
                let delay = cfg.delay.sample(&mut rng);
                let lose_all = cfg.faults.loss > 0.0 && fault_rng.random::<f64>() < cfg.faults.loss;
                let dup_delay = (cfg.faults.duplicate > 0.0
                    && fault_rng.random::<f64>() < cfg.faults.duplicate)
                    .then(|| cfg.delay.sample(&mut fault_rng));
                for to in 0..cfg.n as u32 {
                    sent += 1;
                    if cfg.faults.cuts(out.from, to, clock) {
                        cut += 1;
                        continue;
                    }
                    if lose_all {
                        lost += 1;
                        continue;
                    }
                    queue.send(clock + delay, to, out.payload);
                    if let Some(dup_delay) = dup_delay {
                        duplicated += 1;
                        queue.send(clock + dup_delay, to, out.payload);
                    }
                }
                continue;
            }
            let recipients = match out.to {
                Dest::One(to) => to..to + 1,
                Dest::All => 0..cfg.n as u32,
            };
            for to in recipients {
                let delay = cfg.delay.sample(&mut rng);
                sent += 1;
                if cfg.faults.cuts(out.from, to, clock) {
                    cut += 1;
                    continue;
                }
                if cfg.faults.loss > 0.0 && fault_rng.random::<f64>() < cfg.faults.loss {
                    lost += 1;
                    continue;
                }
                queue.send(clock + delay, to, out.payload);
                if cfg.faults.duplicate > 0.0 && fault_rng.random::<f64>() < cfg.faults.duplicate {
                    duplicated += 1;
                    let dup_delay = cfg.delay.sample(&mut fault_rng);
                    queue.send(clock + dup_delay, to, out.payload);
                }
            }
        }

        // Done when every live node decided (in-flight events are
        // irrelevant then) or when nothing remains scheduled.
        let all_live_decided = (0..cfg.n).all(|i| !alive[i] || nodes[i].decision().is_some());
        if all_live_decided {
            break;
        }
        let Some((time, event)) = queue.pop() else {
            break; // network drained without progress (crash-heavy run)
        };
        if events >= cfg.max_deliveries {
            break;
        }
        events += 1;
        clock = time;

        match event {
            Event::Msg { to, payload } => {
                deliveries += 1;
                // Crash plan: crash nodes whose delivery count arrived.
                crash_plan.retain(|&(node, after)| {
                    if deliveries >= after {
                        if let Some(a) = alive.get_mut(node as usize) {
                            *a = false;
                        }
                        false
                    } else {
                        true
                    }
                });
                let i = to as usize;
                if alive[i] {
                    nodes[i].on_message(payload, &mut outbox);
                    if decide_times[i].is_none() && nodes[i].decision().is_some() {
                        decide_times[i] = Some(clock);
                    }
                    if recovery_on {
                        queue.arm(clock + timeout0, i, &nodes[i], &mut armed_epoch[i]);
                    }
                }
            }
            Event::Timeout {
                node,
                epoch,
                attempt,
            } => {
                let i = node as usize;
                // Fire only if the guarded phase is still in flight; a
                // stale epoch means the phase completed (or was
                // abandoned for an adopted decision) and the chain dies.
                if alive[i] && nodes[i].awaiting() && nodes[i].epoch() == epoch {
                    retries += 1;
                    nodes[i].resend(&mut outbox);
                    let exp = (attempt + 1).min(cfg.recovery.max_backoff_exp);
                    let backoff = timeout0 * cfg.recovery.backoff.powi(exp as i32);
                    queue.push(
                        clock + backoff,
                        Event::Timeout {
                            node,
                            epoch,
                            attempt: attempt + 1,
                        },
                    );
                }
            }
            Event::GossipTick { node } => {
                let i = node as usize;
                if alive[i] {
                    nodes[i].gossip(&mut outbox);
                    gossip_sent += 1;
                    let jitter: f64 = gossip_rng.random();
                    queue.push(
                        clock + gossip_interval * (0.75 + 0.5 * jitter),
                        Event::GossipTick { node },
                    );
                }
            }
        }
    }

    let all_live_decided = (0..cfg.n).all(|i| !alive[i] || nodes[i].decision().is_some());
    let outcome = if all_live_decided {
        Outcome::Decided
    } else if cfg.faults.partition_active(clock) {
        Outcome::PartitionStarved
    } else if events >= cfg.max_deliveries {
        Outcome::CapHit
    } else {
        Outcome::Drained
    };
    MsgReport {
        decisions: nodes.iter().map(|n| n.decision()).collect(),
        rounds: nodes.iter().map(|n| n.round()).collect(),
        ops: nodes.iter().map(|n| n.ops_done).collect(),
        deliveries,
        sent,
        sim_time: clock,
        outcome,
        retries,
        gossip: gossip_sent,
        lost,
        duplicated,
        cut,
        decide_times,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failure_free_runs_agree_across_distributions() {
        for (name, delay) in Noise::figure1_suite() {
            for seed in 0..3 {
                let cfg = MsgConfig::new(5, delay);
                let report = run_message_passing(&cfg, seed);
                assert_eq!(report.outcome, Outcome::Decided, "{name} seed {seed}");
                let decisions: Vec<Bit> = report.decisions.iter().map(|d| d.unwrap()).collect();
                assert!(
                    decisions.iter().all(|&d| d == decisions[0]),
                    "{name} seed {seed}: {decisions:?}"
                );
                // The fault-free path must not touch the recovery plane.
                assert_eq!(report.retries, 0);
                assert_eq!(report.gossip, 0);
                assert_eq!(report.lost + report.duplicated + report.cut, 0);
            }
        }
    }

    #[test]
    fn unanimous_inputs_decide_that_input() {
        for input in Bit::BOTH {
            let cfg =
                MsgConfig::new(4, Noise::Exponential { mean: 1.0 }).with_inputs(vec![input; 4]);
            let report = run_message_passing(&cfg, 9);
            assert_eq!(report.outcome, Outcome::Decided);
            assert!(report.decisions.iter().all(|&d| d == Some(input)));
            // Validity still costs exactly 8 emulated operations each.
            assert!(report.ops.iter().all(|&o| o == 8), "{:?}", report.ops);
        }
    }

    #[test]
    fn minority_crashes_do_not_block_the_quorum() {
        for seed in 0..5 {
            let cfg = MsgConfig::new(5, Noise::Exponential { mean: 1.0 })
                .with_crashes(vec![(0, 50), (1, 120)]);
            let report = run_message_passing(&cfg, seed);
            assert_eq!(report.outcome, Outcome::Decided, "seed {seed}");
            let live: Vec<Bit> = report.decisions[2..]
                .iter()
                .map(|d| d.expect("live node must decide"))
                .collect();
            assert!(live.iter().all(|&d| d == live[0]), "seed {seed}: {live:?}");
        }
    }

    #[test]
    #[should_panic(expected = "majority quorum")]
    fn majority_crash_plans_are_rejected() {
        let cfg =
            MsgConfig::new(4, Noise::Exponential { mean: 1.0 }).with_crashes(vec![(0, 1), (1, 2)]);
        run_message_passing(&cfg, 0);
    }

    #[test]
    fn duplicate_crash_entries_are_not_double_counted() {
        // Two entries for node 0 crash ONE node; at n = 4 that leaves a
        // 3-node majority and must be accepted (the old guard counted
        // entries, not distinct nodes, and spuriously rejected this).
        let cfg =
            MsgConfig::new(4, Noise::Exponential { mean: 1.0 }).with_crashes(vec![(0, 1), (0, 2)]);
        let report = run_message_passing(&cfg, 3);
        assert_eq!(report.outcome, Outcome::Decided);
        assert!(report.decisions[0].is_none(), "node 0 crashed undecided");
        let live: Vec<Bit> = report.decisions[1..]
            .iter()
            .map(|d| d.expect("live node must decide"))
            .collect();
        assert!(live.iter().all(|&d| d == live[0]), "{live:?}");
    }

    #[test]
    fn out_of_range_crash_ids_do_not_trip_the_guard() {
        // Ids >= n never crash anything real; they must not count
        // against the quorum budget either.
        let cfg = MsgConfig::new(4, Noise::Exponential { mean: 1.0 }).with_crashes(vec![
            (0, 40),
            (7, 1),
            (9, 2),
        ]);
        let report = run_message_passing(&cfg, 5);
        assert_eq!(report.outcome, Outcome::Decided);
    }

    #[test]
    fn determinism() {
        let cfg = MsgConfig::new(4, Noise::Uniform { lo: 0.0, hi: 2.0 });
        let a = run_message_passing(&cfg, 7);
        let b = run_message_passing(&cfg, 7);
        assert_eq!(a.decisions, b.decisions);
        assert_eq!(a.deliveries, b.deliveries);
        assert_eq!(a.sent, b.sent);
    }

    #[test]
    fn message_cost_scales_with_quorum_size() {
        // Each emulated op costs two broadcast phases (2n messages) plus
        // replies; total traffic should be Θ(ops · n).
        let cfg = MsgConfig::new(5, Noise::Exponential { mean: 1.0 });
        let report = run_message_passing(&cfg, 3);
        let total_ops: u64 = report.ops.iter().sum();
        assert!(report.sent as f64 >= total_ops as f64 * 2.0 * 5.0 * 0.9);
        assert!(report.sent as f64 <= total_ops as f64 * 8.0 * 5.0);
    }

    #[test]
    fn rounds_are_bounded_but_larger_than_shared_memory() {
        // Quorum waits average ~2n message delays per emulated op, which
        // ATTENUATES the environment noise (order-statistic
        // concentration): the race stays tied longer than in raw shared
        // memory, so rounds are higher — but still bounded and
        // terminating. Experiment E13 measures it.
        let cfg = MsgConfig::new(9, Noise::Exponential { mean: 1.0 });
        for seed in 0..5 {
            let report = run_message_passing(&cfg, seed);
            assert_eq!(report.outcome, Outcome::Decided, "seed {seed}");
            let max_round = report.rounds.iter().max().unwrap();
            assert!(*max_round < 500, "seed {seed}: round {max_round}");
        }
    }

    #[test]
    #[should_panic(expected = "inputs length")]
    fn mismatched_inputs_panic() {
        let _ = MsgConfig::new(3, Noise::Exponential { mean: 1.0 }).with_inputs(vec![Bit::Zero]);
    }

    #[test]
    fn oversize_deployment_decides_without_panicking() {
        // Regression: n = 129 used to hit `assert!(n <= 128)` in the
        // node's quorum bitmask; the reply bitset, three words here, must
        // carry a full unanimous run to a decision.
        let cfg =
            MsgConfig::new(129, Noise::Exponential { mean: 1.0 }).with_inputs(vec![Bit::One; 129]);
        assert_eq!(cfg.validate(), Ok(()));
        let report = run_message_passing(&cfg, 2);
        assert_eq!(report.outcome, Outcome::Decided);
        assert!(report.decisions.iter().all(|&d| d == Some(Bit::One)));
        assert!(report.ops.iter().all(|&o| o == 8), "lean still costs 8 ops");
    }

    #[test]
    fn validate_surfaces_config_errors_without_running() {
        let zero = MsgConfig::new(0, Noise::Exponential { mean: 1.0 });
        assert_eq!(zero.validate(), Err(MsgConfigError::NoNodes));

        let majority =
            MsgConfig::new(4, Noise::Exponential { mean: 1.0 }).with_crashes(vec![(0, 1), (1, 2)]);
        assert_eq!(
            majority.validate(),
            Err(MsgConfigError::MajorityCrash { crashed: 2, n: 4 })
        );

        let degenerate = MsgConfig::new(4, Noise::Exponential { mean: 1.0 })
            .with_faults(NetFaultSpec::none().with_partition(1.0, 1.0, vec![0]));
        assert!(matches!(
            degenerate.validate(),
            Err(MsgConfigError::Faults(
                crate::faults::NetFaultError::EmptyWindow { .. }
            ))
        ));
    }

    #[test]
    fn validate_rejects_inputs_of_the_wrong_length() {
        let mut short = MsgConfig::new(5, Noise::Exponential { mean: 1.0 });
        short.inputs.truncate(3);
        assert_eq!(
            short.validate(),
            Err(MsgConfigError::InputsLength { inputs: 3, n: 5 })
        );
        let mut long = MsgConfig::new(3, Noise::Exponential { mean: 1.0 });
        long.inputs = vec![Bit::One; 5];
        assert_eq!(
            long.validate(),
            Err(MsgConfigError::InputsLength { inputs: 5, n: 3 })
        );
    }

    #[test]
    #[should_panic(expected = "3 inputs for 5 nodes")]
    fn short_inputs_are_rejected_at_the_entry_point() {
        let mut cfg = MsgConfig::new(5, Noise::Exponential { mean: 1.0 });
        cfg.inputs.truncate(3);
        run_message_passing(&cfg, 0);
    }

    #[test]
    #[should_panic(expected = "5 inputs for 3 nodes")]
    fn long_inputs_are_rejected_at_the_entry_point() {
        let mut cfg = MsgConfig::new(3, Noise::Exponential { mean: 1.0 });
        cfg.inputs = vec![Bit::Zero; 5];
        run_message_passing(&cfg, 0);
    }

    /// Five nodes under 5% loss, which arms the retry timers.
    fn lossy_with(recovery: RecoverySpec) -> MsgConfig {
        MsgConfig::new(5, Noise::Exponential { mean: 1.0 })
            .with_faults(NetFaultSpec::none().with_loss(0.05))
            .with_recovery(recovery)
    }

    #[test]
    #[should_panic(expected = "recovery timeout_mult = 0 must be finite and positive")]
    fn a_timeout_that_cannot_advance_the_clock_is_rejected() {
        // A fault-free run arms no timers and never reads the field.
        let clean =
            MsgConfig::new(5, Noise::Exponential { mean: 1.0 }).with_recovery(RecoverySpec {
                timeout_mult: 0.0,
                ..RecoverySpec::default()
            });
        assert_eq!(clean.validate(), Ok(()));
        for bad in [-2.0, f64::NAN, f64::INFINITY, 0.0] {
            let cfg = lossy_with(RecoverySpec {
                timeout_mult: bad,
                ..RecoverySpec::default()
            });
            assert!(
                matches!(
                    cfg.validate(),
                    Err(MsgConfigError::StalledRetry { field: "timeout_mult", value })
                        if value.to_bits() == bad.to_bits()
                ),
                "timeout_mult {bad}"
            );
        }
        let cfg = lossy_with(RecoverySpec {
            timeout_mult: 0.0,
            ..RecoverySpec::default()
        });
        run_message_passing(&cfg, 0);
    }

    #[test]
    #[should_panic(expected = "recovery backoff = 0 must be finite and positive")]
    fn a_backoff_that_cannot_advance_the_clock_is_rejected() {
        for bad in [-1.5, f64::NAN, f64::NEG_INFINITY, 0.0] {
            let cfg = lossy_with(RecoverySpec {
                backoff: bad,
                ..RecoverySpec::default()
            });
            assert!(
                matches!(
                    cfg.validate(),
                    Err(MsgConfigError::StalledRetry { field: "backoff", value })
                        if value.to_bits() == bad.to_bits()
                ),
                "backoff {bad}"
            );
        }
        let cfg = lossy_with(RecoverySpec {
            backoff: 0.0,
            ..RecoverySpec::default()
        });
        run_message_passing(&cfg, 0);
    }

    #[test]
    #[should_panic(expected = "cuts nothing")]
    fn degenerate_partitions_are_rejected_at_the_entry_point() {
        let cfg = MsgConfig::new(4, Noise::Exponential { mean: 1.0 })
            .with_faults(NetFaultSpec::none().with_partition(5.0, 5.0, vec![0]));
        run_message_passing(&cfg, 0);
    }

    #[test]
    #[should_panic(expected = "the cut is a no-op")]
    fn full_side_partitions_are_rejected_at_the_entry_point() {
        let cfg = MsgConfig::new(3, Noise::Exponential { mean: 1.0 })
            .with_faults(NetFaultSpec::none().with_partition(0.0, 9.0, vec![0, 1, 2]));
        run_message_passing(&cfg, 0);
    }

    #[test]
    fn lossy_runs_recover_via_retries() {
        for seed in 0..3 {
            let cfg = MsgConfig::new(5, Noise::Exponential { mean: 1.0 })
                .with_faults(NetFaultSpec::none().with_loss(0.05));
            let report = run_message_passing(&cfg, seed);
            assert_eq!(report.outcome, Outcome::Decided, "seed {seed}");
            assert!(report.lost > 0, "seed {seed}: loss coin never fired");
            let decisions: Vec<Bit> = report.decisions.iter().map(|d| d.unwrap()).collect();
            assert!(decisions.iter().all(|&d| d == decisions[0]));
        }
    }

    #[test]
    fn total_duplication_cannot_fake_quorums() {
        // Every message duplicated: distinct-replica counting must keep
        // the emulation correct (agreement + validity).
        let cfg = MsgConfig::new(4, Noise::Exponential { mean: 1.0 })
            .with_inputs(vec![Bit::One; 4])
            .with_faults(NetFaultSpec {
                duplicate: 1.0,
                ..NetFaultSpec::none()
            });
        let report = run_message_passing(&cfg, 11);
        assert_eq!(report.outcome, Outcome::Decided);
        assert!(report.duplicated > 0);
        assert!(report.decisions.iter().all(|&d| d == Some(Bit::One)));
    }

    #[test]
    fn broadcast_channel_reaches_agreement() {
        for seed in 0..3 {
            let cfg = MsgConfig::new(5, Noise::Exponential { mean: 1.0 })
                .with_channel(Channel::Broadcast);
            let report = run_message_passing(&cfg, seed);
            assert_eq!(report.outcome, Outcome::Decided, "seed {seed}");
            let decisions: Vec<Bit> = report.decisions.iter().map(|d| d.unwrap()).collect();
            assert!(decisions.iter().all(|&d| d == decisions[0]));
        }
    }

    #[test]
    fn mixed_shared_plane_deployment_agrees() {
        for seed in 0..3 {
            let cfg = MsgConfig::new(5, Noise::Exponential { mean: 1.0 })
                .with_shared_plane(vec![0, 1, 2]);
            let report = run_message_passing(&cfg, seed);
            assert_eq!(report.outcome, Outcome::Decided, "seed {seed}");
            let decisions: Vec<Bit> = report.decisions.iter().map(|d| d.unwrap()).collect();
            assert!(decisions.iter().all(|&d| d == decisions[0]), "seed {seed}");
        }
    }
}
