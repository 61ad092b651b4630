//! Network-fault plane integration tests.
//!
//! The load-bearing test here is the **differential oracle**: an
//! independent reimplementation of the pre-fault simulator loop (the
//! exact event loop shipped before the fault plane existed — per-copy
//! delay draws from the `NOISE` stream in recipient order, `(time, seq)`
//! heap ordering, delivery-count crash plan, delivery cap). A run of
//! [`run_message_passing`] with [`NetFaultSpec::none`] must match it
//! field for field across the Figure 1 noise suite — proving that arming
//! the fault machinery costs the pristine path nothing, byte for byte.
//! The committed E13 golden CSVs pin the same property end-to-end.
//! Faulted runs, which the oracle cannot follow, are pinned by one hash
//! in [`fault_streams_are_pinned`].

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use nc_memory::{Bit, RaceLayout, Word};
use nc_msg::node::{Dest, Node, Outgoing};
use nc_msg::{run_message_passing, Channel, MsgConfig, MsgReport, Outcome};
use nc_msg::{NetFaultSpec, Payload, RecoverySpec};
use nc_sched::rng::salts;
use nc_sched::{stream_rng, Noise};

// ---------------------------------------------------------------------
// The pre-fault simulator, reimplemented verbatim as the oracle.
// ---------------------------------------------------------------------

struct InFlight {
    time: f64,
    seq: u64,
    to: u32,
    payload: Payload,
}

impl PartialEq for InFlight {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for InFlight {}
impl PartialOrd for InFlight {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for InFlight {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .time
            .total_cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

struct OracleReport {
    decisions: Vec<Option<Bit>>,
    rounds: Vec<usize>,
    ops: Vec<u64>,
    deliveries: u64,
    sent: u64,
    sim_time: f64,
    completed: bool,
}

/// The historical `run_message_passing`: delays from `NOISE` stream 0,
/// one draw per recipient copy in recipient order, no other streams.
fn oracle(cfg: &MsgConfig, seed: u64) -> OracleReport {
    let layout = RaceLayout::at_base(0);
    let sentinels: Vec<(nc_memory::Addr, Word)> = vec![
        (layout.slot(Bit::Zero, 0), 1),
        (layout.slot(Bit::One, 0), 1),
    ];
    let mut nodes: Vec<Node> = cfg
        .inputs
        .iter()
        .enumerate()
        .map(|(i, &b)| Node::new(i as u32, cfg.n as u32, b, &sentinels))
        .collect();
    let mut alive = vec![true; cfg.n];
    let mut rng = stream_rng(seed, 0, salts::NOISE);
    let mut queue: BinaryHeap<InFlight> = BinaryHeap::new();
    let mut seq = 0u64;
    let mut clock = 0.0f64;
    let mut sent = 0u64;

    let mut outbox: Vec<Outgoing> = Vec::new();
    for node in nodes.iter_mut() {
        node.kick(&mut outbox);
    }

    let mut deliveries = 0u64;
    let mut crash_plan = cfg.crashes.clone();

    loop {
        for out in outbox.drain(..) {
            let recipients = match out.to {
                Dest::One(to) => to..to + 1,
                Dest::All => 0..cfg.n as u32,
            };
            for to in recipients {
                seq += 1;
                sent += 1;
                queue.push(InFlight {
                    time: clock + cfg.delay.sample(&mut rng),
                    seq,
                    to,
                    payload: out.payload,
                });
            }
        }

        let all_live_decided = (0..cfg.n).all(|i| !alive[i] || nodes[i].decision().is_some());
        if all_live_decided {
            break;
        }
        let Some(msg) = queue.pop() else {
            break;
        };
        if deliveries >= cfg.max_deliveries {
            break;
        }
        deliveries += 1;
        clock = msg.time;

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

        if alive[msg.to as usize] {
            nodes[msg.to as usize].on_message(msg.payload, &mut outbox);
        }
    }

    let completed = (0..cfg.n).all(|i| !alive[i] || nodes[i].decision().is_some());
    OracleReport {
        decisions: nodes.iter().map(|n| n.decision()).collect(),
        rounds: nodes.iter().map(|n| n.round()).collect(),
        ops: nodes.iter().map(|n| n.ops_done).collect(),
        deliveries,
        sent,
        sim_time: clock,
        completed,
    }
}

fn assert_matches_oracle(cfg: &MsgConfig, seed: u64, tag: &str) {
    let want = oracle(cfg, seed);
    let got = run_message_passing(cfg, seed);
    assert_eq!(got.decisions, want.decisions, "{tag}: decisions");
    assert_eq!(got.rounds, want.rounds, "{tag}: rounds");
    assert_eq!(got.ops, want.ops, "{tag}: ops");
    assert_eq!(got.deliveries, want.deliveries, "{tag}: deliveries");
    assert_eq!(got.sent, want.sent, "{tag}: sent");
    assert_eq!(
        got.sim_time.to_bits(),
        want.sim_time.to_bits(),
        "{tag}: sim_time must be bit-identical"
    );
    assert_eq!(
        got.outcome == Outcome::Decided,
        want.completed,
        "{tag}: outcome"
    );
    assert_eq!(
        (got.retries, got.gossip, got.lost, got.duplicated, got.cut),
        (0, 0, 0, 0, 0),
        "{tag}: fault-free run touched the fault/recovery plane"
    );
}

#[test]
fn faultless_config_is_byte_identical_to_the_prefault_simulator() {
    for (name, delay) in Noise::figure1_suite() {
        for seed in 0..3u64 {
            for n in [4usize, 5] {
                let cfg = MsgConfig::new(n, delay);
                assert_eq!(
                    cfg.faults,
                    NetFaultSpec::none(),
                    "default config must be fault-free"
                );
                assert_matches_oracle(&cfg, seed, &format!("{name} n={n} seed={seed}"));
            }
        }
    }
}

#[test]
fn faultless_crashy_config_is_byte_identical_too() {
    let cfg =
        MsgConfig::new(5, Noise::Exponential { mean: 1.0 }).with_crashes(vec![(0, 50), (1, 120)]);
    for seed in 0..3u64 {
        assert_matches_oracle(&cfg, seed, &format!("crashes seed={seed}"));
    }
}

// ---------------------------------------------------------------------
// Fault-plane behaviour.
// ---------------------------------------------------------------------

#[test]
fn partitioned_run_heals_and_terminates_without_cap_stall() {
    // Nodes {0, 1} are cut from the 3-node majority during [2, 40).
    // The majority can decide alone; the minority must catch up after
    // heal through retries and gossip — never by hitting the cap.
    for seed in 0..3u64 {
        let cfg = MsgConfig::new(5, Noise::Exponential { mean: 1.0 })
            .with_faults(NetFaultSpec::none().with_partition(2.0, 40.0, vec![0, 1]));
        let report = run_message_passing(&cfg, seed);
        assert_eq!(report.outcome, Outcome::Decided, "seed {seed}");
        assert!(report.cut > 0, "seed {seed}: partition never cut anything");
        assert!(report.retries > 0, "seed {seed}: no retries were needed?");
        let decisions: Vec<Bit> = report.decisions.iter().map(|d| d.unwrap()).collect();
        assert!(
            decisions.iter().all(|&d| d == decisions[0]),
            "seed {seed}: {decisions:?}"
        );
        // Everyone has a decide time, and none precedes the heal for the
        // minority side unless it decided before the cut started.
        for (i, t) in report.decide_times.iter().enumerate() {
            let t = t.unwrap_or_else(|| panic!("seed {seed}: node {i} has no decide time"));
            assert!(t <= report.sim_time);
        }
    }
}

#[test]
fn unhealed_partition_is_reported_as_starvation_not_cap_noise() {
    let mut cfg = MsgConfig::new(5, Noise::Exponential { mean: 1.0 })
        .with_faults(NetFaultSpec::none().with_partition(0.0, f64::INFINITY, vec![0, 1]));
    cfg.max_deliveries = 30_000;
    let report = run_message_passing(&cfg, 2);
    assert_eq!(report.outcome, Outcome::PartitionStarved);
    assert!(report.decisions[0].is_none() && report.decisions[1].is_none());
    assert_ne!(report.outcome, Outcome::Decided);
}

#[test]
fn loss_and_duplication_together_still_agree() {
    for seed in 0..3u64 {
        let cfg = MsgConfig::new(5, Noise::Exponential { mean: 1.0 }).with_faults(NetFaultSpec {
            duplicate: 0.10,
            ..NetFaultSpec::none().with_loss(0.10)
        });
        let report = run_message_passing(&cfg, seed);
        assert_eq!(report.outcome, Outcome::Decided, "seed {seed}");
        assert!(report.lost > 0 && report.duplicated > 0, "seed {seed}");
        let decisions: Vec<Bit> = report.decisions.iter().map(|d| d.unwrap()).collect();
        assert!(
            decisions.iter().all(|&d| d == decisions[0]),
            "seed {seed}: {decisions:?}"
        );
    }
}

#[test]
fn retry_only_recovery_heals_without_gossip() {
    for seed in 0..3u64 {
        let cfg = MsgConfig::new(5, Noise::Exponential { mean: 1.0 })
            .with_faults(NetFaultSpec::none().with_loss(0.05))
            .with_recovery(RecoverySpec {
                gossip_mult: 0.0,
                ..RecoverySpec::default()
            });
        let report = run_message_passing(&cfg, seed);
        assert_eq!(report.outcome, Outcome::Decided, "seed {seed}");
        assert_eq!(report.gossip, 0, "gossip was disabled");
    }
}

#[test]
fn broadcast_channel_with_partition_heals_too() {
    for seed in 0..3u64 {
        let cfg = MsgConfig::new(5, Noise::Exponential { mean: 1.0 })
            .with_channel(Channel::Broadcast)
            .with_faults(NetFaultSpec::none().with_partition(2.0, 40.0, vec![0, 1]));
        let report = run_message_passing(&cfg, seed);
        assert_eq!(report.outcome, Outcome::Decided, "seed {seed}");
        let decisions: Vec<Bit> = report.decisions.iter().map(|d| d.unwrap()).collect();
        assert!(decisions.iter().all(|&d| d == decisions[0]), "seed {seed}");
    }
}

#[test]
fn faulty_runs_are_deterministic_in_cfg_and_seed() {
    let cfg = MsgConfig::new(5, Noise::Uniform { lo: 0.0, hi: 2.0 })
        .with_faults(NetFaultSpec {
            duplicate: 0.05,
            ..NetFaultSpec::none()
                .with_loss(0.08)
                .with_partition(3.0, 25.0, vec![0, 4])
        })
        .with_shared_plane(vec![1, 2]);
    let a = run_message_passing(&cfg, 13);
    let b = run_message_passing(&cfg, 13);
    assert_eq!(a.decisions, b.decisions);
    assert_eq!(a.outcome, b.outcome);
    assert_eq!(a.deliveries, b.deliveries);
    assert_eq!(a.sent, b.sent);
    assert_eq!(a.retries, b.retries);
    assert_eq!(a.gossip, b.gossip);
    assert_eq!(a.lost, b.lost);
    assert_eq!(a.duplicated, b.duplicated);
    assert_eq!(a.cut, b.cut);
    assert_eq!(a.sim_time.to_bits(), b.sim_time.to_bits());
    let ta: Vec<Option<u64>> = a.decide_times.iter().map(|t| t.map(f64::to_bits)).collect();
    let tb: Vec<Option<u64>> = b.decide_times.iter().map(|t| t.map(f64::to_bits)).collect();
    assert_eq!(ta, tb);
}

// ---------------------------------------------------------------------
// Faulty-path event order.
// ---------------------------------------------------------------------

/// Folds `bytes` into a running FNV-1a (64-bit) hash.
fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// Folds every field of `report` into `hash`, floats by their bits.
fn fold_report(mut hash: u64, report: &MsgReport) -> u64 {
    for d in &report.decisions {
        hash = fnv1a(hash, &[d.map_or(2, |b| b.word() as u8)]);
    }
    for &r in &report.rounds {
        hash = fnv1a(hash, &(r as u64).to_le_bytes());
    }
    for ops in &report.ops {
        hash = fnv1a(hash, &ops.to_le_bytes());
    }
    for count in [
        report.deliveries,
        report.sent,
        report.sim_time.to_bits(),
        report.retries,
        report.gossip,
        report.lost,
        report.duplicated,
        report.cut,
    ] {
        hash = fnv1a(hash, &count.to_le_bytes());
    }
    hash = fnv1a(hash, format!("{:?}", report.outcome).as_bytes());
    for t in &report.decide_times {
        hash = fnv1a(hash, &t.map_or(u64::MAX, f64::to_bits).to_le_bytes());
    }
    hash
}

/// Pins the event order of faulted runs, where retry timers, gossip
/// ticks and duplicates share the queue with deliveries. Integer-valued
/// delays make equal event times common, so the insertion sequence
/// decides most of the order; a short timeout makes the timers fire
/// often. The oracle tests above cover only fault-free runs, which
/// schedule no timers and no gossip. Any change to which event gets
/// which tie-break key — or to when a coin or delay is drawn — moves
/// the hash.
#[test]
fn fault_streams_are_pinned() {
    let recovery = RecoverySpec {
        timeout_mult: 2.0,
        ..RecoverySpec::default()
    };
    let shapes = [
        (Channel::Unicast, NetFaultSpec::none().with_loss(0.2)),
        (
            Channel::Unicast,
            NetFaultSpec {
                duplicate: 0.2,
                ..NetFaultSpec::none().with_loss(0.1)
            },
        ),
        (
            Channel::Unicast,
            NetFaultSpec::none()
                .with_loss(0.1)
                .with_partition(3.0, 30.0, vec![0, 1]),
        ),
        (Channel::Broadcast, NetFaultSpec::none().with_loss(0.2)),
    ];
    let mut configs = Vec::new();
    for delay in [
        Noise::TwoPoint { lo: 1.0, hi: 2.0 },
        Noise::Constant { value: 1.0 },
        Noise::Geometric { p: 0.5 },
    ] {
        for (channel, faults) in &shapes {
            let mut cfg = MsgConfig::new(5, delay)
                .with_channel(*channel)
                .with_faults(faults.clone())
                .with_recovery(recovery);
            cfg.max_deliveries = 200_000;
            configs.push(cfg);
        }
    }
    // The benchmark's `msg_loss5` configuration.
    configs.push(
        MsgConfig::new(5, Noise::Exponential { mean: 1.0 })
            .with_faults(NetFaultSpec::none().with_loss(0.05))
            .with_recovery(RecoverySpec::default()),
    );
    let mut hash = 0xCBF2_9CE4_8422_2325_u64;
    for cfg in &configs {
        for seed in 0..20u64 {
            let report = run_message_passing(cfg, seed);
            assert_eq!(report.outcome, Outcome::Decided, "{cfg:?} seed {seed}");
            hash = fold_report(hash, &report);
        }
    }
    assert_eq!(hash, 0xB210_D4BD_2FB1_4D42, "faulted event order moved");
}
