//! A model of the instance table. Random interleavings of `submit`
//! (fresh ids, and repeats into open, closed and evicted ones),
//! `run_ready(1 | 2)`, `poll`, `status` and `drain_completions` run
//! under `KeepAll`, `DecidedCap(k)` and `Lru(k)`. Every answer, and
//! after every step `resident_decided`, `evicted_count`,
//! `submitted_pending` and the `status` of every id, is checked against
//! a plain model kept here.
//!
//! The model takes fact values from `run_ready`'s return and checks
//! validity on them: each decided value is one of the instance's
//! proposals, so a unanimous instance commits its input. An instance
//! decided on inputs other than its own proposals fails that check.

use std::collections::{HashMap, VecDeque};

use nc_memory::Bit;
use nc_service::{
    CommitFact, InstanceStatus, NcService, Retention, ServiceConfig, ServiceError, Ticket,
};
use proptest::prelude::*;

/// Ids come from a small range, so submits repeat into open, queued,
/// decided and evicted instances.
const IDS: u64 = 10;

/// Cases per run: more under the release profile, which CI's service
/// leg runs, than under tier-1's debug run.
const CASES: u32 = if cfg!(debug_assertions) { 64 } else { 1024 };

/// Where the model says an instance stands.
enum Entry {
    Open(Vec<Bit>),
    Queued(Vec<Bit>),
    Decided(CommitFact),
    Evicted(Option<Bit>, u32),
}

struct Model {
    procs: usize,
    shards: u64,
    policy: Retention,
    table: HashMap<u64, Entry>,
    /// Resident decided ids under a capped policy, next victim first:
    /// commit order under `DecidedCap`, recency under `Lru`.
    resident: VecDeque<u64>,
    completions: Vec<CommitFact>,
    evicted: usize,
    pending: usize,
}

impl Model {
    fn status(&self, id: u64) -> InstanceStatus {
        match self.table.get(&id) {
            None => InstanceStatus::Unknown,
            Some(Entry::Open(props)) => InstanceStatus::Accepting {
                got: props.len(),
                need: self.procs,
            },
            Some(Entry::Queued(_)) => InstanceStatus::Queued,
            Some(Entry::Decided(fact)) => InstanceStatus::Decided(*fact),
            Some(&Entry::Evicted(decided, round)) => InstanceStatus::Evicted { decided, round },
        }
    }

    fn submit(&mut self, id: u64, value: Bit) -> Result<(), ServiceError> {
        let entry = self.table.entry(id).or_insert(Entry::Open(Vec::new()));
        let Entry::Open(props) = entry else {
            return Err(ServiceError::InstanceClosed { id });
        };
        props.push(value);
        if props.len() == self.procs {
            *entry = Entry::Queued(std::mem::take(props));
        }
        self.pending += 1;
        Ok(())
    }

    /// Checks one `run_ready` return against the queued instances and
    /// publishes it.
    fn run_ready(&mut self, facts: &[CommitFact]) {
        let mut queued: Vec<u64> = self
            .table
            .iter()
            .filter(|(_, e)| matches!(e, Entry::Queued(_)))
            .map(|(&id, _)| id)
            .collect();
        queued.sort_unstable_by_key(|&id| (id % self.shards, id));
        let ids: Vec<u64> = facts.iter().map(|f| f.id).collect();
        assert_eq!(
            ids, queued,
            "run_ready decides the queued ids by shard, then id"
        );
        for &fact in facts {
            let Some(Entry::Queued(props)) = self.table.get(&fact.id) else {
                unreachable!("checked above");
            };
            assert!(
                fact.value.is_some_and(|v| props.contains(&v)),
                "fact {fact:?} breaks validity for proposals {props:?}"
            );
            assert!(fact.round >= 1 && fact.ops >= 1, "fact {fact:?}");
            self.table.insert(fact.id, Entry::Decided(fact));
            self.completions.push(fact);
            let Some(cap) = cap(self.policy) else {
                continue;
            };
            self.resident.push_back(fact.id);
            if self.resident.len() > cap {
                let victim = self.resident.pop_front().expect("len > cap");
                let Some(Entry::Decided(f)) = self.table.get(&victim) else {
                    unreachable!("only decided ids are resident");
                };
                let evicted = Entry::Evicted(f.value, f.round as u32);
                self.table.insert(victim, evicted);
                self.evicted += 1;
            }
        }
        self.pending = 0;
    }

    /// A poll that answers `Decided` refreshes recency under `Lru`.
    fn touch(&mut self, id: u64) {
        if let Retention::Lru(_) = self.policy {
            let at = self.resident.iter().position(|&r| r == id);
            self.resident.remove(at.expect("decided ids are resident"));
            self.resident.push_back(id);
        }
    }

    fn resident_decided(&self) -> usize {
        self.table
            .values()
            .filter(|e| matches!(e, Entry::Decided(_)))
            .count()
    }
}

fn cap(policy: Retention) -> Option<usize> {
    match policy {
        Retention::KeepAll => None,
        Retention::DecidedCap(k) | Retention::Lru(k) => Some(k),
    }
}

/// Runs one op script against a fresh service and the model. Each op
/// is `(kind, id, bit)`: kinds 0–3 submit `bit` to `id`, 4–5 run
/// `run_ready` on one or (when `bit`) two threads, 6–7 poll `id`'s last
/// ticket (`status` when it has none), 8 asks `status(id)`, 9 drains
/// the completions.
fn check(policy: Retention, shards: usize, procs: usize, ops: &[(u8, u64, bool)]) {
    let cfg = ServiceConfig::builder()
        .procs(procs)
        .shards(shards)
        .seed(29)
        .retention(policy)
        .build()
        .unwrap();
    let mut svc = NcService::new(cfg);
    let mut model = Model {
        procs,
        shards: shards as u64,
        policy,
        table: HashMap::new(),
        resident: VecDeque::new(),
        completions: Vec::new(),
        evicted: 0,
        pending: 0,
    };
    let mut tickets: HashMap<u64, Ticket> = HashMap::new();
    for (step, &(kind, id, bit)) in ops.iter().enumerate() {
        let at = format!("step {step}: op ({kind}, {id}, {bit})");
        match kind {
            0..=3 => {
                let got = svc.submit(id, Bit::from(bit));
                assert_eq!(got.map(|_| ()), model.submit(id, Bit::from(bit)), "{at}");
                if let Ok(ticket) = got {
                    tickets.insert(id, ticket);
                }
            }
            4 | 5 => {
                let facts = svc.run_ready(if bit { 2 } else { 1 });
                model.run_ready(&facts);
            }
            6 | 7 => match tickets.get(&id) {
                Some(&ticket) => {
                    let got = svc.poll(ticket);
                    assert_eq!(got, model.status(id), "{at}");
                    if let InstanceStatus::Decided(_) = got {
                        model.touch(id);
                    }
                }
                None => assert_eq!(svc.status(id), model.status(id), "{at}"),
            },
            8 => assert_eq!(svc.status(id), model.status(id), "{at}"),
            _ => assert_eq!(
                svc.drain_completions(),
                std::mem::take(&mut model.completions),
                "{at}"
            ),
        }
        assert_eq!(svc.resident_decided(), model.resident_decided(), "{at}");
        assert_eq!(svc.evicted_count(), model.evicted, "{at}");
        assert_eq!(svc.submitted_pending(), model.pending, "{at}");
        for id in 0..IDS {
            assert_eq!(svc.status(id), model.status(id), "{at}: status of {id}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    #[test]
    fn instance_table_matches_its_model(
        setup in (0u8..3, 1usize..4, 1usize..3, 1usize..5),
        ops in collection::vec((0u8..10, 0..IDS, any::<bool>()), 1..120),
    ) {
        let (policy, k, shards, procs) = setup;
        let policy = match policy {
            0 => Retention::KeepAll,
            1 => Retention::DecidedCap(k),
            _ => Retention::Lru(k),
        };
        check(policy, shards, procs, &ops);
    }
}
