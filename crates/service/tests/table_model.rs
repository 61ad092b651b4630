//! A model of the instance table. Random interleavings of `submit`
//! (fresh ids, and repeats into open, closed and evicted ones),
//! `run_ready(1 | 2)`, `poll` (often of decided ids), `status` and
//! `drain_completions` run under `KeepAll`, `DecidedCap(k)` and, most
//! often, `Lru(k ≥ 2)`, where a poll reorders the victims. Every
//! answer, and after every step every count, the reduced log and the
//! `status` of every id, is checked against a plain model kept here.
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
    /// Decided, and evicted when the flag is set.
    Fact(CommitFact, bool),
}

struct Model {
    procs: usize,
    shards: u64,
    policy: Retention,
    table: HashMap<u64, Entry>,
    /// Resident decided ids, next victim first: commit order, which
    /// polls refresh under `Lru`.
    resident: VecDeque<u64>,
    completions: Vec<CommitFact>,
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
            Some(&Entry::Fact(fact, false)) => InstanceStatus::Decided(fact),
            Some(&Entry::Fact(fact, true)) => InstanceStatus::Evicted {
                decided: fact.value,
                round: fact.round as u32,
            },
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
            self.table.insert(fact.id, Entry::Fact(fact, false));
            self.completions.push(fact);
            self.resident.push_back(fact.id);
            let (Retention::DecidedCap(cap) | Retention::Lru(cap)) = self.policy else {
                continue;
            };
            if self.resident.len() > cap {
                let victim = self.resident.pop_front().expect("len > cap");
                let Some(Entry::Fact(_, evicted @ false)) = self.table.get_mut(&victim) else {
                    unreachable!("only decided ids are resident");
                };
                *evicted = true;
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

    /// Every fact, evicted or not, in id order.
    fn facts(&self) -> Vec<CommitFact> {
        let mut facts: Vec<_> = self
            .table
            .values()
            .filter_map(|e| match *e {
                Entry::Fact(fact, _) => Some(fact),
                Entry::Open(_) | Entry::Queued(_) => None,
            })
            .collect();
        facts.sort_unstable_by_key(|f| f.id);
        facts
    }

    /// The reduced log's documented format: one `id,value,round,ops`
    /// line per fact, evicted or not, in id order, `-` for no value.
    fn reduced_log(&self) -> String {
        let line = |f: CommitFact| {
            let value = f.value.map_or("-".into(), |b| b.to_string());
            format!("{},{value},{},{}\n", f.id, f.round, f.ops)
        };
        self.facts().into_iter().map(line).collect()
    }
}

/// Runs one op script against a fresh service and the model. Each op
/// is `(kind, id, bit)`: kinds 0–3 submit `bit` to `id`, 4–5 run
/// `run_ready` on one or (when `bit`) two threads, 6–7 poll `id`'s last
/// ticket (`status` when it has none), 8 asks `status(id)`, 9 drains
/// the completions, and 10–11 poll the ticket of the model's resident
/// decided id number `id` (modulo their count, next victim first;
/// `status(id)` when there is none).
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
        pending: 0,
    };
    let mut tickets: HashMap<u64, Ticket> = HashMap::new();
    for (step, &(kind, id, bit)) in ops.iter().enumerate() {
        let at = format!("step {step}: op ({kind}, {id}, {bit})");
        let resident = model.resident.len();
        let id = match kind {
            10 | 11 if resident > 0 => model.resident[id as usize % resident],
            _ => id,
        };
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
            6 | 7 | 10 | 11 => match tickets.get(&id) {
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
        let (decided, resident) = (model.facts().len(), model.resident.len());
        assert_eq!(svc.decided(), decided, "{at}");
        assert_eq!(svc.resident_decided(), resident, "{at}");
        assert_eq!(svc.evicted_count(), decided - resident, "{at}");
        assert_eq!(svc.submitted_pending(), model.pending, "{at}");
        assert_eq!(svc.reduced_log(), model.reduced_log(), "{at}");
        for id in 0..IDS {
            assert_eq!(svc.status(id), model.status(id), "{at}: status of {id}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    #[test]
    fn instance_table_matches_its_model(
        setup in (0u8..5, 1usize..4, 1usize..3, 1usize..5),
        ops in collection::vec((0u8..12, 0..IDS, any::<bool>()), 1..120),
    ) {
        let (policy, k, shards, procs) = setup;
        let policy = match policy {
            0 => Retention::KeepAll,
            1 => Retention::DecidedCap(k),
            2 => Retention::Lru(k),
            _ => Retention::Lru(k + 1),
        };
        check(policy, shards, procs, &ops);
    }
}
