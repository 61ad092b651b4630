//! Consensus as a service: a sharded multi-shot instance manager with
//! a durable commit-journal plane.
//!
//! The paper's protocol decides a *single* binary consensus instance;
//! production means millions of concurrent single-shot instances
//! decided behind one front door. This crate is that front door:
//!
//! * **Front door.** [`NcService::submit`] records one proposal on
//!   its instance and returns a [`Ticket`]; [`NcService::poll`]
//!   answers where the ticket's instance stands and
//!   [`NcService::drain_completions`] hands back every commit fact
//!   decided since the last drain — no busy-stepping. An instance is
//!   open while it holds fewer than `procs` proposals; the `procs`-th
//!   queues it on its shard's ready list. [`NcService::status`]
//!   answers the same question by id, for ids that have no ticket
//!   (such as those replayed from a journal).
//! * **Sharded instance table.** Instances are sharded by id
//!   (`id % shards`). Every instance derives its run seed as
//!   `trial_seed(service_seed, id, salts::SERVICE)` — the REQUIRED
//!   derivation, making each instance's schedule noise an independent
//!   stream that depends only on the service seed and the instance id,
//!   never on sharding or arrival order. An instance costs one 24-byte
//!   map entry (its id and a 16-byte slot): an open instance names a
//!   chunk of `procs` proposals in its shard's arena, which the shard
//!   reads in place and frees after the batch that decides it, and a
//!   decided or evicted one keeps its fact without the id. The table is
//!   the only in-memory home of a fact.
//! * **Batched stepping.** Each shard owns one reusable
//!   [`nc_engine::sim::SimRun`] handle and drives its ready list
//!   through it ([`SimRun::run_with_inputs`]).
//!   [`NcService::run_ready`] fans independent shards across worker
//!   threads, and each shard decides its ready list in id order; the
//!   calling thread drains the first chunk itself.
//!   A worker is added only per full [`FANOUT_MIN_PROPOSALS`] (100)
//!   ready proposals: a thread spawn costs 27–48 µs on a 2-core host,
//!   several five-process instances' worth, so small open-loop batches
//!   run on the calling thread and a large burst still fans out.
//! * **Durable commit journals.** Deciding an instance yields an
//!   immutable [`CommitFact`]. When a `journal_dir` is configured, each
//!   shard appends its batch of facts to its on-disk [`journal`]
//!   segments in one group commit (`JournalWriter::append_batch`: one
//!   write per segment touched) *before* any fact is published; the
//!   shard holds the batch only until [`NcService::run_ready`]
//!   publishes it into the table. The byte format is deterministic: a
//!   service killed mid-batch and reopened from its journal directory
//!   produces journals and a reduced log **byte-identical** to an
//!   uninterrupted run (pinned by `tests/persistence.rs`).
//! * **Instance retention.** [`Retention`] bounds how many decided
//!   instances stay resident; eviction turns a decided slot into an
//!   evicted one in place, which keeps the fact and answers
//!   [`NcService::status`] as [`InstanceStatus::Evicted`], so eviction
//!   never shrinks the API surface. `DecidedCap` keeps its residents in
//!   a FIFO ring, and each publish evicts at most one instance.
//!
//! The canonical **reduced log** ([`NcService::reduced_log`], every
//! fact in the table sorted by id) is byte-identical regardless of
//! shard count, worker threads, batching, eviction, or
//! crash-and-reopen — the same monotone-journal /
//! deterministic-reduction contract the aura exemplar ships.
//!
//! ```
//! use nc_memory::Bit;
//! use nc_service::{InstanceStatus, NcService, ServiceConfig};
//!
//! let cfg = ServiceConfig::builder()
//!     .procs(3)
//!     .shards(2)
//!     .seed(42)
//!     .build()
//!     .unwrap();
//! let mut svc = NcService::open(cfg).expect("no journal to replay");
//! let mut tickets = Vec::new();
//! for id in 0..4u64 {
//!     for p in 0..3 {
//!         tickets.push(svc.submit(id, Bit::from((id + p) % 2 == 0)).unwrap());
//!     }
//! }
//! svc.run_ready(1);
//! for t in &tickets {
//!     assert!(matches!(svc.poll(*t), InstanceStatus::Decided(_)));
//! }
//! assert_eq!(svc.drain_completions().len(), 4);
//! ```

#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![forbid(unsafe_code)]

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::path::PathBuf;

use nc_engine::sim::{Sim, SimRun};
use nc_engine::{Algorithm, Limits};
use nc_memory::Bit;
use nc_sched::queue::MAX_PID;
use nc_sched::rng::{salts, trial_seed};
use nc_sched::{Noise, TimingModel};

pub mod journal;
pub mod loadgen;
mod retention;

pub use journal::{JournalError, JournalReader, JournalWriter};
pub use retention::Retention;

use retention::ResidencyTracker;

/// Where a service's on-disk journal lives and how it is segmented.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct JournalSpec {
    /// Root directory; shard `s` journals under `shard-<s>/`.
    pub dir: PathBuf,
    /// Records per segment file — part of the byte format: reopening
    /// with a different value than the journal was written with is
    /// rejected as corruption.
    pub segment_records: usize,
}

/// Configuration of one service: every instance runs `procs` processes
/// of lean-consensus under the same timing model, and the table is
/// split over `shards` shards. Build one with
/// [`ServiceConfig::builder`].
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Processes per instance (= proposals needed to make it ready).
    pub procs: usize,
    /// Number of shards (≥ 1); instance `id` lives on `id % shards`.
    pub shards: usize,
    /// Service seed; instance `id` runs with
    /// `trial_seed(seed, id, salts::SERVICE)`.
    pub seed: u64,
    /// Timing model every instance is scheduled under.
    pub timing: TimingModel,
    /// Per-instance run limits (op budget etc.).
    pub limits: Limits,
    /// Residency policy for decided instances.
    pub retention: Retention,
    /// On-disk journal location; `None` writes no journal.
    pub journal: Option<JournalSpec>,
}

/// Why [`ServiceConfigBuilder::build`] refused a configuration.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ServiceConfigError {
    /// `procs` was zero: an instance with no processes can never
    /// become ready.
    ZeroProcs,
    /// `shards` was zero: there would be nowhere to queue instances.
    ZeroShards,
    /// A [`Retention::DecidedCap`] / [`Retention::Lru`] cap of zero
    /// would evict every fact the moment it commits.
    ZeroRetentionCap,
    /// `segment_records` was zero: a journal segment must hold at
    /// least one record.
    ZeroSegmentRecords,
    /// `procs` exceeded the processes the engine's noisy schedule can
    /// name ([`nc_sched::queue::MAX_PID`] + 1).
    TooManyProcs {
        /// The refused process count.
        procs: usize,
        /// The largest process count an instance can run.
        max: usize,
    },
}

impl std::fmt::Display for ServiceConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceConfigError::ZeroProcs => write!(f, "procs must be >= 1"),
            ServiceConfigError::ZeroShards => write!(f, "shards must be >= 1"),
            ServiceConfigError::ZeroRetentionCap => {
                write!(f, "retention cap must be >= 1")
            }
            ServiceConfigError::ZeroSegmentRecords => {
                write!(f, "journal segment_records must be >= 1")
            }
            ServiceConfigError::TooManyProcs { procs, max } => {
                write!(f, "procs must be <= {max}, got {procs}")
            }
        }
    }
}

impl std::error::Error for ServiceConfigError {}

/// The most processes one instance can run: the engine's noisy
/// schedule names at most `MAX_PID + 1` of them.
const MAX_PROCS: usize = MAX_PID as usize + 1;

/// Validating builder for [`ServiceConfig`], mirroring the
/// `nc_engine::sim::Sim` idiom: set the knobs, then [`build`] checks
/// them as a whole and returns a typed [`ServiceConfigError`] instead
/// of panicking later.
///
/// [`build`]: ServiceConfigBuilder::build
#[derive(Clone, Debug)]
pub struct ServiceConfigBuilder {
    procs: usize,
    shards: usize,
    seed: u64,
    retention: Retention,
    journal_dir: Option<PathBuf>,
    segment_records: usize,
}

impl ServiceConfigBuilder {
    /// Sets the processes per instance (required, 1 to 2^24).
    pub fn procs(mut self, procs: usize) -> Self {
        self.procs = procs;
        self
    }

    /// Sets the shard count (default 1).
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Sets the service seed (default 0).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the retention policy (default [`Retention::KeepAll`]).
    pub fn retention(mut self, retention: Retention) -> Self {
        self.retention = retention;
        self
    }

    /// Enables the on-disk journal under `dir` (default: no journal).
    pub fn journal_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.journal_dir = Some(dir.into());
        self
    }

    /// Sets the journal segment capacity in records (default
    /// [`journal::DEFAULT_SEGMENT_RECORDS`]); ignored without a
    /// [`journal_dir`](Self::journal_dir).
    pub fn segment_records(mut self, records: usize) -> Self {
        self.segment_records = records;
        self
    }

    /// Validates the configuration.
    pub fn build(self) -> Result<ServiceConfig, ServiceConfigError> {
        if self.procs == 0 {
            return Err(ServiceConfigError::ZeroProcs);
        }
        if self.procs > MAX_PROCS {
            return Err(ServiceConfigError::TooManyProcs {
                procs: self.procs,
                max: MAX_PROCS,
            });
        }
        if self.shards == 0 {
            return Err(ServiceConfigError::ZeroShards);
        }
        if let Retention::DecidedCap(0) | Retention::Lru(0) = self.retention {
            return Err(ServiceConfigError::ZeroRetentionCap);
        }
        if self.segment_records == 0 {
            return Err(ServiceConfigError::ZeroSegmentRecords);
        }
        Ok(ServiceConfig {
            procs: self.procs,
            shards: self.shards,
            seed: self.seed,
            timing: TimingModel::figure1(Noise::Exponential { mean: 1.0 }),
            limits: Limits::run_to_completion(),
            retention: self.retention,
            journal: self.journal_dir.map(|dir| JournalSpec {
                dir,
                segment_records: self.segment_records,
            }),
        })
    }
}

impl ServiceConfig {
    /// A validating builder with the historical defaults: 1 shard,
    /// seed 0, exponential(1) Figure 1 noise, run-to-completion
    /// limits, [`Retention::KeepAll`], no on-disk journal. `procs`
    /// starts at 0 and **must** be set.
    pub fn builder() -> ServiceConfigBuilder {
        ServiceConfigBuilder {
            procs: 0,
            shards: 1,
            seed: 0,
            retention: Retention::KeepAll,
            journal_dir: None,
            segment_records: journal::DEFAULT_SEGMENT_RECORDS,
        }
    }
}

/// The immutable record of one decided instance — the unit of the
/// reduced log and of the append-only on-disk journals. A fact is a
/// pure function of `(service config, instance id, proposals)`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CommitFact {
    /// The instance this fact decides.
    pub id: u64,
    /// The agreed value (`None` when the run exhausted its op budget
    /// undecided — still a fact: the instance is closed).
    pub value: Option<Bit>,
    /// Round of the earliest decision (0 when undecided).
    pub round: usize,
    /// Total operations the instance executed across all processes.
    pub ops: u64,
}

/// Canonical serialization of a sequence of facts: one line
/// `id,value,round,ops` per fact, in iteration order, where `value` is
/// `0`, `1`, or `-` for undecided.
pub(crate) fn encode_log(facts: impl Iterator<Item = CommitFact>) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    for fact in facts {
        let v = match fact.value {
            Some(Bit::Zero) => '0',
            Some(Bit::One) => '1',
            None => '-',
        };
        writeln!(out, "{},{v},{},{}", fact.id, fact.round, fact.ops).expect("String writes");
    }
    out
}

/// A submission receipt from [`NcService::submit`]: pass it to
/// [`NcService::poll`] to track the instance. It holds the instance's
/// id, which `poll` looks up like [`NcService::status`] does.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Ticket {
    id: u64,
}

/// Where an instance stands, as answered by [`NcService::status`] and
/// [`NcService::poll`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum InstanceStatus {
    /// Never heard of it (distinct from [`InstanceStatus::Evicted`]:
    /// an unknown id has no durable fact).
    Unknown,
    /// Collecting proposals: `got` of `need` submitted.
    Accepting {
        /// Proposals received so far.
        got: usize,
        /// Proposals required (= configured `procs`).
        need: usize,
    },
    /// Fully proposed, waiting on its shard's next batch.
    Queued,
    /// Decided and resident; the commit fact is in the reduced log.
    Decided(CommitFact),
    /// Decided and evicted under the [`Retention`] policy: the answer
    /// drops the fact's id and op count, and the fact stays in the
    /// reduced log (and in the on-disk journal when one is configured).
    Evicted {
        /// The decided value (`None` for an op-budget-exhausted
        /// instance, mirroring [`CommitFact::value`]).
        decided: Option<Bit>,
        /// Round of the earliest decision (0 when undecided).
        round: u32,
    },
}

/// Why [`NcService::submit`] refused a proposal.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ServiceError {
    /// The instance already collected all its proposals — it is
    /// queued, decided, or evicted; a single-shot instance never
    /// reopens.
    InstanceClosed {
        /// The refused instance.
        id: u64,
    },
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::InstanceClosed { id } => {
                write!(f, "instance {id} is closed (queued, decided, or evicted)")
            }
        }
    }
}

impl std::error::Error for ServiceError {}

/// One instance in the table; the id is the table key.
enum Slot {
    /// Collecting proposals: the first `got` of the `procs` bits of
    /// chunk `chunk` in its shard's arena, in submission order.
    Open { chunk: u32, got: u32 },
    /// Fully proposed, waiting on its shard's next batch.
    Queued,
    /// Decided and resident: its [`CommitFact`] minus the id, with the
    /// round at the journal record's width.
    Decided {
        value: Option<Bit>,
        round: u32,
        ops: u64,
    },
    /// Decided and evicted under the [`Retention`] policy: the same
    /// fact, answered as [`InstanceStatus::Evicted`].
    Evicted {
        value: Option<Bit>,
        round: u32,
        ops: u64,
    },
}

/// One shard: a pooled engine handle, the proposal arena and ready
/// list it drains, and the on-disk journal it feeds when configured.
struct Shard {
    runner: SimRun,
    /// Proposals of this shard's open and queued instances, `procs`
    /// bits per chunk.
    arena: Vec<Bit>,
    /// Arena chunks no instance holds.
    free: Vec<u32>,
    /// Fully proposed instances and their arena chunks, in completion
    /// order until [`Shard::drain`] sorts them by id.
    ready: Vec<(u64, u32)>,
    /// Facts decided by [`Shard::drain`] and not yet published by
    /// [`NcService::run_ready`]'s serial post-pass.
    batch: Vec<CommitFact>,
    writer: Option<JournalWriter>,
    /// First journal-append failure during a drain (drains run on
    /// worker threads; the error surfaces as a panic in `run_ready`'s
    /// serial post-pass).
    io_error: Option<JournalError>,
    seed: u64,
}

impl Shard {
    fn new(cfg: &ServiceConfig, writer: Option<JournalWriter>) -> Self {
        Shard {
            runner: Sim::new(Algorithm::Lean)
                .inputs(vec![Bit::Zero; cfg.procs])
                .timing(cfg.timing)
                .limits(cfg.limits)
                .build(),
            arena: Vec::new(),
            free: Vec::new(),
            ready: Vec::new(),
            batch: Vec::new(),
            writer,
            io_error: None,
            seed: cfg.seed,
        }
    }

    /// Hands out a free arena chunk of `procs` bits, growing the arena
    /// when none is free.
    fn alloc(&mut self, procs: usize) -> u32 {
        self.free.pop().unwrap_or_else(|| {
            let chunk = self.arena.len() / procs;
            self.arena.resize(self.arena.len() + procs, Bit::Zero);
            u32::try_from(chunk).expect("fewer than 2^32 open instances per shard")
        })
    }

    /// Decides every ready instance through the pooled handle in id
    /// order, reading its inputs in place from the arena and adding one
    /// commit fact each to the batch, then frees the batch's chunks and
    /// writes the batch to disk in one group commit when a journal
    /// writer is attached. The sort makes a batch's journal order a
    /// pure function of the ready set, not of the order proposals
    /// arrived in; ids in one list are unique, so an unstable sort is
    /// exact.
    fn drain(&mut self, procs: usize) {
        let start = self.batch.len();
        self.ready.sort_unstable_by_key(|&(id, _)| id);
        for &(id, chunk) in &self.ready {
            let seed = trial_seed(self.seed, id, salts::SERVICE);
            let at = chunk as usize * procs;
            let report = self
                .runner
                .run_with_inputs(seed, &self.arena[at..at + procs]);
            self.batch.push(CommitFact {
                id,
                value: report.agreement_value(),
                round: report.first_decision_round.unwrap_or(0),
                ops: report.total_ops,
            });
        }
        self.free
            .extend(self.ready.drain(..).map(|(_, chunk)| chunk));
        if let Some(writer) = &mut self.writer {
            if let Err(e) = writer.append_batch(&self.batch[start..]) {
                // Publish none of a batch that may not be durable.
                self.batch.truncate(start);
                self.io_error.get_or_insert(e);
            }
        }
    }
}

/// Ready proposals each [`NcService::run_ready`] worker must have: a
/// batch of `p` proposals runs on at most `p / FANOUT_MIN_PROPOSALS`
/// workers (at least one, the calling thread).
///
/// Measured on a 2-core Intel Xeon VM (rustc 1.95). A
/// `std::thread::scope` spawn and join of an empty closure has a median
/// of 27–48 µs (5 000 calls per session, 15 sessions), against 4–8 µs
/// of engine and journal time per five-process instance. The table
/// gives `run_ready`'s serial median ÷ its 2-worker median, over 300
/// calls per cell, with 2 shards, 5 processes and the on-disk journal
/// on; a value above 1 means the fan-out wins:
///
/// | ready instances per shard | sessions | median | range | won |
/// |---|---|---|---|---|
/// | 8  | 9  | 0.84 | 0.78–0.93 | 0 |
/// | 12 | 12 | 0.92 | 0.77–1.10 | 1 |
/// | 16 | 15 | 0.86 | 0.74–1.04 | 2 |
/// | 20 | 15 | 1.08 | 0.83–1.29 | 10 |
/// | 24 | 15 | 1.08 | 0.74–1.32 | 10 |
/// | 32 | 12 | 1.12 | 0.83–1.49 | 8 |
/// | 48 | 6  | 1.19 | 1.09–1.42 | 6 |
/// | 64 | 12 | 1.25 | 0.91–1.54 | 10 |
///
/// The median crosses 1 between 16 and 20 instances per shard, so each
/// worker needs 100 proposals (20 five-process instances). Single
/// sessions scatter around the crossover because the spawn cost moves
/// from session to session.
pub const FANOUT_MIN_PROPOSALS: usize = 100;

/// How many workers [`NcService::run_ready`] uses for a batch of
/// `ready_proposals` over `shards` shards: up to `threads` (`0` means
/// one), at most one per shard, and one per full
/// [`FANOUT_MIN_PROPOSALS`] proposals, so a batch too small to pay for
/// a thread spawn stays on the calling thread.
fn fanout_workers(threads: usize, shards: usize, ready_proposals: usize) -> usize {
    threads
        .max(1)
        .min(shards)
        .min((ready_proposals / FANOUT_MIN_PROPOSALS).max(1))
}

/// The sharded multi-shot instance manager. See the crate docs for the
/// architecture; [`ServiceConfig`] for the knobs.
pub struct NcService {
    cfg: ServiceConfig,
    /// Every instance: open, queued, decided, or evicted.
    instances: HashMap<u64, Slot>,
    /// Facts decided since the last [`NcService::drain_completions`].
    completions: Vec<CommitFact>,
    /// Proposals submitted since the last [`NcService::run_ready`].
    pending: usize,
    tracker: ResidencyTracker,
    shards: Vec<Shard>,
}

impl NcService {
    /// Builds a service, replaying the on-disk journal when one is
    /// configured.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.procs` is zero or above 2^24 or `cfg.shards == 0`
    /// (impossible for a builder-produced config), or if journal replay
    /// fails — use [`NcService::open`] to handle [`JournalError`] as a
    /// value.
    pub fn new(cfg: ServiceConfig) -> Self {
        NcService::open(cfg).expect("journal replay failed")
    }

    /// Builds a service, replaying the on-disk journal when one is
    /// configured; journal problems come back as [`JournalError`].
    ///
    /// Replayed facts repopulate the instance table in canonical id
    /// order (the [`Retention`] policy applies to them in that order),
    /// so a reopened service continues exactly where the durable log
    /// ends: a torn final record is truncated and its instance simply
    /// runs again, reproducing the identical fact.
    ///
    /// A journal written with more shards than `cfg.shards` is refused
    /// as [`JournalError::Corrupt`], naming the first shard directory
    /// this config would not replay: reopening it would drop that
    /// directory's facts and let their instances decide a second time.
    /// Growing the shard count loses nothing and is allowed. Replayed
    /// facts holding two facts for one id are refused the same way.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.procs` is zero or above 2^24 (the engine's
    /// `MAX_PID + 1`), or if `cfg.shards == 0`.
    pub fn open(cfg: ServiceConfig) -> Result<Self, JournalError> {
        assert!(
            (1..=MAX_PROCS).contains(&cfg.procs),
            "need 1 to {MAX_PROCS} processes per instance"
        );
        assert!(cfg.shards >= 1, "need at least one shard");
        if let Some(spec) = &cfg.journal {
            // Every open creates all its shard directories, so a journal
            // written by more shards always holds this one.
            let beyond = spec.dir.join(format!("shard-{}", cfg.shards));
            if beyond.exists() {
                return Err(JournalError::Corrupt {
                    path: beyond,
                    detail: format!("written by more than {} shards", cfg.shards),
                });
            }
        }
        let mut shards = Vec::with_capacity(cfg.shards);
        let mut replayed = Vec::new();
        for s in 0..cfg.shards {
            let writer = match &cfg.journal {
                Some(spec) => {
                    let dir = spec.dir.join(format!("shard-{s}"));
                    let (writer, facts) = JournalWriter::open(&dir, spec.segment_records)?;
                    replayed.extend(facts);
                    Some(writer)
                }
                None => None,
            };
            shards.push(Shard::new(&cfg, writer));
        }
        // Publish replayed facts in canonical id order — the replayed
        // resident set is then a pure function of the durable facts,
        // independent of how the original run batched them.
        replayed.sort_unstable_by_key(|f| f.id);
        if let (Some(spec), Some(twice)) = (
            &cfg.journal,
            replayed.windows(2).find(|w| w[0].id == w[1].id),
        ) {
            return Err(JournalError::Corrupt {
                path: spec.dir.clone(),
                detail: format!("two commit facts for instance {}", twice[0].id),
            });
        }
        let mut svc = NcService {
            tracker: ResidencyTracker::new(cfg.retention),
            cfg,
            instances: HashMap::new(),
            completions: Vec::new(),
            pending: 0,
            shards,
        };
        for fact in replayed {
            svc.publish(fact);
        }
        Ok(svc)
    }

    /// The shard instance `id` lives on.
    pub(crate) fn shard_of(&self, id: u64) -> usize {
        (id % self.cfg.shards as u64) as usize
    }

    /// The run seed instance `id` executes under — the REQUIRED
    /// `trial_seed` derivation, shared with no other instance or sweep.
    pub fn instance_seed(&self, id: u64) -> u64 {
        trial_seed(self.cfg.seed, id, salts::SERVICE)
    }

    /// Records one proposal for instance `id` — the one front door —
    /// and returns a [`Ticket`] to [`NcService::poll`] it with. The
    /// instance's proposals become its processes' inputs in submission
    /// order; the `procs`-th queues it on its shard for the next
    /// [`NcService::run_ready`]. Submitting to a queued, decided, or
    /// evicted instance is refused (single-shot).
    pub fn submit(&mut self, id: u64, value: Bit) -> Result<Ticket, ServiceError> {
        let (need, shard) = (self.cfg.procs, self.shard_of(id));
        let home = &mut self.shards[shard];
        let slot = match self.instances.entry(id) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(e) => e.insert(Slot::Open {
                chunk: home.alloc(need),
                got: 0,
            }),
        };
        let Slot::Open { chunk, got } = slot else {
            return Err(ServiceError::InstanceClosed { id });
        };
        home.arena[*chunk as usize * need + *got as usize] = value;
        *got += 1;
        if *got as usize == need {
            home.ready.push((id, *chunk));
            *slot = Slot::Queued;
        }
        self.pending += 1;
        Ok(Ticket { id })
    }

    /// Where instance `id` stands, looked up by id: the answer for ids
    /// without a [`Ticket`], such as those replayed from a journal.
    /// Being `&self`, it never refreshes LRU recency (that is
    /// [`NcService::poll`]'s job).
    pub fn status(&self, id: u64) -> InstanceStatus {
        match self.instances.get(&id) {
            Some(&Slot::Open { got, .. }) => InstanceStatus::Accepting {
                got: got as usize,
                need: self.cfg.procs,
            },
            Some(Slot::Queued) => InstanceStatus::Queued,
            Some(&Slot::Decided { value, round, ops }) => InstanceStatus::Decided(CommitFact {
                id,
                value,
                round: round as usize,
                ops,
            }),
            Some(&Slot::Evicted { value, round, .. }) => InstanceStatus::Evicted {
                decided: value,
                round,
            },
            None => InstanceStatus::Unknown,
        }
    }

    /// Where the ticket's instance stands; additionally refreshes the
    /// instance's LRU recency under [`Retention::Lru`] (the reason
    /// `poll` takes `&mut self` while [`NcService::status`] stays
    /// `&self`).
    pub fn poll(&mut self, ticket: Ticket) -> InstanceStatus {
        let status = self.status(ticket.id);
        if matches!(status, InstanceStatus::Decided(_)) {
            self.tracker.touch(ticket.id);
        }
        status
    }

    /// Every commit fact published since the last drain, in publish
    /// order: replayed facts by id when the service opens, then each
    /// [`NcService::run_ready`]'s by shard, then id.
    pub fn drain_completions(&mut self) -> Vec<CommitFact> {
        std::mem::take(&mut self.completions)
    }

    /// Publishes one fact: table entry, completion buffer, retention
    /// bookkeeping, and the eviction it may force, which turns the
    /// victim's slot into an evicted one in place. The round is stored
    /// at the `u32` width the journal record already keeps.
    fn publish(&mut self, fact: CommitFact) {
        let (value, round, ops) = (fact.value, fact.round as u32, fact.ops);
        self.instances
            .insert(fact.id, Slot::Decided { value, round, ops });
        self.completions.push(fact);
        if let Some(victim) = self.tracker.admit(fact.id) {
            let slot = self.instances.get_mut(&victim);
            let Some(slot @ &mut Slot::Decided { value, round, ops }) = slot else {
                unreachable!("tracker admits only decided instances");
            };
            *slot = Slot::Evicted { value, round, ops };
        }
    }

    /// Decides every ready instance, fanning independent shards over up
    /// to `threads` workers, the calling thread included (`0` and `1`
    /// both mean serial). The worker count comes from the batch:
    /// `min(threads.max(1), shards, max(1, p / F))` for `p` ready
    /// proposals (ready instances × `procs`) and
    /// `F` = [`FANOUT_MIN_PROPOSALS`]. `k` workers spawn `k - 1`
    /// threads, and a spawn costs 27–48 µs on a 2-core host, so a batch
    /// under `2F` proposals is drained by the calling thread alone.
    /// Each shard decides its ready list in id order and writes the
    /// batch to its on-disk journal in one group commit before anything
    /// is published. The new facts go to
    /// [`NcService::drain_completions`] and are also returned, in the
    /// same canonical order (by shard, then id) — the same facts
    /// regardless of `threads` or of the worker count.
    ///
    /// # Panics
    ///
    /// Panics if a configured on-disk journal fails to append (none of
    /// that shard's batch is published; the service is not usable past
    /// a half-written batch).
    pub fn run_ready(&mut self, threads: usize) -> Vec<CommitFact> {
        self.pending = 0;
        let ready: usize = self.shards.iter().map(|s| s.ready.len()).sum();
        let workers = fanout_workers(threads, self.shards.len(), self.cfg.procs * ready);
        let (per, procs) = (self.shards.len().div_ceil(workers), self.cfg.procs);
        let drain = move |shards: &mut [Shard]| shards.iter_mut().for_each(|s| s.drain(procs));
        std::thread::scope(|scope| {
            let mut chunks = self.shards.chunks_mut(per);
            let own = chunks.next().unwrap_or_default();
            let handles: Vec<_> = chunks
                .map(|chunk| scope.spawn(move || drain(chunk)))
                .collect();
            drain(own);
            for handle in handles {
                handle.join().expect("shard worker panicked");
            }
        });
        // Serial post-pass: surface journal failures, then publish the
        // new facts into the table (evicting under the retention
        // policy — facts are durable by now).
        for (s, shard) in self.shards.iter_mut().enumerate() {
            if let Some(e) = shard.io_error.take() {
                panic!("shard {s} journal append failed: {e}");
            }
        }
        let mut fresh = Vec::new();
        for shard in &mut self.shards {
            fresh.append(&mut shard.batch);
        }
        for fact in &fresh {
            self.publish(*fact);
        }
        fresh
    }

    /// Proposals submitted since the last [`NcService::run_ready`].
    pub fn submitted_pending(&self) -> usize {
        self.pending
    }

    /// Decided instances not yet evicted (equals
    /// [`NcService::decided`] under [`Retention::KeepAll`]).
    pub fn resident_decided(&self) -> usize {
        self.count(|slot| matches!(slot, Slot::Decided { .. }))
    }

    /// Instances evicted under the [`Retention`] policy so far.
    pub fn evicted_count(&self) -> usize {
        self.count(|slot| matches!(slot, Slot::Evicted { .. }))
    }

    /// Table slots that `keep` accepts (a scan of the table).
    fn count(&self, keep: impl Fn(&Slot) -> bool) -> usize {
        self.instances.values().filter(|slot| keep(slot)).count()
    }

    /// `(segments, bytes)` across all shard journals on disk, or
    /// `None` when the service writes no journal. Byte counts
    /// are derived from the fixed-width format, so they are
    /// deterministic for a given request stream.
    pub fn journal_footprint(&self) -> Option<(u64, u64)> {
        self.cfg.journal.as_ref()?;
        let mut segments = 0u64;
        let mut bytes = 0u64;
        for shard in &self.shards {
            let writer = shard.writer.as_ref()?;
            segments += writer.segments();
            bytes += writer.segments() * journal::HEADER_LEN as u64
                + writer.len() * journal::RECORD_LEN as u64;
        }
        Some((segments, bytes))
    }

    /// The canonical reduced commit log: every published fact, resident
    /// or evicted, sorted by instance id and serialized. Byte-identical
    /// for the same request stream regardless of shard count, worker
    /// threads, retention, or a kill-and-reopen through the on-disk
    /// journal — facts are immutable and the id-sorted union is their
    /// join.
    pub fn reduced_log(&self) -> String {
        let mut ids: Vec<u64> = self.instances.keys().copied().collect();
        ids.sort_unstable();
        encode_log(ids.into_iter().filter_map(|id| match self.instances[&id] {
            Slot::Decided { value, round, ops } | Slot::Evicted { value, round, ops } => {
                Some(CommitFact {
                    id,
                    value,
                    round: round as usize,
                    ops,
                })
            }
            Slot::Open { .. } | Slot::Queued => None,
        }))
    }

    /// Total commit facts published, resident or evicted.
    pub fn decided(&self) -> usize {
        self.resident_decided() + self.evicted_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(procs: usize, shards: usize, seed: u64) -> ServiceConfig {
        ServiceConfig::builder()
            .procs(procs)
            .shards(shards)
            .seed(seed)
            .build()
            .unwrap()
    }

    fn fill(svc: &mut NcService, id: u64) {
        let procs = svc.cfg.procs;
        for p in 0..procs {
            svc.submit(id, Bit::from((id + p as u64).is_multiple_of(2)))
                .unwrap();
        }
    }

    #[test]
    fn builder_validates() {
        assert!(matches!(
            ServiceConfig::builder().shards(2).build(),
            Err(ServiceConfigError::ZeroProcs)
        ));
        assert!(matches!(
            ServiceConfig::builder().procs(3).shards(0).build(),
            Err(ServiceConfigError::ZeroShards)
        ));
        assert!(matches!(
            ServiceConfig::builder()
                .procs(3)
                .retention(Retention::Lru(0))
                .build(),
            Err(ServiceConfigError::ZeroRetentionCap)
        ));
        assert!(matches!(
            ServiceConfig::builder()
                .procs(3)
                .journal_dir("/tmp/unused")
                .segment_records(0)
                .build(),
            Err(ServiceConfigError::ZeroSegmentRecords)
        ));
        // The builder refuses more processes than the engine can name
        // without building anything.
        let max = MAX_PID as usize + 1;
        assert_eq!(
            ServiceConfig::builder().procs(max + 1).build().unwrap_err(),
            ServiceConfigError::TooManyProcs {
                procs: max + 1,
                max
            }
        );
        assert_eq!(
            ServiceConfig::builder().procs(max).build().unwrap().procs,
            max
        );
        let built = ServiceConfig::builder()
            .procs(3)
            .shards(4)
            .seed(9)
            .retention(Retention::DecidedCap(2))
            .build()
            .unwrap();
        assert_eq!((built.procs, built.shards, built.seed), (3, 4, 9));
        assert_eq!(built.retention, Retention::DecidedCap(2));
        assert!(built.journal.is_none());
    }

    #[test]
    fn fanout_rule_edges() {
        let f = FANOUT_MIN_PROPOSALS;
        let big = 100 * f;
        // Empty and sub-constant batches stay on the calling thread.
        assert_eq!(fanout_workers(4, 4, 0), 1);
        assert_eq!(fanout_workers(4, 4, f - 1), 1);
        // Each worker needs a full constant: `f` is one, `2f` two.
        assert_eq!(fanout_workers(4, 4, f), 1);
        assert_eq!(fanout_workers(4, 4, 2 * f - 1), 1);
        assert_eq!(fanout_workers(4, 4, 2 * f), 2);
        assert_eq!(fanout_workers(4, 4, 3 * f), 3);
        // `threads` 0 and 1 are serial whatever the batch.
        assert_eq!(fanout_workers(0, 4, big), 1);
        assert_eq!(fanout_workers(1, 4, big), 1);
        // Never more workers than shards, nor than threads.
        assert_eq!(fanout_workers(8, 2, big), 2);
        assert_eq!(fanout_workers(3, 4, big), 3);
    }

    #[test]
    fn front_door_lifecycle() {
        let mut svc = NcService::new(cfg(3, 2, 5));
        assert_eq!(svc.status(9), InstanceStatus::Unknown);
        assert_eq!(svc.shard_of(9), 1);
        assert_eq!(svc.submit(9, Bit::One).map(|t| t.id), Ok(9));
        assert_eq!(svc.status(9), InstanceStatus::Accepting { got: 1, need: 3 });
        svc.submit(9, Bit::Zero).unwrap();
        assert_eq!(svc.status(9), InstanceStatus::Accepting { got: 2, need: 3 });
        svc.submit(9, Bit::One).unwrap();
        assert_eq!(svc.status(9), InstanceStatus::Queued);
        // Queued on its home shard, and only there.
        assert_eq!(svc.shards[1].ready.first().map(|r| r.0), Some(9));
        assert!(svc.shards[0].ready.is_empty());
        assert_eq!(
            svc.submit(9, Bit::One),
            Err(ServiceError::InstanceClosed { id: 9 })
        );
        let fresh = svc.run_ready(1);
        assert_eq!(fresh.len(), 1);
        assert_eq!(fresh[0].id, 9);
        let InstanceStatus::Decided(fact) = svc.status(9) else {
            panic!("instance 9 must be decided");
        };
        assert_eq!(fact, fresh[0]);
        assert!(fact.value.is_some());
        assert!(fact.round >= 1);
        assert!(fact.ops >= 1);
        assert_eq!(
            svc.submit(9, Bit::Zero),
            Err(ServiceError::InstanceClosed { id: 9 })
        );
    }

    #[test]
    fn submit_poll_drain_lifecycle() {
        let mut svc = NcService::new(cfg(3, 2, 5));
        let t = svc.submit(4, Bit::One).unwrap();
        assert_eq!((t.id, svc.shard_of(t.id)), (4, 0));
        assert_eq!(svc.poll(t), InstanceStatus::Accepting { got: 1, need: 3 });
        svc.submit(4, Bit::Zero).unwrap();
        let t3 = svc.submit(4, Bit::One).unwrap();
        // The third proposal closes the instance before any run_ready.
        assert_eq!(svc.poll(t3), InstanceStatus::Queued);
        assert_eq!(
            svc.submit(4, Bit::One),
            Err(ServiceError::InstanceClosed { id: 4 })
        );
        assert_eq!(svc.submitted_pending(), 3);
        let fresh = svc.run_ready(1);
        assert_eq!(fresh.len(), 1);
        assert_eq!(svc.submitted_pending(), 0);
        assert!(matches!(svc.poll(t), InstanceStatus::Decided(_)));
        let completions = svc.drain_completions();
        assert_eq!(completions, fresh);
        assert!(svc.drain_completions().is_empty(), "drain is destructive");
    }

    #[test]
    fn ready_list_is_decided_in_id_order() {
        // Complete the instances in reverse id order: each shard's facts
        // must still come out id-sorted, because each batch sorts its
        // ready list before deciding it, and publishing goes by shard,
        // then id.
        let mut svc = NcService::new(cfg(2, 2, 3));
        for id in (0..6u64).rev() {
            svc.submit(id, Bit::One).unwrap();
            svc.submit(id, Bit::Zero).unwrap();
        }
        let fresh = svc.run_ready(1);
        let ids: Vec<u64> = fresh.iter().map(|f| f.id).collect();
        assert_eq!(ids, vec![0, 2, 4, 1, 3, 5]);
        assert_eq!(svc.drain_completions(), fresh);
    }

    #[test]
    fn unanimous_instances_decide_their_input() {
        // Validity survives the service plumbing: an all-ones instance
        // must commit 1, an all-zeros instance 0.
        let mut svc = NcService::new(cfg(4, 2, 3));
        for _ in 0..4 {
            svc.submit(0, Bit::Zero).unwrap();
            svc.submit(1, Bit::One).unwrap();
        }
        let facts = svc.run_ready(1);
        assert_eq!(facts.iter().map(|f| f.id).collect::<Vec<_>>(), [0, 1]);
        assert_eq!(facts[0].value, Some(Bit::Zero));
        assert_eq!(facts[1].value, Some(Bit::One));
        // The reduced log is exactly these facts in id order.
        assert_eq!(svc.reduced_log(), encode_log(facts.into_iter()));
    }

    #[test]
    fn instance_seeds_use_the_required_derivation() {
        let svc = NcService::new(cfg(3, 4, 77));
        assert_eq!(
            svc.instance_seed(12),
            nc_sched::rng::trial_seed(77, 12, nc_sched::rng::salts::SERVICE)
        );
        assert_eq!(svc.shard_of(12), 0);
        assert_eq!(svc.shard_of(13), 1);
    }

    #[test]
    fn commit_fact_encoding_is_canonical() {
        let fact = CommitFact {
            id: 42,
            value: Some(Bit::One),
            round: 3,
            ops: 120,
        };
        assert_eq!(encode_log([fact].into_iter()), "42,1,3,120\n");
        let undecided = CommitFact {
            id: 7,
            value: None,
            round: 0,
            ops: 999,
        };
        assert_eq!(encode_log([undecided].into_iter()), "7,-,0,999\n");
        assert_eq!(
            encode_log([fact, undecided].into_iter()),
            "42,1,3,120\n7,-,0,999\n"
        );
    }

    #[test]
    fn table_slot_is_sixteen_bytes() {
        assert_eq!(std::mem::size_of::<Slot>(), 16);
    }

    #[test]
    fn journals_are_append_only_across_batches() {
        let mut svc = NcService::new(cfg(3, 1, 1));
        fill(&mut svc, 0);
        let first = svc.run_ready(1);
        let after_first = svc.reduced_log();
        fill(&mut svc, 1);
        let second = svc.run_ready(1);
        assert_eq!(second.iter().map(|f| f.id).collect::<Vec<_>>(), [1]);
        assert!(
            svc.reduced_log().starts_with(&after_first),
            "a later batch rewrote committed facts"
        );
        assert_eq!(svc.status(0), InstanceStatus::Decided(first[0]));
        assert_eq!(svc.decided(), 2);
    }

    #[test]
    fn op_budget_exhaustion_closes_the_instance_undecided() {
        // A starvation-tight budget cannot decide; the instance must
        // still close with a `value: None` fact instead of wedging.
        let mut cfg = ServiceConfig::builder()
            .procs(4)
            .shards(1)
            .seed(2)
            .build()
            .unwrap();
        cfg.limits = Limits::run_to_completion().with_max_ops(4);
        let mut svc = NcService::new(cfg);
        fill(&mut svc, 0);
        let fresh = svc.run_ready(1);
        assert_eq!(fresh.len(), 1);
        assert_eq!(fresh[0].value, None);
        assert_eq!(fresh[0].round, 0);
        assert!(matches!(svc.status(0), InstanceStatus::Decided(_)));
    }

    #[test]
    fn decided_cap_evicts_and_status_answers_from_the_index() {
        let cfg = ServiceConfig::builder()
            .procs(3)
            .shards(2)
            .seed(6)
            .retention(Retention::DecidedCap(2))
            .build()
            .unwrap();
        let mut svc = NcService::new(cfg);
        for id in 0..5u64 {
            fill(&mut svc, id);
        }
        let facts = svc.run_ready(1);
        assert_eq!(svc.decided(), 5);
        assert_eq!(svc.resident_decided(), 2);
        assert_eq!(svc.evicted_count(), 3);
        let mut evicted_seen = 0;
        for id in 0..5u64 {
            match svc.status(id) {
                InstanceStatus::Decided(_) => {}
                InstanceStatus::Evicted { decided, round } => {
                    evicted_seen += 1;
                    // The answer must agree with the published fact.
                    let fact = *facts.iter().find(|f| f.id == id).unwrap();
                    assert_eq!(decided, fact.value);
                    assert_eq!(round as usize, fact.round);
                    // Evicted is closed for proposals, like Decided.
                    assert_eq!(
                        svc.submit(id, Bit::One),
                        Err(ServiceError::InstanceClosed { id })
                    );
                }
                other => panic!("instance {id}: unexpected status {other:?}"),
            }
        }
        assert_eq!(evicted_seen, 3);
        // Unknown is distinct from Evicted, and stays open.
        assert_eq!(svc.status(99), InstanceStatus::Unknown);
        assert!(svc.submit(99, Bit::One).is_ok(), "unknown ids stay open");
        // The reduced log keeps every fact, evicted ones included.
        let mut sorted = facts;
        sorted.sort_unstable_by_key(|f| f.id);
        assert_eq!(svc.reduced_log(), encode_log(sorted.into_iter()));
    }

    #[test]
    fn lru_poll_refreshes_recency() {
        let cfg = ServiceConfig::builder()
            .procs(2)
            .shards(1)
            .seed(4)
            .retention(Retention::Lru(2))
            .build()
            .unwrap();
        let mut svc = NcService::new(cfg);
        let mut tickets = HashMap::new();
        for id in 0..2u64 {
            tickets.insert(id, svc.submit(id, Bit::One).unwrap());
            svc.submit(id, Bit::Zero).unwrap();
        }
        svc.run_ready(1);
        // Poll id 0: id 1 becomes the LRU victim when 2 arrives.
        assert!(matches!(svc.poll(tickets[&0]), InstanceStatus::Decided(_)));
        fill(&mut svc, 2);
        svc.run_ready(1);
        assert!(matches!(svc.status(0), InstanceStatus::Decided(_)));
        assert!(matches!(svc.status(1), InstanceStatus::Evicted { .. }));
        assert!(matches!(svc.status(2), InstanceStatus::Decided(_)));
    }
}
