//! # noisy-consensus
//!
//! A production-quality Rust reproduction of **James Aspnes, "Fast
//! Deterministic Consensus in a Noisy Environment" (PODC 2000)**:
//! the deterministic, wait-free **lean-consensus** protocol, the
//! **noisy-scheduling** environment model that makes it terminate in
//! `Θ(log n)` rounds, the **hybrid quantum/priority** uniprocessor model
//! that makes it terminate in 12 operations, the **bounded-space**
//! combined protocol, and the full experiment suite reproducing the
//! paper's Figure 1 and theorem-level claims.
//!
//! This crate is a facade: it re-exports the workspace's public API so
//! applications can depend on one crate.
//!
//! | Module | Crate | Contents |
//! |--------|-------|----------|
//! | [`core`] | `nc-core` | lean-consensus + variants, [`core::Protocol`], native runner |
//! | [`memory`] | `nc-memory` | the [`SimMemory`] word store with seeded value faults, atomic arrays, history checker |
//! | [`sched`] | `nc-sched` | noise distributions, timing model, adversaries, hybrid scheduling |
//! | [`engine`] | `nc-engine` | the [`Sim`] builder: noisy / adversarial / hybrid schedules, run reports, the naive oracle |
//! | [`backup`] | `nc-backup` | bounded-space randomized backup consensus (§8) |
//! | [`theory`] | `nc-theory` | renewal races (Theorem 10), Lemma 5, statistics |
//! | [`msg`] | `nc-msg` | §10 extension: ABD register emulation over noisy channels |
//! | [`service`] | `nc-service` | consensus as a service: sharded multi-shot instance manager |
//! | [`adversary`] | `nc-adversary` | adaptive budget-limited adversaries, strategy-search tournament |
//!
//! The most common items are re-exported at the crate root.
//!
//! ## Decide something on real threads
//!
//! ```
//! use noisy_consensus::{Bit, NativeConsensus};
//! use std::sync::Arc;
//!
//! let consensus = Arc::new(NativeConsensus::new());
//! let handles: Vec<_> = (0..4)
//!     .map(|i| {
//!         let c = Arc::clone(&consensus);
//!         std::thread::spawn(move || c.propose(Bit::from(i % 2 == 0)).unwrap().value)
//!     })
//!     .collect();
//! let decisions: Vec<Bit> = handles.into_iter().map(|h| h.join().unwrap()).collect();
//! assert!(decisions.iter().all(|&d| d == decisions[0]));
//! ```
//!
//! ## Simulate the paper's model
//!
//! One typed builder ([`Sim`]) covers every execution model — noisy
//! scheduling, adversarial schedules, the hybrid uniprocessor — plus
//! failures, crash adversaries, history recording, and sweeps with
//! per-call parallelism:
//!
//! ```
//! use noisy_consensus::engine::setup::{self, Algorithm};
//! use noisy_consensus::sched::{Noise, TimingModel};
//! use noisy_consensus::Sim;
//!
//! let inputs = setup::half_and_half(100);
//! let mut sim = Sim::new(Algorithm::Lean)
//!     .inputs(inputs.clone())
//!     .timing(TimingModel::figure1(Noise::Uniform { lo: 0.0, hi: 2.0 }))
//!     .build();
//! let report = sim.run(7);
//! report.check_safety(&inputs).unwrap();
//! println!("first decision at round {:?}", report.first_decision_round);
//!
//! // A 200-trial sweep across 2 worker threads — bit-identical at any
//! // worker count.
//! let rounds = Sim::new(Algorithm::Lean)
//!     .inputs(inputs)
//!     .timing(TimingModel::figure1(Noise::Uniform { lo: 0.0, hi: 2.0 }))
//!     .limits(noisy_consensus::Limits::first_decision())
//!     .trials(200)
//!     .seed0(7)
//!     .threads(2)
//!     .map(|r| r.first_decision_round);
//! assert_eq!(rounds.len(), 200);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use nc_adversary as adversary;
pub use nc_backup as backup;
pub use nc_core as core;
pub use nc_engine as engine;
pub use nc_memory as memory;
pub use nc_msg as msg;
pub use nc_sched as sched;
pub use nc_service as service;
pub use nc_theory as theory;

pub use nc_adversary::{BudgetedAdversary, StrategyFamily, StrategyPoint, Tournament};
pub use nc_core::{
    Bit, BoundedLean, Decision, LeanConsensus, NativeConsensus, Protocol, RandomizedLean,
    RoundLimitError, SkippingLean, Status,
};
pub use nc_engine::{Limits, RunOutcome, RunReport, Sim, SimRun, TrialSet};
pub use nc_memory::{FaultSpec, Op, Pid, RaceLayout, SegArray, SimMemory, Word};
pub use nc_sched::{Noise, TimingModel};
pub use nc_service::{CommitFact, InstanceStatus, NcService, ServiceConfig};

// Compiles and runs the README's Rust blocks as doctests.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
pub struct ReadmeDoctests;
