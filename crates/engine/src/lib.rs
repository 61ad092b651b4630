//! Discrete-event simulation engine for the `noisy-consensus` workspace.
//!
//! The front door is [`sim::Sim`] — one typed builder covering every
//! execution model from the paper. Pick an [`Algorithm`] and inputs,
//! pick a schedule, layer options — including deterministic value-fault
//! injection into the word store ([`sim::Sim::value_faults`]) — then
//! either run seeds one at a time through a reusable [`sim::SimRun`]
//! handle or sweep thousands of trials through a [`sim::TrialSet`]
//! (which owns scratch pooling and per-call worker fan-out):
//!
//! * [`sim::Sim::timing`] — the noisy-scheduling model (§3.1):
//!   operation times follow `S'_ij = Δ_i0 + Σ (Δ_ij + X_ij + H_ij)`
//!   from an [`nc_sched::TimingModel`]; an event queue executes
//!   operations in time order (the interleaving model). Supports random
//!   halting failures ([`sim::Sim::faults`]), adaptive crash
//!   adversaries (§10, [`sim::Sim::crash_adversary`]), first-decision
//!   early exit (what Figure 1 measures), and history recording for the
//!   register-semantics checker ([`sim::Sim::record_history`]).
//! * [`sim::Sim::adversary`] — a fully adversarial untimed scheduler
//!   ([`nc_sched::Adversary`] picks every step), used to exercise the
//!   safety properties that must hold under *any* schedule.
//! * [`sim::Sim::hybrid`] — the hybrid quantum + priority uniprocessor
//!   (§3.2/§7), enforcing [`nc_sched::HybridSpec`] legality while an
//!   [`nc_sched::HybridPolicy`] (the adversary) picks among legal moves.
//!
//! [`setup`] assembles ready-to-run instances of each algorithm variant
//! (paper lean-consensus, the skip-ops ablation, the local-coin variant,
//! the §8 bounded protocol with the real backup, or the backup alone),
//! and [`report::RunReport`] is the common result type, with the paper's
//! safety lemmas checkable via [`report::RunReport::check_safety`].
//!
//! Beneath the builder sit the public drive internals
//! ([`noisy::drive_noisy`], [`adversarial::drive_adversarial`],
//! [`hybrid::drive_hybrid`]); each schedule only picks the next process,
//! and one shared step loop does the rest (executing, recording,
//! deciding, cutoffs, crashes, the report) — the noisy model's
//! common-case `loop_fast` aside. `tests/sim_equivalence.rs` pins the
//! builder bit-for-bit against them. (The pre-builder `run_*` wrappers,
//! deprecated since the `Sim` redesign, are gone — see the migration
//! table in `docs/engine-internals.md`.)
//!
//! # Example: one Figure 1 data point
//!
//! ```
//! use nc_engine::sim::Sim;
//! use nc_engine::{setup, Algorithm, Limits};
//! use nc_sched::{Noise, TimingModel};
//!
//! let inputs = setup::half_and_half(10);
//! let mut sim = Sim::new(Algorithm::Lean)
//!     .inputs(inputs.clone())
//!     .timing(TimingModel::figure1(Noise::Exponential { mean: 1.0 }))
//!     .limits(Limits::first_decision())
//!     .build();
//! let report = sim.run(42);
//! let first = report.first_decision_round.expect("terminates");
//! assert!(first >= 2);
//! report.check_safety(&inputs).unwrap();
//! ```
//!
//! # Example: a sweep with per-call parallelism
//!
//! ```
//! use nc_engine::sim::Sim;
//! use nc_engine::{setup, Algorithm, Limits};
//! use nc_sched::{Noise, TimingModel};
//!
//! let rounds: Vec<usize> = Sim::new(Algorithm::Lean)
//!     .inputs(setup::half_and_half(12))
//!     .timing(TimingModel::figure1(Noise::Uniform { lo: 0.0, hi: 2.0 }))
//!     .limits(Limits::first_decision())
//!     .trials(64)
//!     .seed0(7)
//!     .seed_stride(13)
//!     .threads(2) // this sweep's workers — no process-global knob
//!     .map(|report| report.first_decision_round.unwrap());
//! assert_eq!(rounds.len(), 64);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod adversarial;
#[cfg(any(test, feature = "baseline"))]
#[path = "noisy_baseline.rs"]
pub mod baseline;
mod drive;
pub mod hybrid;
pub mod noisy;
pub mod report;
pub mod setup;
pub mod sim;

pub use noisy::EngineScratch;
pub use report::{Limits, RunOutcome, RunReport};
pub use setup::{build, half_and_half, Algorithm, Instance};
pub use sim::{Sim, SimRun, TrialSet};

// Re-exported so engine callers can describe value faults
// ([`sim::Sim::value_faults`]) without importing nc-memory directly.
pub use nc_memory::FaultSpec;
