//! Scheduling models for the `noisy-consensus` workspace.
//!
//! Aspnes's *Fast Deterministic Consensus in a Noisy Environment*
//! (PODC 2000) proves termination of lean-consensus under two environment
//! models, both of which this crate implements as data + policy objects
//! that the discrete-event engine (`nc-engine`) consumes:
//!
//! * **Noisy scheduling** (§3.1): process `i`'s `j`-th operation occurs at
//!   `S_ij = Δ_i0 + Σ_{k≤j} (Δ_ik + X_ik + H_ik)` where the adversary
//!   picks the start times `Δ_i0` ([`StartTimes`]), bounded delays
//!   `Δ_ij ≤ M` ([`DelayPolicy`]), and the noise distribution of the
//!   i.i.d. `X_ij` ([`Noise`], [`OpNoise`]); `H_ij ∈ {0, ∞}` models random
//!   halting failures ([`FailureModel`]). [`TimingModel`] bundles the four.
//! * **Hybrid quantum + priority scheduling** (§3.2, §7): a uniprocessor
//!   with a pre-emptive scheduler; [`hybrid`] defines the legality rules
//!   (who may run next) and adversarial/benign pick policies.
//!
//! For safety testing — where the paper's guarantees must hold under *any*
//! schedule — [`adversary`] provides untimed schedule adversaries
//! (round-robin, random interleaving, anti-leader, replayable scripts)
//! and crash adversaries (including the adaptive leader-killer discussed
//! in §10).
//!
//! # Example: the Figure 1 noise suite
//!
//! ```
//! use nc_sched::Noise;
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::SmallRng::seed_from_u64(7);
//! for (name, noise) in Noise::figure1_suite() {
//!     let x = noise.sample(&mut rng);
//!     assert!(x >= 0.0, "{name} produced a negative delay");
//! }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod adversary;
pub mod hybrid;
pub mod noise;
pub mod queue;
pub mod rng;
pub mod select;
pub mod timing;
pub mod tree;

pub use adversary::{Adversary, CrashAdversary, ProcView};
pub use hybrid::{HybridPolicy, HybridSpec, HybridView};
pub use noise::{Noise, OpNoise};
pub use queue::{Event as QueuedEvent, EventQueue};
pub use rng::stream_rng;
pub use timing::{DelayPolicy, FailureModel, StartTimes, TimingModel};
// Engine-free: perfbench's `sched.hold_ns` times it at large n.
pub use tree::EventTree;
