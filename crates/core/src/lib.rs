//! The **lean-consensus** protocol of Aspnes, *Fast Deterministic
//! Consensus in a Noisy Environment* (PODC 2000), and its variants.
//!
//! lean-consensus is a deterministic, wait-free binary consensus protocol
//! for asynchronous shared memory. It is Chandra's PODC'96 algorithm with
//! every randomized part removed: processes preferring 0 race processes
//! preferring 1 up two arrays of atomic bits, `a0` and `a1`. In each round
//! `r` a process with preference `p` performs exactly four operations:
//!
//! 1. read `a0[r]`; 2. read `a1[r]` — if exactly one of them is set,
//!    adopt that side's preference;
//! 3. write `1` to `a_p[r]`;
//! 4. read `a_{1-p}[r-1]` — if it is still `0`, the rival team is at
//!    least two rounds behind: **decide `p`**.
//!
//! Agreement and validity hold under *any* schedule (§5, Lemmas 2–4);
//! termination relies on the environment letting some process pull ahead
//! (noisy scheduling: Θ(log n) rounds, §6; hybrid uniprocessor
//! scheduling: ≤ 12 operations, §7).
//!
//! # What this crate provides
//!
//! * [`Protocol`] — the step-machine interface every protocol in the
//!   workspace implements: expose the pending shared-memory
//!   [`Op`](nc_memory::Op), consume its result, and step fused against the
//!   [`nc_memory::SimMemory`] word store. One implementation runs
//!   unchanged under the discrete-event engine, the hybrid
//!   uniprocessor driver, and native threads.
//! * [`LeanConsensus`] — the paper's algorithm, operation-exact.
//! * Two variants, each one rule over a [`LeanConsensus`] it holds:
//!   the variant runs the paper's round unchanged and acts only after
//!   the frontier reads.
//!   * [`SkippingLean`] — the "optimized" variant §4 warns against
//!     (skips provably redundant operations), kept for the ablation
//!     experiment showing the paradox: skipping ops *slows
//!     termination*.
//!   * [`RandomizedLean`] — a local-coin variant: identical to
//!     lean-consensus except that a process seeing **both** frontier
//!     bits set re-randomizes its preference (the only placement of
//!     local randomness that preserves Lemmas 2–4; see the module docs
//!     for why an all-zero-frontier coin is genuinely unsafe, and why
//!     local coins cannot defeat lockstep schedules — that takes a
//!     shared coin, i.e. the `nc-backup` protocol).
//! * [`BoundedLean`] — the §8 combined protocol: lean-consensus through
//!   round `r_max`, then hand the current preference to a bounded-space
//!   backup protocol (any [`Protocol`] with validity).
//! * [`NativeConsensus`] — lean-consensus on real threads over
//!   lock-free atomic arrays, and [`IdConsensus`] — footnote 2's
//!   id consensus from a `lg n`-depth tree of binary objects.
//! * [`invariants`] — executable statements of Lemmas 2–4 used across
//!   the test suites.
//!
//! # Quickstart (simulated memory, randomly interleaved schedule)
//!
//! ```
//! use nc_core::{run_random_interleave, LeanConsensus, Protocol};
//! use nc_memory::{Bit, RaceLayout, SimMemory};
//!
//! let mut mem = SimMemory::new();
//! let layout = RaceLayout::at_base(0);
//! layout.install_sentinels(&mut mem);
//!
//! let mut procs: Vec<LeanConsensus> = [Bit::Zero, Bit::One, Bit::One]
//!     .iter()
//!     .map(|&input| LeanConsensus::new(layout, input))
//!     .collect();
//!
//! let decisions =
//!     run_random_interleave(&mut procs, &mut mem, 42, 1_000_000).expect("terminates");
//! assert!(decisions.iter().all(|&d| d == decisions[0]), "agreement");
//! ```
//!
//! (A perfectly fair round-robin schedule with split inputs keeps the
//! race tied forever — that is the FLP-mandated bad schedule, and exactly
//! what the paper's noise assumption rules out.)

#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod bounded;
pub mod id;
pub mod invariants;
mod lean;
pub mod protocol;
mod randomized;
mod skipping;
mod threaded;

pub use bounded::BoundedLean;
pub use id::IdConsensus;
pub use lean::LeanConsensus;
pub use protocol::{run_random_interleave, run_round_robin, step, Protocol, Status};
pub use randomized::RandomizedLean;
pub use skipping::SkippingLean;
pub use threaded::{Decision, NativeConsensus, RoundLimitError};

pub use nc_memory::Bit;
