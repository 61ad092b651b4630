//! Bounded-space randomized backup consensus for the §8 combined
//! protocol.
//!
//! The paper bounds lean-consensus's space by cutting it off after
//! `r_max = O(log² n)` rounds and switching to "a bounded-space consensus
//! protocol that requires polynomial work per process", citing the
//! `O(n⁴)` protocol of Aspnes '93. Any protocol with the following
//! contract slots into that construction:
//!
//! * **validity** (crucial for agreement across the seam),
//! * **agreement**,
//! * almost-sure termination with polynomial expected work,
//! * a fixed, bounded register footprint.
//!
//! [`BackupConsensus`] meets the contract with a three-layer design whose
//! correctness argument is short enough to carry in the module docs:
//!
//! 1. **Adopt-commit objects** (`adopt`) — one per round. If any
//!    process *commits* `v` in round `r`, every process that ever passes
//!    round `r` walks away holding `v`; unanimous proposals always
//!    commit.
//! 2. **Conciliators** (`conciliator`) — one per round. Preserve
//!    unanimous inputs exactly; on mixed inputs, at most one value can
//!    "win early", and everyone else falls through to a shared coin, so
//!    all outputs agree with constant probability.
//! 3. **Random-walk shared coin** (`coin`) — per-process ±1 counters,
//!    exit when the observed sum crosses `±3n` (the Aspnes '93 random
//!    walk with a practical threshold).
//!
//! The round loop is then: propose to adopt-commit; on commit, decide;
//! on adopt, run the conciliator and carry its output to the next round.
//! A commit at round `r` forces unanimity into round `r + 1`, where
//! everyone commits — so decisions can never disagree, and each
//! no-commit round ends in a conciliator that produces unanimity with
//! constant probability, giving geometric termination.
//!
//! # Space
//!
//! Rounds live in a fixed pool of round slots reused
//! cyclically. Typical executions finish in 1–3 rounds; reuse only
//! matters if an execution outlives the pool with a straggler more than
//! a full pool-cycle behind, which requires a geometrically unlikely run
//! of coin failures (probability `≤ (1-δ)^rounds`). This is the
//! documented engineering stand-in for the truly bounded construction of
//! Aspnes '93, whose counter-folding machinery is out of scope here.
//!
//! # Example
//!
//! ```
//! use nc_backup::{BackupConsensus, BackupLayout};
//! use nc_core::{run_random_interleave, Protocol};
//! use nc_memory::{Bit, SimMemory};
//! use nc_sched::stream_rng;
//!
//! let n = 3;
//! let mut mem = SimMemory::new();
//! let region = mem.alloc(BackupLayout::words_needed(n, 16));
//! let layout = BackupLayout::new(region, n, 16);
//!
//! let inputs = [Bit::Zero, Bit::One, Bit::One];
//! let mut procs: Vec<BackupConsensus> = inputs
//!     .iter()
//!     .enumerate()
//!     .map(|(i, &b)| BackupConsensus::new(layout, i, b, stream_rng(7, i as u64, 5)))
//!     .collect();
//!
//! let decisions = run_random_interleave(&mut procs, &mut mem, 1, 1_000_000).unwrap();
//! assert!(decisions.iter().all(|&d| d == decisions[0]), "agreement");
//! ```

#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

mod adopt;
mod coin;
mod conciliator;
mod layout;
mod protocol;

pub use layout::BackupLayout;
pub use protocol::BackupConsensus;
