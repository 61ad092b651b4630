//! Shared-memory substrate for the `noisy-consensus` workspace.
//!
//! The model of Aspnes's *Fast Deterministic Consensus in a Noisy
//! Environment* (PODC 2000) is an asynchronous shared-memory system in
//! which processes communicate **only** through atomic read/write
//! registers, and operations interleave in a global sequence: each read
//! returns the value of the last preceding write to the same location.
//!
//! This crate provides everything the rest of the workspace needs to talk
//! about that memory:
//!
//! * `types` — the vocabulary: process ids ([`Pid`]), addresses
//!   ([`Addr`]), register values ([`Word`]), binary preferences ([`Bit`]),
//!   and pending operations ([`Op`]).
//! * `sim` — [`SimMemory`], the one word store: a growable,
//!   zero-initialised simulated address space with region allocation,
//!   used by the discrete-event engine. All locations behave as atomic
//!   read/write registers under the interleaving semantics.
//! * `faulty` — [`FaultSpec`], deterministic seeded value faults
//!   (stuck-at registers, write drops, read bit-flips) that a
//!   [`SimMemory`] injects once given a spec and armed.
//! * `history` — recorded operation histories ([`Event`]) and a checker
//!   ([`check_register_semantics`]) that validates a history against the
//!   sequential register specification (every read returns the most recent
//!   write).
//! * `layout` — address-space layouts: [`RaceLayout`] interleaves the
//!   paper's two unbounded bit arrays `a0`/`a1` into one growable space,
//!   and [`Region`] hands out disjoint address ranges for protocol
//!   composition (lean-consensus + backup in the bounded protocol of §8).
//!
//! # Example
//!
//! ```
//! use nc_memory::{Bit, Op, RaceLayout, SimMemory};
//!
//! let mut mem = SimMemory::new();
//! let layout = RaceLayout::at_base(0);
//! // The paper prefixes a0/a1 with read-only sentinel cells a_b[0] = 1.
//! layout.install_sentinels(&mut mem);
//!
//! // A round-1 write of process preferring 1, then a read of the rival array.
//! mem.exec(Op::Write(layout.slot(Bit::One, 1), 1));
//! let rival = mem.exec(Op::Read(layout.slot(Bit::Zero, 1)));
//! assert_eq!(rival, Some(0));
//! ```

#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

mod faulty;
mod history;
mod layout;
mod sim;
mod types;

pub use faulty::FaultSpec;
pub use history::{check_register_semantics, check_register_semantics_from, Event, HistoryError};
pub use layout::{RaceLayout, Region};
pub use sim::SimMemory;
pub use types::{Addr, Bit, Op, Pid, Word};
