//! Message-passing extension (§10: "It would be interesting to see
//! whether a noisy scheduling assumption can be used to solve consensus
//! quickly in an asynchronous message-passing model").
//!
//! The classic bridge between the two models is the **ABD emulation**
//! (Attiya, Bar-Noy, Dolev): a multi-writer multi-reader atomic register
//! built from point-to-point channels and majority quorums, tolerating a
//! minority of crashed processes. Because the emulated registers are
//! atomic (linearizable), every execution of lean-consensus over them is
//! equivalent to an execution in the paper's interleaving shared-memory
//! model — safety carries over verbatim, and the noisy-delay assumption
//! moves from operations to *messages*.
//!
//! This crate provides:
//!
//! * `proto` — the wire protocol: timestamped values, the
//!   query/reply/put/ack messages that reads and writes share, plus
//!   anti-entropy gossip ([`proto::Payload`]).
//! * [`node`] — one node = one replica (hosting a share of every
//!   register) + one ABD client + one unchanged
//!   [`nc_core::LeanConsensus`] step machine driving it. Quorums count
//!   **distinct** replicas, phases are resendable, and a subset of nodes
//!   can serve replica duties out of a shared `node::SharedPlane`
//!   (one replica held in common, for mixed deployments).
//! * `faults` — the deterministic network-fault plane: seeded message
//!   loss, duplication, and timed partition schedules
//!   ([`faults::NetFaultSpec`]), with retry/timeout and gossip tuning
//!   ([`faults::RecoverySpec`]).
//! * `sim` — a discrete-event network simulator: every message suffers
//!   an i.i.d. noisy delay (any [`nc_sched::Noise`]); nodes may crash,
//!   messages may be lost/duplicated/cut by a partition; retry timers
//!   and gossip keep the run live through the faults; the run ends when
//!   all live nodes decide (see [`sim::Outcome`]).
//!
//! # Example
//!
//! ```
//! use nc_msg::{run_message_passing, MsgConfig};
//! use nc_sched::Noise;
//!
//! let cfg = MsgConfig::new(5, Noise::Exponential { mean: 1.0 });
//! let report = run_message_passing(&cfg, 42);
//! let decisions: Vec<_> = report.decisions.iter().flatten().collect();
//! assert_eq!(decisions.len(), 5);
//! assert!(decisions.iter().all(|&&d| d == *decisions[0]), "agreement");
//! ```

#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

mod faults;
pub mod node;
mod proto;
mod sim;

pub use faults::{NetFaultError, NetFaultSpec, Partition, RecoverySpec};
pub use proto::{OpId, Payload, Stamp};
pub use sim::{run_message_passing, Channel, MsgConfig, MsgConfigError, MsgReport, Outcome};
