//! One module per experiment in the catalogue (`docs/experiments.md`);
//! each module also registers itself in [`crate::scenario::REGISTRY`],
//! which is what the `repro` binary and the golden/determinism tests
//! drive.
//!
//! | Module | Exp | Paper artifact |
//! |--------|-----|----------------|
//! | [`fig1`] | E1 | Figure 1 (§9) |
//! | `validity` | E2 | Lemma 3 cost |
//! | `scaling` | E3 | Theorem 12 Θ(log n) with failures |
//! | `lower` | E4 | Theorem 13 Ω(log n) |
//! | `hybrid` | E5 | Theorem 14 quantum bound |
//! | `bounded` | E6 | Theorem 15 bounded space |
//! | `unfair` | E7 | Theorem 1 unfairness |
//! | `race` | E8 | Theorem 10 / Corollary 11 |
//! | `ablation` | E9 | §4 skip-ops paradox |
//! | `baseline` | E10 | randomized baselines |
//! | `crashes` | E11 | §10 adaptive crashes |
//! | `msgpass` | E13 | §10 message-passing extension (ABD) |
//! | `statistical` | E14 | §10 statistical adversary |
//! | `value_faults` | E15 | related-work value faults (ε-noise, stuck registers) |
//! | `adversary_search` | E16 | Theorem 12 / §10: searched adaptive adversaries |
//! | `partitions` | E17 | §10 extension: network faults, partitions, gossip recovery |
//! | `service` | E19 | multi-instance deployment: the `nc_service` sharded instance manager |
//! | `durability` | E20 | durable service plane: commit journals, eviction, crash recovery |

pub(crate) mod ablation;
pub(crate) mod adversary_search;
pub(crate) mod baseline;
pub(crate) mod bounded;
pub(crate) mod crashes;
pub(crate) mod durability;
pub mod fig1;
pub(crate) mod hybrid;
pub(crate) mod lower;
pub(crate) mod msgpass;
pub(crate) mod partitions;
pub(crate) mod race;
pub(crate) mod scaling;
pub(crate) mod service;
pub(crate) mod statistical;
pub(crate) mod unfair;
pub(crate) mod validity;
pub(crate) mod value_faults;
