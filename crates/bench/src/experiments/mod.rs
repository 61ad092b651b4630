//! One module per experiment in the catalogue (`docs/experiments.md`);
//! each module also registers itself in [`crate::scenario::REGISTRY`],
//! which is what the `repro` binary and the golden/determinism tests
//! drive.
//!
//! | Module | Exp | Paper artifact |
//! |--------|-----|----------------|
//! | [`fig1`] | E1 | Figure 1 (§9) |
//! | [`validity`] | E2 | Lemma 3 cost |
//! | [`scaling`] | E3 | Theorem 12 Θ(log n) with failures |
//! | [`lower`] | E4 | Theorem 13 Ω(log n) |
//! | [`hybrid`] | E5 | Theorem 14 quantum bound |
//! | [`bounded`] | E6 | Theorem 15 bounded space |
//! | [`unfair`] | E7 | Theorem 1 unfairness |
//! | [`race`] | E8 | Theorem 10 / Corollary 11 |
//! | [`ablation`] | E9 | §4 skip-ops paradox |
//! | [`baseline`] | E10 | randomized baselines |
//! | [`crashes`] | E11 | §10 adaptive crashes |
//! | [`msgpass`] | E13 | §10 message-passing extension (ABD) |
//! | [`statistical`] | E14 | §10 statistical adversary |
//! | [`value_faults`] | E15 | related-work value faults (ε-noise, stuck registers) |
//! | [`adversary_search`] | E16 | Theorem 12 / §10: searched adaptive adversaries |
//! | [`partitions`] | E17 | §10 extension: network faults, partitions, gossip recovery |
//! | [`service`] | E19 | multi-instance deployment: the `nc_service` sharded instance manager |
//! | [`durability`] | E20 | durable service plane: commit journals, eviction, crash recovery |

pub mod ablation;
pub mod adversary_search;
pub mod baseline;
pub mod bounded;
pub mod crashes;
pub mod durability;
pub mod fig1;
pub mod hybrid;
pub mod lower;
pub mod msgpass;
pub mod partitions;
pub mod race;
pub mod scaling;
pub mod service;
pub mod statistical;
pub mod unfair;
pub mod validity;
pub mod value_faults;
