//! Deterministic per-stream random number generation.
//!
//! Every stochastic component of a simulation (each process's noise
//! stream, the failure coin, the backup protocol's local coins, the
//! schedule adversary) draws from its own independently-seeded generator,
//! derived from one run seed. This makes whole experiments reproducible
//! from a single `u64` and keeps streams independent of each other and of
//! iteration order.

use rand::rngs::SmallRng;
use rand::SeedableRng;

/// SplitMix64 finalizer — mixes a 64-bit value into a well-distributed
/// 64-bit value. Used to derive independent stream seeds from
/// `(run_seed, stream_id, salt)` triples.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Creates the deterministic RNG for stream `stream` with purpose tag
/// `salt`, derived from `run_seed`.
///
/// Distinct `(run_seed, stream, salt)` triples yield independent
/// generators; identical triples yield identical generators.
///
/// ```
/// use nc_sched::stream_rng;
/// use rand::RngExt;
///
/// let mut a = stream_rng(42, 0, 1);
/// let mut b = stream_rng(42, 0, 1);
/// assert_eq!(a.random::<u64>(), b.random::<u64>());
///
/// let mut c = stream_rng(42, 1, 1);
/// assert_ne!(stream_rng(42, 0, 1).random::<u64>(), c.random::<u64>());
/// ```
pub fn stream_rng(run_seed: u64, stream: u64, salt: u64) -> SmallRng {
    let mixed = splitmix64(
        splitmix64(run_seed ^ 0xA076_1D64_78BD_642F)
            ^ splitmix64(stream.wrapping_mul(0xE703_7ED1_A0B4_28DB))
            ^ salt.wrapping_mul(0x8EBC_6AF0_9C88_C6E3),
    );
    SmallRng::seed_from_u64(mixed)
}

/// Derives trial `t`'s run seed from a sweep's base seed — the standard
/// derivation for **new** scenarios and sweeps.
///
/// Each `(seed0, t, salt)` triple maps through the SplitMix64 finalizer
/// to a well-distributed, collision-free seed, so nearby trial indices
/// (and nearby base seeds) produce unrelated runs, and two sweeps in one
/// scenario can share a base seed without sharing any trial stream by
/// using distinct salts.
///
/// The 13 pre-existing experiments (E1–E14) intentionally do **not**
/// use this helper: they keep their historical affine derivations
/// (`seed0 + t * <stride>`, or E1's xor-multiply) verbatim, because the
/// committed golden CSVs and every recorded result pin those exact
/// per-trial seeds — switching them would invalidate all goldens for
/// zero scientific gain. New scenarios must use `trial_seed` (see
/// `docs/experiments.md`).
///
/// ```
/// use nc_sched::rng::trial_seed;
///
/// // Deterministic, and sensitive to every component.
/// assert_eq!(trial_seed(42, 7, 0), trial_seed(42, 7, 0));
/// assert_ne!(trial_seed(42, 7, 0), trial_seed(42, 8, 0));
/// assert_ne!(trial_seed(42, 7, 0), trial_seed(42, 7, 1));
/// assert_ne!(trial_seed(42, 7, 0), trial_seed(43, 7, 0));
/// ```
pub fn trial_seed(seed0: u64, t: u64, salt: u64) -> u64 {
    splitmix64(
        splitmix64(seed0 ^ 0x6C62_272E_07BB_0142)
            ^ splitmix64(t.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            ^ salt.wrapping_mul(0xD6E8_FEB8_6659_FD93),
    )
}

/// Well-known salts, so call sites across crates can't accidentally share
/// a stream.
pub mod salts {
    /// Per-process operation noise `X_ij`.
    pub const NOISE: u64 = 1;
    /// Per-process halting failures `H_ij`.
    pub const FAILURE: u64 = 2;
    /// Start-time dithering `Δ_i0`.
    pub const START: u64 = 3;
    /// Schedule adversary choices.
    pub const ADVERSARY: u64 = 4;
    /// Protocol-local coins (randomized baseline, backup shared coin).
    pub const COIN: u64 = 5;
    /// Value-fault injection streams (the `nc_memory::SimMemory` fault
    /// plane, armed per trial by the engine through
    /// `SimMemory::arm_faults`).
    pub const VALUE_FAULTS: u64 = 6;
    /// Network-fault injection (`nc_msg` message loss / duplication),
    /// salted independently of the delay-noise stream so arming faults
    /// never perturbs the delays a fault-free run would draw.
    pub const NET_FAULTS: u64 = 7;
    /// Gossip / anti-entropy scheduling jitter (`nc_msg` recovery plane).
    pub const GOSSIP: u64 = 8;
    /// Per-instance seed derivation in the `nc_service` instance table
    /// (`trial_seed(service_seed, instance_id, SERVICE)`), salted so a
    /// service and a `TrialSet` sweep sharing a base seed never share a
    /// per-run stream.
    pub const SERVICE: u64 = 9;
    /// Adversary-strategy seed derivation in `nc_adversary`: each
    /// strategy point in a tournament draws its seed via
    /// `trial_seed(tournament_seed, point_index, STRATEGY)`, and each
    /// trial under that point via `trial_seed(point_seed, t, STRATEGY)`,
    /// so two tournaments sharing a base seed — or a tournament and a
    /// plain `TrialSet` sweep — never share a per-run stream.
    pub const STRATEGY: u64 = 10;
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngExt;

    #[test]
    fn same_triple_same_stream() {
        let xs: Vec<u64> = (0..8).map(|_| 0).collect::<Vec<_>>();
        let mut a = stream_rng(1, 2, 3);
        let mut b = stream_rng(1, 2, 3);
        for _ in xs {
            assert_eq!(a.random::<u64>(), b.random::<u64>());
        }
    }

    #[test]
    fn different_seed_different_stream() {
        let mut a = stream_rng(1, 2, 3);
        let mut b = stream_rng(2, 2, 3);
        let va: Vec<u64> = (0..4).map(|_| a.random()).collect();
        let vb: Vec<u64> = (0..4).map(|_| b.random()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn different_stream_id_different_stream() {
        let mut a = stream_rng(1, 2, 3);
        let mut b = stream_rng(1, 3, 3);
        assert_ne!(a.random::<u64>(), b.random::<u64>());
    }

    #[test]
    fn different_salt_different_stream() {
        let mut a = stream_rng(1, 2, salts::NOISE);
        let mut b = stream_rng(1, 2, salts::FAILURE);
        assert_ne!(a.random::<u64>(), b.random::<u64>());
    }

    #[test]
    fn trial_seed_is_deterministic_and_component_sensitive() {
        assert_eq!(trial_seed(1, 2, 3), trial_seed(1, 2, 3));
        // A small grid of (seed0, t, salt) triples must be collision
        // free — affine trial seeds (seed0 + t) collide across sweeps
        // (sweep 1 trial 1 == sweep 2 trial 0), which is exactly what
        // the helper exists to prevent.
        let mut seen = std::collections::HashSet::new();
        for seed0 in 0..8u64 {
            for t in 0..8u64 {
                for salt in 0..4u64 {
                    assert!(
                        seen.insert(trial_seed(seed0, t, salt)),
                        "collision at ({seed0}, {t}, {salt})"
                    );
                }
            }
        }
    }

    #[test]
    fn splitmix_distributes_small_inputs() {
        // Consecutive small seeds should not produce obviously correlated
        // outputs; check all bytes differ somewhere across a small sample.
        let outs: Vec<u64> = (0..16u64).map(splitmix64).collect();
        let mut all = outs.clone();
        all.dedup();
        assert_eq!(all.len(), outs.len(), "splitmix collided on small inputs");
    }
}
