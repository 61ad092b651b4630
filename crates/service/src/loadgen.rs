//! The service's deterministic request stream.
//!
//! [`proposals_for`] derives the proposal values of instance `id` from
//! the id alone, so every caller that submits the same ids (perfbench,
//! scenarios E19 and E20, the service test suites) decides the same
//! instances into the same reduced commit log. [`percentile`] is the
//! nearest-rank quantile perfbench reports latencies with. Timing stays
//! with the callers and never feeds a commit log or a golden file.

use nc_memory::Bit;
use nc_sched::rng::trial_seed;

/// Salt for the generator's proposal-value derivation — distinct from
/// `nc_sched::rng::salts` so generated inputs never correlate with any
/// engine stream.
const LOADGEN_SALT: u64 = 0x10AD;

/// The deterministic proposal vector the generator submits for
/// instance `id`: bits of a SplitMix64-mixed word, so unanimous and
/// split instances both occur without any wall-clock dependence.
pub fn proposals_for(id: u64, procs: usize) -> Vec<Bit> {
    let word = trial_seed(id, 0, LOADGEN_SALT);
    (0..procs)
        .map(|p| Bit::from((word >> (p % 64)) & 1 == 1))
        .collect()
}

/// The `q`-quantile of an ascending-sorted sample (nearest-rank).
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proposals_are_deterministic_and_mixed() {
        assert_eq!(proposals_for(7, 5), proposals_for(7, 5));
        assert_ne!(proposals_for(7, 8), proposals_for(8, 8));
        // Across a small id range both values must occur somewhere.
        let all: Vec<Bit> = (0..32).flat_map(|id| proposals_for(id, 4)).collect();
        assert!(all.contains(&Bit::Zero) && all.contains(&Bit::One));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&xs, 0.50), 2.0);
        assert_eq!(percentile(&xs, 0.99), 4.0);
        assert_eq!(percentile(&[], 0.99), 0.0);
    }
}
