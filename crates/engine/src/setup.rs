//! Instance assembly: memory, layouts, and protocol state machines.
//!
//! Drivers are generic over [`nc_core::Protocol`], but the experiment
//! harness wants to swap algorithms by name. [`build`] wires each
//! [`Algorithm`] variant to its memory regions and per-process RNG
//! streams and hands back a uniform [`Instance`] of boxed protocols.

use rand::rngs::SmallRng;

use nc_backup::{BackupConsensus, BackupLayout};
use nc_core::{BoundedLean, LeanConsensus, Protocol, RandomizedLean, SkippingLean};
use nc_memory::{Bit, RaceLayout, SimMemory};
use nc_sched::rng::salts;
use nc_sched::stream_rng;

/// Default round-slot pool for backup instances.
const BACKUP_ROUND_SLOTS: usize = 64;

/// Which protocol to instantiate.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Algorithm {
    /// The paper's lean-consensus (§4), operation-exact.
    Lean,
    /// The skip-ops "optimization" the paper warns against (ablation).
    Skipping,
    /// lean-consensus with the safe local tie coin.
    Randomized,
    /// The §8 bounded protocol: lean through `r_max`, then the real
    /// backup ([`nc_backup::BackupConsensus`]).
    Bounded {
        /// Round cutoff before the backup engages.
        r_max: usize,
    },
    /// The backup protocol alone (the randomized shared-coin baseline).
    Backup,
}

impl Algorithm {
    /// Short machine-friendly label, used in experiment CSV output.
    pub fn label(self) -> &'static str {
        match self {
            Algorithm::Lean => "lean",
            Algorithm::Skipping => "skipping",
            Algorithm::Randomized => "randomized",
            Algorithm::Bounded { .. } => "bounded",
            Algorithm::Backup => "backup",
        }
    }
}

/// A ready-to-run set of processes over one shared memory.
///
/// Generic over the protocol representation: the default
/// `Box<dyn Protocol>` lets the harness swap algorithms by name, while
/// a concrete parameter ([`Instance<LeanConsensus>`] from
/// [`build_lean`]) monomorphizes the drivers — the protocol's fused
/// step and the memory's `read`/`write` inline straight into the
/// engine's event loop with no virtual dispatch, which is worth a large
/// constant factor on sweep workloads.
#[derive(Debug)]
pub struct Instance<P = Box<dyn Protocol>> {
    /// The shared memory, sentinels installed.
    pub mem: SimMemory,
    /// One protocol state machine per process.
    pub procs: Vec<P>,
}

impl Instance<LeanConsensus> {
    /// Re-initializes this instance in place for a fresh trial with
    /// `inputs` — equivalent to [`build_lean`] but reusing every
    /// allocation (memory words, process vector), so a sweep's steady
    /// state builds instances allocation-free. The memory's value-fault
    /// spec, if any, stays set and disarmed.
    pub fn rebuild(&mut self, inputs: &[Bit]) {
        assert!(!inputs.is_empty(), "need at least one process");
        self.mem.reset();
        let layout = race_layout(&mut self.mem);
        self.procs.clear();
        self.procs
            .extend(inputs.iter().map(|&b| LeanConsensus::new(layout, b)));
    }
}

/// Builds an instance of `algorithm` for the given inputs.
///
/// `seed` derives every per-process RNG stream (coin streams for the
/// randomized variants), so identical `(algorithm, inputs, seed)` triples
/// build identical instances.
///
/// # Panics
///
/// Panics if `inputs` is empty.
pub fn build(algorithm: Algorithm, inputs: &[Bit], seed: u64) -> Instance {
    assert!(!inputs.is_empty(), "need at least one process");
    let n = inputs.len();
    let mut mem = SimMemory::new();
    let coin = |pid: usize| -> SmallRng { stream_rng(seed, pid as u64, salts::COIN) };

    let procs: Vec<Box<dyn Protocol>> = match algorithm {
        Algorithm::Lean => {
            let layout = race_layout(&mut mem);
            inputs
                .iter()
                .map(|&b| Box::new(LeanConsensus::new(layout, b)) as Box<dyn Protocol>)
                .collect()
        }
        Algorithm::Skipping => {
            let layout = race_layout(&mut mem);
            inputs
                .iter()
                .map(|&b| Box::new(SkippingLean::new(layout, b)) as Box<dyn Protocol>)
                .collect()
        }
        Algorithm::Randomized => {
            let layout = race_layout(&mut mem);
            inputs
                .iter()
                .enumerate()
                .map(|(pid, &b)| {
                    Box::new(RandomizedLean::new(layout, b, coin(pid))) as Box<dyn Protocol>
                })
                .collect()
        }
        Algorithm::Bounded { r_max } => {
            // Lean gets the low addresses (sentinels + r_max + 1 rounds of
            // slack for the final partial round), the backup a disjoint
            // region above them.
            let lean_region = mem.alloc(RaceLayout::words_for_rounds(r_max + 2));
            let lean_layout = RaceLayout::in_region(lean_region);
            lean_layout.install_sentinels(&mut mem);
            let backup_region = mem.alloc(BackupLayout::words_needed(n, BACKUP_ROUND_SLOTS));
            let backup_layout = BackupLayout::new(backup_region, n, BACKUP_ROUND_SLOTS);
            inputs
                .iter()
                .enumerate()
                .map(|(pid, &b)| {
                    let rng = coin(pid);
                    let make = Box::new(move |pref: Bit| {
                        BackupConsensus::new(backup_layout, pid, pref, rng)
                    })
                        as Box<dyn FnOnce(Bit) -> BackupConsensus + Send>;
                    Box::new(BoundedLean::new(lean_layout, b, r_max, make)) as Box<dyn Protocol>
                })
                .collect()
        }
        Algorithm::Backup => {
            let region = mem.alloc(BackupLayout::words_needed(n, BACKUP_ROUND_SLOTS));
            let layout = BackupLayout::new(region, n, BACKUP_ROUND_SLOTS);
            inputs
                .iter()
                .enumerate()
                .map(|(pid, &b)| {
                    Box::new(BackupConsensus::new(layout, pid, b, coin(pid))) as Box<dyn Protocol>
                })
                .collect()
        }
    };

    Instance { mem, procs }
}

/// Builds a **monomorphized** lean-consensus instance: the same
/// configuration as [`build`]`(Algorithm::Lean, ..)` but with concrete
/// [`LeanConsensus`] processes instead of boxed trait objects. This is
/// the Figure 1 hot path: the engine's event loop specializes over the
/// protocol type and executes it without virtual dispatch.
///
/// lean-consensus is deterministic, so unlike [`build`] no seed is
/// needed.
///
/// # Panics
///
/// Panics if `inputs` is empty.
pub fn build_lean(inputs: &[Bit]) -> Instance<LeanConsensus> {
    assert!(!inputs.is_empty(), "need at least one process");
    let mut mem = SimMemory::new();
    let layout = race_layout(&mut mem);
    Instance {
        mem,
        procs: inputs
            .iter()
            .map(|&b| LeanConsensus::new(layout, b))
            .collect(),
    }
}

fn race_layout(mem: &mut SimMemory) -> RaceLayout {
    let layout = RaceLayout::at_base(0);
    layout.install_sentinels(mem);
    layout
}

/// The paper's Figure 1 input split: the first `n / 2` processes propose
/// 0, the rest propose 1 (for odd `n`, the 1-side gets the extra
/// process).
pub fn half_and_half(n: usize) -> Vec<Bit> {
    (0..n)
        .map(|i| if i < n / 2 { Bit::Zero } else { Bit::One })
        .collect()
}

/// Unanimous inputs (for validity-cost experiments).
pub fn unanimous(n: usize, bit: Bit) -> Vec<Bit> {
    vec![bit; n]
}

/// Alternating inputs 0,1,0,1,… (an interleaved team split).
pub fn alternating(n: usize) -> Vec<Bit> {
    (0..n).map(|i| Bit::from(i % 2 == 1)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use nc_core::{run_random_interleave, run_round_robin};

    #[test]
    fn input_helpers() {
        assert_eq!(
            half_and_half(4),
            vec![Bit::Zero, Bit::Zero, Bit::One, Bit::One]
        );
        assert_eq!(half_and_half(3), vec![Bit::Zero, Bit::One, Bit::One]);
        assert_eq!(half_and_half(1), vec![Bit::One]);
        assert_eq!(unanimous(2, Bit::Zero), vec![Bit::Zero, Bit::Zero]);
        assert_eq!(alternating(3), vec![Bit::Zero, Bit::One, Bit::Zero]);
    }

    #[test]
    fn labels_are_distinct() {
        let labels = [
            Algorithm::Lean.label(),
            Algorithm::Skipping.label(),
            Algorithm::Randomized.label(),
            Algorithm::Bounded { r_max: 5 }.label(),
            Algorithm::Backup.label(),
        ];
        let unique: std::collections::HashSet<_> = labels.iter().collect();
        assert_eq!(unique.len(), labels.len());
    }

    #[test]
    fn every_algorithm_builds_and_solo_decides() {
        for alg in [
            Algorithm::Lean,
            Algorithm::Skipping,
            Algorithm::Randomized,
            Algorithm::Bounded { r_max: 8 },
            Algorithm::Backup,
        ] {
            for input in Bit::BOTH {
                let mut inst = build(alg, &[input], 7);
                assert_eq!(inst.procs.len(), 1);
                let decisions = run_round_robin(&mut inst.procs, &mut inst.mem, 1_000_000)
                    .unwrap_or_else(|| panic!("{alg:?} solo did not decide"));
                assert_eq!(decisions, vec![input], "{alg:?} validity");
            }
        }
    }

    #[test]
    fn every_algorithm_agrees_on_mixed_inputs() {
        for alg in [
            Algorithm::Lean,
            Algorithm::Skipping,
            Algorithm::Randomized,
            Algorithm::Bounded { r_max: 12 },
            Algorithm::Backup,
        ] {
            let inputs = half_and_half(4);
            let mut inst = build(alg, &inputs, 99);
            let decisions = run_random_interleave(&mut inst.procs, &mut inst.mem, 3, 50_000_000)
                .unwrap_or_else(|| panic!("{alg:?} did not terminate"));
            assert!(
                decisions.iter().all(|&d| d == decisions[0]),
                "{alg:?} disagreement"
            );
        }
    }

    #[test]
    fn bounded_lockstep_terminates_via_backup() {
        // The decisive §8 property: under lockstep round-robin, lean
        // alone never terminates, but the bounded protocol must (its
        // backup has a shared coin).
        let inputs = alternating(2);
        let mut inst = build(Algorithm::Bounded { r_max: 4 }, &inputs, 11);
        let decisions = run_round_robin(&mut inst.procs, &mut inst.mem, 50_000_000)
            .expect("bounded protocol must terminate under lockstep");
        assert_eq!(decisions[0], decisions[1]);
    }

    #[test]
    fn same_seed_same_build() {
        let a = build(Algorithm::Randomized, &half_and_half(4), 5);
        let b = build(Algorithm::Randomized, &half_and_half(4), 5);
        // Drive both identically and compare decisions.
        let (mut a, mut b) = (a, b);
        let da = run_random_interleave(&mut a.procs, &mut a.mem, 1, 10_000_000).unwrap();
        let db = run_random_interleave(&mut b.procs, &mut b.mem, 1, 10_000_000).unwrap();
        assert_eq!(da, db);
    }

    #[test]
    #[should_panic(expected = "at least one process")]
    fn empty_inputs_panic() {
        build(Algorithm::Lean, &[], 0);
    }
}
