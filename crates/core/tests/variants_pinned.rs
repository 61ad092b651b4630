//! Pins the observable behaviour of the two lean-consensus variants.
//!
//! Each variant runs under [`run_random_interleave`] on alternating
//! inputs for n = 2..=6 and 200 seeds, each process with its own coin
//! stream derived from the seed. Every process's decision, round,
//! operation count and preference, then the memory's operation count,
//! footprint and every word in it, fold into one FNV-1a hash per
//! variant. The goldens run the variants only through the engine and
//! miss a coin that is drawn but not applied; this hash does not.

use nc_core::{run_random_interleave, Protocol, RandomizedLean, SkippingLean};
use nc_memory::{Addr, Bit, RaceLayout, SimMemory};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Folds `bytes` into a running FNV-1a (64-bit) hash.
fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// Runs `make(layout, pid, input, seed)` processes for every n and seed
/// and folds the outcomes into one hash.
fn sweep_hash<P: Protocol>(make: impl Fn(RaceLayout, usize, Bit, u64) -> P) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325;
    for n in 2..=6 {
        for seed in 0..200u64 {
            let mut mem = SimMemory::new();
            let layout = RaceLayout::at_base(0);
            layout.install_sentinels(&mut mem);
            let mut procs: Vec<P> = (0..n)
                .map(|pid| make(layout, pid, Bit::from(pid % 2 == 1), seed))
                .collect();
            run_random_interleave(&mut procs, &mut mem, seed, 2_000_000)
                .unwrap_or_else(|| panic!("n = {n}, seed {seed} did not terminate"));
            for p in &procs {
                let decision = p.status().decision().map_or(2, |b| b.word() as u8);
                hash = fnv1a(hash, &[decision, p.preference().word() as u8]);
                hash = fnv1a(hash, &(p.round() as u64).to_le_bytes());
                hash = fnv1a(hash, &p.ops_completed().to_le_bytes());
            }
            hash = fnv1a(hash, &mem.ops_executed().to_le_bytes());
            hash = fnv1a(hash, &(mem.footprint_words() as u64).to_le_bytes());
            for off in 0..mem.footprint_words() {
                hash = fnv1a(hash, &mem.peek(Addr::new(off)).to_le_bytes());
            }
        }
    }
    hash
}

#[test]
fn randomized_lean_is_pinned() {
    let hash = sweep_hash(|layout, pid, input, seed| {
        let coin = SmallRng::seed_from_u64(seed.wrapping_mul(1_000).wrapping_add(pid as u64));
        RandomizedLean::new(layout, input, coin)
    });
    assert_eq!(
        hash, 0x6ab7_ffee_5a76_7473,
        "RandomizedLean behaviour drifted: {hash:#018x}"
    );
}

#[test]
fn skipping_lean_is_pinned() {
    let hash = sweep_hash(|layout, _, input, _| SkippingLean::new(layout, input));
    assert_eq!(
        hash, 0xc9b2_e2b3_47ed_770c,
        "SkippingLean behaviour drifted: {hash:#018x}"
    );
}
