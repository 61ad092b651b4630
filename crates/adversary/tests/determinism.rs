//! The tournament's determinism contract: results are a pure function
//! of `(family, n, trials, seed0, max_ops)` — byte-identical at every
//! worker-thread count.
//! This is the adversary-plane edition of the engine's
//! serial-vs-parallel suite (`crates/bench/tests/determinism.rs`).

use nc_adversary::{StrategyFamily, Tournament};

fn tournament(threads: usize) -> Tournament {
    Tournament::new(6)
        .trials(4)
        .seed0(11)
        .max_ops(40_000)
        .threads(threads)
}

#[test]
fn sweep_is_bitwise_identical_serial_vs_parallel() {
    let family = StrategyFamily::standard();
    let reference = tournament(1).sweep(&family);
    for threads in [2usize, 4] {
        assert_eq!(
            reference,
            tournament(threads).sweep(&family),
            "sweep diverged at {threads} workers"
        );
    }
}

#[test]
fn adaptive_family_dominates_oblivious_baseline() {
    // The acceptance property at test scale: the strongest adaptive
    // strategy forces at least as many rounds as the oblivious
    // baseline. (Scenario E16 asserts the same comparison at every n
    // up to its max-n.)
    let result = tournament(0).sweep(&StrategyFamily::standard());
    let oblivious = result.oblivious().expect("family includes the baseline");
    let worst = result.worst_adaptive().expect("family has adaptive points");
    assert!(
        worst.mean_round >= oblivious.mean_round,
        "adaptive {} ({}) < oblivious ({})",
        worst.label,
        worst.mean_round,
        oblivious.mean_round
    );
}
