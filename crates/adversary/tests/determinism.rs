//! The tournament's determinism contract: results are a pure function
//! of `(family, n, trials, seed0, max_ops)` — byte-identical at every
//! worker-thread count, for both the grid sweep and the beam search.
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
fn beam_is_bitwise_identical_serial_vs_parallel() {
    let family = StrategyFamily::standard();
    let reference = tournament(1).beam(&family, 3, 4);
    assert_eq!(
        reference,
        tournament(4).beam(&family, 3, 4),
        "beam search diverged between serial and 4 workers"
    );
    // Refined leaders carry the deeper trial count.
    assert_eq!(
        reference.scores.iter().filter(|s| s.trials == 16).count(),
        3
    );
}

#[test]
fn adaptive_family_dominates_oblivious_baseline() {
    // The acceptance property at test scale: the strongest adaptive
    // strategy forces at least as many rounds as the oblivious
    // baseline. (BENCH_adversary.json records the same comparison at
    // full scale for every n.)
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
