//! Failure injection: random halting and the adaptive leader-killer.
//!
//! Part 1 — §3.1.2's random failures: every operation kills its process
//! with probability `h`; lean-consensus still terminates (the survivors
//! race on) and safety never budges.
//!
//! Part 2 — §10's adaptive adversary: a crash adversary watches the race
//! and kills whichever process pulls a round ahead, up to `f` times.
//! The paper's restart argument bounds the damage by `O(f log n)`; the
//! measured rounds are in fact FLAT in `f`, supporting the paper's §10
//! conjecture that the true bound is `O(log n)`.
//!
//! Run with: `cargo run --release --example failure_injection [seed]`

use noisy_consensus::engine::setup::{self, Algorithm};
use noisy_consensus::engine::sim::Sim;
use noisy_consensus::sched::adversary::LeaderKiller;
use noisy_consensus::sched::{FailureModel, Noise, TimingModel};
use noisy_consensus::theory::OnlineStats;

fn main() {
    let seed0: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(1);
    let n = 16;
    let trials = 200;

    println!("== Part 1: random halting failures (n = {n}, {trials} trials each) ==\n");
    println!("  h(n) per op | survivors decide | all died | mean first-decision round");
    println!("  ------------+------------------+----------+---------------------------");
    for h in [0.0, 0.001, 0.01, 0.05, 0.2] {
        let inputs = setup::half_and_half(n);
        let mut sim = Sim::new(Algorithm::Lean)
            .inputs(inputs.clone())
            .timing(
                TimingModel::figure1(Noise::Exponential { mean: 1.0 })
                    .with_failures(FailureModel::Random { per_op: h }),
            )
            .build();
        let mut decided = 0;
        let mut died = 0;
        let mut rounds = OnlineStats::new();
        for t in 0..trials {
            let report = sim.run(seed0 + t);
            report.check_safety(&inputs).expect("safety under failures");
            if report.decided_count() > 0 {
                decided += 1;
                if let Some(r) = report.first_decision_round {
                    rounds.push(r as f64);
                }
            } else {
                died += 1;
            }
        }
        println!(
            "  {h:>11} | {decided:>16} | {died:>8} | {:.2}",
            rounds.mean()
        );
    }

    println!("\n== Part 2: adaptive leader-killer (n = {n}, {trials} trials each) ==\n");
    println!("  crash budget f | mean first-decision round | mean rounds / (f+1)");
    println!("  ---------------+---------------------------+---------------------");
    for f in [0usize, 1, 2, 4, 8] {
        let inputs = setup::half_and_half(n);
        let mut sim = Sim::new(Algorithm::Lean)
            .inputs(inputs.clone())
            .timing(TimingModel::figure1(Noise::Exponential { mean: 1.0 }))
            .crash_adversary(move |_| LeaderKiller::new(f, 1))
            .build();
        let mut rounds = OnlineStats::new();
        for t in 0..trials {
            let report = sim.run(seed0 + 10_000 + t);
            report.check_safety(&inputs).expect("safety under crashes");
            if let Some(r) = report.first_decision_round {
                rounds.push(r as f64);
            }
        }
        println!(
            "  {f:>14} | {:>25.2} | {:.2}",
            rounds.mean(),
            rounds.mean() / (f as f64 + 1.0)
        );
    }
    println!("\nnote the rounds stay FLAT in f: killing frontrunners buys the");
    println!("adversary nothing, because termination comes from mass adoption of");
    println!("the leading team's value, not from one irreplaceable leader —");
    println!("evidence for the paper's section-10 conjecture that the true bound");
    println!("is O(log n) even with adaptive crashes (the proved bound is O(f log n)).");
}
