//! E5 — Theorem 14: hybrid quantum/priority scheduling.
//!
//! Sweeps the quantum from 1 to 16 under three policies (benign, random,
//! and the write-preempting adversary), across several process counts
//! and initial-quantum burns, reporting the worst per-process operation
//! count observed. Theorem 14's claim: **≤ 12 for quantum ≥ 8** — the
//! table's last column flags it.

use nc_engine::sim::Sim;
use nc_engine::{setup, Algorithm, Limits};
use nc_sched::hybrid::{BenignHybrid, HybridPolicy, HybridSpec, RandomHybrid, WritePreemptor};
use nc_sched::stream_rng;

use crate::scenario::{Preset, Scenario, Spec};
use crate::table::Table;

/// Registry entry: E5.
#[derive(Clone, Copy, Debug)]
pub(crate) struct HybridQuantum;

impl Scenario for HybridQuantum {
    fn spec(&self) -> Spec {
        Spec {
            id: "E5",
            title: "Hybrid quantum/priority uniprocessor: ≤ 12 ops for quantum ≥ 8",
            artifact: "Theorem 14",
            outputs: &["hybrid_quantum.csv"],
            trials_label: "trials",
            size_label: "max-quantum",
            // The policy sweep is exhaustive rather than sampled, so
            // there is no trials knob (0 = not applicable, and --scale
            // is honestly a no-op). The preemptor burns the whole op
            // cap below quantum 8, so the smoke tier trims both the
            // quantum sweep and the cap — otherwise this scenario alone
            // would dominate debug-build golden runs.
            full: Preset {
                trials: 0,
                size: 16,
                cap: 2_000_000,
            },
            smoke: Preset {
                trials: 0,
                size: 3,
                cap: 20_000,
            },
        }
    }

    fn run(&self, p: Preset, seed: u64, _threads: usize) -> Vec<Table> {
        // The policy sweep is exhaustive (no trial fan-out), so the
        // worker count has nothing to parallelize here.
        vec![run(p.size as u32, p.cap, seed)]
    }
}

/// Runs the hybrid-scheduling experiment, sweeping the quantum from 1
/// to `max_quantum` with each run's operation budget capped at `op_cap`
/// (runs the policy prevents from deciding — the preemptor below
/// quantum 8 — stop there and report `all decided = false`).
pub(crate) fn run(max_quantum: u32, op_cap: u64, seed0: u64) -> Table {
    let mut table = Table::new(
        "E5 / Theorem 14: worst per-process ops on a hybrid-scheduled uniprocessor",
        &[
            "quantum",
            "worst ops (benign)",
            "worst ops (random)",
            "worst ops (preemptor)",
            "all decided",
            "<=12 (required for q>=8)",
        ],
    );

    for quantum in 1..=max_quantum {
        let mut worst = [0u64; 3];
        let mut all_decided = true;
        for n in [2usize, 3, 4, 6, 8] {
            for burn in [0u32, quantum / 2, quantum] {
                let inputs = setup::alternating(n);
                type MakePolicy = Box<dyn Fn(u64) -> Box<dyn HybridPolicy> + Send + Sync>;
                let policies: [MakePolicy; 3] = [
                    Box::new(|_| Box::new(BenignHybrid)),
                    Box::new(move |seed| {
                        Box::new(RandomHybrid::new(stream_rng(seed, quantum as u64, 4)))
                    }),
                    Box::new(|_| Box::new(WritePreemptor)),
                ];
                for (k, make) in policies.into_iter().enumerate() {
                    let spec = HybridSpec::uniform(n, quantum).with_initial_used(vec![burn; n]);
                    let report = Sim::new(Algorithm::Lean)
                        .inputs(inputs.clone())
                        .hybrid(spec, make)
                        .limits(Limits::run_to_completion().with_max_ops(op_cap))
                        .build()
                        .run(seed0);
                    report.check_safety(&inputs).expect("safety");
                    worst[k] = worst[k].max(report.max_ops_per_process());
                    all_decided &= report.outcome.decided();
                }
            }
        }
        let bound_holds = worst.iter().all(|&w| w <= 12) && all_decided;
        table.push(vec![
            quantum.to_string(),
            worst[0].to_string(),
            worst[1].to_string(),
            worst[2].to_string(),
            all_decided.to_string(),
            if quantum >= 8 {
                if bound_holds {
                    "yes (as proved)".into()
                } else {
                    "VIOLATED".into()
                }
            } else if bound_holds {
                "yes (not guaranteed)".into()
            } else {
                "no (not guaranteed)".into()
            },
        ]);
    }
    table
}
