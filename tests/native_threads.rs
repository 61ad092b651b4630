//! Native-thread stress tests: lean-consensus on real atomics under the
//! real scheduler — the environment §9/§10 argue behaves like a noisy
//! scheduler in practice.

use std::sync::Arc;

use noisy_consensus::{Bit, NativeConsensus};

#[test]
fn stress_agreement_many_trials() {
    for trial in 0..50u64 {
        let threads = 2 + (trial as usize % 7);
        let consensus = Arc::new(NativeConsensus::new());
        let decisions: Vec<_> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|i| {
                    let c = Arc::clone(&consensus);
                    s.spawn(move || {
                        c.propose(Bit::from((i as u64 + trial).is_multiple_of(2)))
                            .expect("round limit")
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });

        let v = decisions[0].value;
        assert!(
            decisions.iter().all(|d| d.value == v),
            "trial {trial}: {decisions:?}"
        );
        let lo = decisions.iter().map(|d| d.round).min().unwrap();
        let hi = decisions.iter().map(|d| d.round).max().unwrap();
        assert!(hi - lo <= 1, "trial {trial}: round spread {lo}..{hi}");
    }
}

#[test]
fn native_decisions_are_fast_in_practice() {
    // The paper's thesis, measured: real schedulers are noisy enough
    // that the race ends in a handful of rounds. We allow a huge margin
    // (64 rounds) — the point is it never drifts toward the round limit.
    for trial in 0..20u64 {
        let consensus = Arc::new(NativeConsensus::new());
        let max_round: usize = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|i| {
                    let c = Arc::clone(&consensus);
                    s.spawn(move || c.propose(Bit::from(i % 2 == 0)).unwrap().round)
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap())
                .max()
                .unwrap()
        });
        assert!(max_round <= 64, "trial {trial}: round {max_round}");
    }
}

#[test]
fn unanimous_native_runs_cost_exactly_8_ops() {
    for input in Bit::BOTH {
        let consensus = Arc::new(NativeConsensus::new());
        let all_ops: Vec<u64> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..6)
                .map(|_| {
                    let c = Arc::clone(&consensus);
                    s.spawn(move || c.propose(input).unwrap().ops)
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(all_ops.iter().all(|&o| o == 8), "{all_ops:?}");
    }
}

#[test]
fn late_joiners_adopt_earlier_decision() {
    let consensus = Arc::new(NativeConsensus::new());
    let first = consensus.propose(Bit::One).unwrap();
    // 4 late joiners, all proposing the rival value, sequentially and
    // concurrently — every one must adopt the decided value.
    for _ in 0..2 {
        assert_eq!(consensus.propose(Bit::Zero).unwrap().value, first.value);
    }
    let late: Vec<Bit> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let c = Arc::clone(&consensus);
                s.spawn(move || c.propose(Bit::Zero).unwrap().value)
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert!(late.iter().all(|&v| v == first.value), "{late:?}");
}

#[test]
fn many_consensus_objects_in_parallel() {
    // A "ledger" of 32 independent consensus instances decided by 4
    // threads each — the id-consensus building block the paper's
    // footnote 2 mentions (a tree of binary consensus objects).
    let objects: Vec<Arc<NativeConsensus>> =
        (0..32).map(|_| Arc::new(NativeConsensus::new())).collect();
    std::thread::scope(|s| {
        for t in 0..4u64 {
            let objects: Vec<_> = objects.iter().map(Arc::clone).collect();
            s.spawn(move || {
                for (k, obj) in objects.iter().enumerate() {
                    let _ = obj
                        .propose(Bit::from((k as u64 + t).is_multiple_of(2)))
                        .unwrap();
                }
            });
        }
    });
    // All objects settled; re-proposing returns the settled value and
    // never flips.
    for obj in &objects {
        let a = obj.propose(Bit::Zero).unwrap().value;
        let b = obj.propose(Bit::One).unwrap().value;
        assert_eq!(a, b);
    }
}
