//! E12: wall-clock decision latency of lean-consensus on real threads.
//!
//! One iteration = create a consensus object, spawn `t` threads with
//! split inputs, everyone proposes, join. Run with
//! `cargo bench -p nc-bench --bench native_threads`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use nc_core::{Bit, NativeConsensus};
use std::sync::Arc;

fn decide(threads: usize) {
    let consensus = Arc::new(NativeConsensus::new());
    std::thread::scope(|s| {
        for i in 0..threads {
            let c = Arc::clone(&consensus);
            s.spawn(move || {
                c.propose(Bit::from(i % 2 == 0)).expect("round limit");
            });
        }
    });
}

fn bench_native(c: &mut Criterion) {
    let mut group = c.benchmark_group("native_decision_latency");
    for threads in [1usize, 2, 4, 8, 16] {
        group.bench_with_input(BenchmarkId::from_parameter(threads), &threads, |b, &t| {
            b.iter(|| decide(t))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_native);
criterion_main!(benches);
