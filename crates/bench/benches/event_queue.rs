//! Microbenchmark of the event-queue primitives: BinaryHeap pop+push
//! churn vs. the indexed peek-and-replace sift-down.
//!
//! This isolates optimization (1) of the engine rework from the
//! protocol/memory costs measured by `figure1_points`. One iteration =
//! one "hold" operation: remove the earliest event, insert its successor
//! at a later time.
//!
//! Run with `cargo bench -p nc-bench --bench event_queue`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use nc_sched::queue::{Event, EventQueue};
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use std::collections::BinaryHeap;
use std::hint::black_box;

/// Max-heap wrapper replicating the naive driver's ordering.
#[derive(Debug)]
struct Rev(Event);

impl PartialEq for Rev {
    fn eq(&self, other: &Self) -> bool {
        self.0.key_cmp(&other.0) == std::cmp::Ordering::Equal
    }
}
impl Eq for Rev {}
impl PartialOrd for Rev {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Rev {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other.0.key_cmp(&self.0)
    }
}

fn bench_hold(c: &mut Criterion) {
    for n in [100usize, 10_000] {
        let mut group = c.benchmark_group(format!("event_queue_hold_n{n}"));

        group.bench_with_input(BenchmarkId::from_parameter("binaryheap"), &n, |b, &n| {
            let mut rng = SmallRng::seed_from_u64(7);
            let mut heap = BinaryHeap::with_capacity(n);
            for pid in 0..n {
                heap.push(Rev(Event::new(rng.random::<f64>(), pid as u64, pid as u32)));
            }
            let mut seq = n as u64;
            b.iter(|| {
                let top = heap.pop().unwrap().0;
                seq += 1;
                heap.push(Rev(Event::new(
                    top.time() + rng.random::<f64>(),
                    seq,
                    top.pid(),
                )));
                black_box(heap.peek().unwrap().0.time())
            });
        });

        group.bench_with_input(BenchmarkId::from_parameter("replace_top"), &n, |b, &n| {
            let mut rng = SmallRng::seed_from_u64(7);
            let mut q = EventQueue::with_capacity(n);
            for pid in 0..n {
                q.push(Event::new(rng.random::<f64>(), pid as u64, pid as u32));
            }
            let mut seq = n as u64;
            b.iter(|| {
                let top = *q.peek().unwrap();
                seq += 1;
                let new_top =
                    q.replace_top(Event::new(top.time() + rng.random::<f64>(), seq, top.pid()));
                black_box(new_top.time())
            });
        });

        group.finish();
    }
}

criterion_group!(benches, bench_hold);
criterion_main!(benches);
