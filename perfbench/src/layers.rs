//! Isolated timings of the layers under one engine trial, each taken by
//! calling that layer's public function at the workload's process count:
//! the queue hold (`nc_sched`), the noise refill (`nc_sched::Noise`), the
//! protocol step (`nc_core`), and word access plus per-trial reset
//! (`nc_memory` through `nc_engine::Instance`).

use std::hint::black_box;
use std::time::Instant;

use nc_core::protocol::step;
use nc_engine::noisy::NOISE_BATCH;
use nc_engine::setup::{build_lean, half_and_half};
use nc_memory::{Addr, SimMemory};
use nc_sched::queue::Event;
use nc_sched::select::{QueueKind, QueuePolicy};
use nc_sched::{stream_rng, EventQueue, EventTree, Noise};

use crate::{median, mix, Report};

/// Per-operation costs of the layers beneath one engine event, in ns.
pub struct EngineLayers {
    pub hold_ns: f64,
    pub noise_ns: f64,
    pub step_ns: f64,
    pub access_ns: f64,
    pub reset_ns: f64,
}

/// Times `chunk` calls of `op` repeatedly until `secs` have passed and
/// returns the median ns per call.
fn per_call(secs: f64, chunk: u64, mut op: impl FnMut(u64)) -> f64 {
    let start = Instant::now();
    let mut samples = Vec::new();
    let mut k = 0u64;
    while samples.len() < 5 || start.elapsed().as_secs_f64() < secs {
        let t = Instant::now();
        for _ in 0..chunk {
            op(k);
            k += 1;
        }
        samples.push(t.elapsed().as_nanos() as f64 / chunk as f64);
    }
    median(&samples)
}

/// The hold operation of whichever queue `QueuePolicy::Auto` picks at
/// `n`: pop the earliest event and reinsert its process one noise delay
/// later, with `n` events queued.
fn hold_ns(n: usize, noise: Noise, seed: u64, secs: f64) -> f64 {
    let mut rng = stream_rng(seed, 0, 1);
    let mut incs = vec![0.0f64; 4096];
    noise.fill(&mut rng, &mut incs);
    let start = |pid: usize| Event::new(incs[pid % incs.len()], pid as u64, pid as u32);
    let mut seq = n as u64;
    match QueuePolicy::Auto.kind_for(n) {
        QueueKind::Heap => {
            let mut q = EventQueue::with_capacity(n);
            (0..n).for_each(|pid| q.push(start(pid)));
            per_call(secs, 100_000, |k| {
                let top = *q.peek().expect("n events queued");
                seq += 1;
                let next = Event::new(top.time() + incs[k as usize & 4095], seq, top.pid());
                black_box(q.replace_top(next));
            })
        }
        QueueKind::Tree => {
            let mut q = EventTree::new();
            q.reset(n);
            (0..n).for_each(|pid| q.set(start(pid)));
            per_call(secs, 100_000, |k| {
                let top = q.peek().expect("n events queued");
                seq += 1;
                q.set(Event::new(
                    top.time() + incs[k as usize & 4095],
                    seq,
                    top.pid(),
                ));
                black_box(q.peek());
            })
        }
    }
}

/// One `Noise::fill` of a `NOISE_BATCH`-slot buffer, per drawn sample.
fn noise_ns(noise: Noise, seed: u64, secs: f64) -> f64 {
    let mut rng = stream_rng(seed, 1, 1);
    let mut buf = [0.0f64; NOISE_BATCH];
    per_call(secs, 10_000, |_| {
        noise.fill(&mut rng, &mut buf);
        black_box(&buf);
    }) / NOISE_BATCH as f64
}

/// Steps a `build_lean` instance under a seeded uniform-random schedule
/// until the first decision (`core.step_ns`), rebuilding it between
/// episodes (`memory.reset_ns`), then times `SimMemory` read+write over
/// the race-array footprint the episodes reached (`memory.access_ns`).
fn step_reset_access(n: usize, seed: u64, secs: f64) -> (f64, f64, f64) {
    const PIDS: usize = 1 << 18;
    let inputs = half_and_half(n);
    let pids: Vec<u32> = (0..PIDS as u64)
        .map(|k| (mix(seed ^ mix(k)) % n as u64) as u32)
        .collect();
    let mut inst = build_lean(&inputs);
    let (mut step_samples, mut reset_samples) = (Vec::new(), Vec::new());
    let start = Instant::now();
    let mut k = 0usize;
    while step_samples.len() < 5 || start.elapsed().as_secs_f64() < secs {
        let t = Instant::now();
        let mut steps = 0u64;
        loop {
            let pid = pids[k % PIDS] as usize;
            k += 1;
            steps += 1;
            if step(&mut inst.procs[pid], &mut inst.mem).is_some() || steps > 1 << 28 {
                break;
            }
        }
        step_samples.push(t.elapsed().as_nanos() as f64 / steps as f64);
        let t = Instant::now();
        inst.rebuild(black_box(&inputs));
        reset_samples.push(t.elapsed().as_nanos() as f64);
    }

    let footprint = inst.mem.footprint_words().max(1);
    let mut mem = SimMemory::with_capacity(footprint);
    mem.write(Addr::new(footprint - 1), 0);
    let addrs: Vec<usize> = (0..4096u64)
        .map(|k| (mix(seed ^ k) % footprint as u64) as usize)
        .collect();
    let access = per_call(secs / 2.0, 100_000, |k| {
        let a = Addr::new(addrs[k as usize & 4095]);
        mem.write(a, k);
        black_box(mem.read(a));
    });
    (median(&step_samples), median(&reset_samples), access)
}

/// Measures every engine-side layer at process count `n` under `noise`,
/// spending about `secs` in total.
pub fn measure(n: usize, noise: Noise, seed: u64, secs: f64) -> EngineLayers {
    let hold_ns = hold_ns(n, noise, seed, secs * 0.3);
    let noise_ns = noise_ns(noise, seed, secs * 0.2);
    let (step_ns, reset_ns, access_ns) = step_reset_access(n, seed, secs * 0.5);
    EngineLayers {
        hold_ns,
        noise_ns,
        step_ns,
        access_ns,
        reset_ns,
    }
}

/// Share of one engine trial the isolated layers must explain:
/// `events × (hold + noise + step) + reset` is accepted within this
/// fraction of the measured `SimRun::run` time. The remainder (per-trial
/// stream seeding and queue priming, report assembly, and cache misses
/// the isolated loops do not suffer) is reported as
/// `engine.unexplained_frac`.
pub const ENGINE_SUM_MARGIN: f64 = 0.35;

/// Reports the engine layers and their sum check against the measured
/// per-trial engine time `run_ns` over `events` events.
pub fn report(r: &mut Report, layers: &EngineLayers, run_ns: f64, events: f64) {
    let explained = events * (layers.hold_ns + layers.noise_ns + layers.step_ns) + layers.reset_ns;
    let unexplained = 1.0 - explained / run_ns;
    r.single("engine.run_ns_per_trial", "ns", run_ns);
    r.single("engine.events_per_trial", "count", events);
    r.single("engine.ns_per_event", "ns", run_ns / events);
    r.single("engine.unexplained_frac", "frac", unexplained);
    r.single("sched.hold_ns", "ns", layers.hold_ns);
    r.single("sched.noise_ns_per_draw", "ns", layers.noise_ns);
    r.single("core.step_ns", "ns", layers.step_ns);
    r.single("memory.access_ns", "ns", layers.access_ns);
    r.single("memory.reset_ns", "ns", layers.reset_ns);
    r.note(
        "engine_layer_sum",
        unexplained.abs() <= ENGINE_SUM_MARGIN,
        format!(
            "events x (hold + noise + step) + reset = {explained:.0} ns vs SimRun::run {run_ns:.0} ns; unexplained {unexplained:.3}, margin +-{ENGINE_SUM_MARGIN}"
        ),
    );
}
