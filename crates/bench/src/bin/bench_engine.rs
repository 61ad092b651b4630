//! Machine-readable engine benchmark: measures the optimized engine
//! against the naive BinaryHeap baseline and the parallel sweep's
//! multi-worker scaling, then writes `BENCH_engine.json` so future PRs
//! can track the performance trajectory. Doubles as the CI performance
//! gate: exits nonzero if the optimized engine falls below
//! `--min-speedup` (default 1.6x) over the baseline at n = 100.
//!
//! Usage:
//! `cargo run --release -p nc-bench --bin bench_engine [-- --trials 3000 --min-speedup 1.6 --out BENCH_engine.json]`
//!
//! Workload: the acceptance configuration — Figure 1 point, `n = 100`
//! (plus 1000 and 10000 for the scaling picture), `U(0, 2)` noise,
//! first-decision cutoff, one full trial per iteration (instance setup
//! included, exactly like `fig1::point`). Every number is a best-of-R
//! measurement to shrug off scheduler noise.
//!
//! Per n, two single-thread cells: the naive baseline, and the
//! sequential engine (scratch reuse, the 4-ary event heap), which is the
//! headline "optimized" number.

use std::io::Write as _;
use std::time::Instant;

use nc_bench::{arg, experiments::fig1};
use nc_engine::baseline::run_noisy_baseline;
use nc_engine::sim::Sim;
use nc_engine::{setup, Limits};
use nc_sched::{Noise, TimingModel};

const REPEATS: usize = 3;

fn timing() -> TimingModel {
    TimingModel::figure1(Noise::Uniform { lo: 0.0, hi: 2.0 })
}

/// Best-of-R wall time for `f`, returning (seconds, events).
fn best_of<F: FnMut() -> u64>(mut f: F) -> (f64, u64) {
    let mut best = f64::INFINITY;
    let mut events = 0;
    for _ in 0..REPEATS {
        let start = Instant::now();
        events = f();
        best = best.min(start.elapsed().as_secs_f64());
    }
    (best, events)
}

fn bench_naive(n: usize, trials: u64) -> (f64, u64) {
    let timing = timing();
    let inputs = setup::half_and_half(n);
    best_of(|| {
        let mut events = 0;
        for seed in 0..trials {
            let mut inst = setup::build(setup::Algorithm::Lean, &inputs, seed);
            events +=
                run_noisy_baseline(&mut inst, &timing, seed, Limits::first_decision()).total_ops;
        }
        events
    })
}

/// Sequential optimized engine: one reused `SimRun` handle (scratch +
/// monomorphized lean instance) per cell.
fn bench_sequential(n: usize, trials: u64) -> (f64, u64) {
    let mut sim = Sim::new(setup::Algorithm::Lean)
        .inputs(setup::half_and_half(n))
        .timing(timing())
        .limits(Limits::first_decision())
        .build();
    best_of(|| {
        let mut events = 0;
        for seed in 0..trials {
            events += sim.run(seed).total_ops;
        }
        events
    })
}

fn main() {
    let trials: u64 = arg("trials", 2000);
    let min_speedup: f64 = arg("min-speedup", 1.6);
    let out: String = arg("out", "BENCH_engine.json".to_string());
    let cores = std::thread::available_parallelism()
        .map(|c| c.get())
        .unwrap_or(1);

    // Single-thread cells.
    let mut single = String::new();
    let mut speedup_n100 = 0.0;
    for (i, &n) in [100usize, 1000, 10_000].iter().enumerate() {
        let t = (trials / (n as u64 / 100).max(1)).max(20);
        let (naive_s, naive_ev) = bench_naive(n, t);
        let (seq_s, seq_ev) = bench_sequential(n, t);
        assert_eq!(naive_ev, seq_ev, "engines diverged at n = {n}");
        let naive_eps = naive_ev as f64 / naive_s;
        let seq_eps = seq_ev as f64 / seq_s;
        let speedup = seq_eps / naive_eps;
        if n == 100 {
            speedup_n100 = speedup;
        }
        eprintln!(
            "n={n}: naive {naive_eps:.3e} ev/s, sequential {seq_eps:.3e} ev/s, speedup {speedup:.2}x"
        );
        if i > 0 {
            single.push(',');
        }
        single.push_str(&format!(
            "\n    {{\"n\": {n}, \"trials\": {t}, \"events_per_trial\": {:.1}, \"naive_events_per_sec\": {naive_eps:.1}, \"optimized_events_per_sec\": {seq_eps:.1}, \"speedup\": {speedup:.3}}}",
            naive_ev as f64 / t as f64,
        ));
    }

    // Sweep scaling: fig1::point wall time vs worker count. On a 1-core
    // host the single row carries no scaling information, so the record
    // is explicitly marked host-limited (a multi-core re-measurement
    // then shows up as a diff instead of silently overwriting).
    let mut scaling = String::new();
    let sweep_trials = trials.max(500);
    let mut base_time = 0.0;
    let mut threads_list: Vec<usize> = vec![1];
    let mut w = 2;
    while w <= cores {
        threads_list.push(w);
        w *= 2;
    }
    if *threads_list.last().unwrap() != cores {
        threads_list.push(cores);
    }
    for (i, &threads) in threads_list.iter().enumerate() {
        let (secs, _) = best_of(|| {
            let p = fig1::point(
                Noise::Uniform { lo: 0.0, hi: 2.0 },
                100,
                sweep_trials,
                1,
                threads,
            );
            p.rounds.count()
        });
        if threads == 1 {
            base_time = secs;
        }
        let scale = base_time / secs;
        eprintln!("fig1 point, {threads} worker(s): {secs:.3} s ({scale:.2}x vs 1 worker)");
        if i > 0 {
            scaling.push(',');
        }
        scaling.push_str(&format!(
            "\n      {{\"threads\": {threads}, \"seconds\": {secs:.4}, \"speedup_vs_1\": {scale:.3}}}"
        ));
    }
    let host_limited = cores == 1;

    let json = format!(
        "{{\n  \"workload\": \"fig1 point: n procs, U(0,2) noise, first-decision cutoff, full trial incl. instance setup\",\n  \"baseline\": \"naive BinaryHeap driver (nc_engine::baseline, seed implementation)\",\n  \"optimized\": \"SoA scratch engine, 4-ary event heap, one thread\",\n  \"host_cores\": {cores},\n  \"trials_n100\": {trials},\n  \"single_thread\": [{single}\n  ],\n  \"speedup_n100\": {speedup_n100:.3},\n  \"sweep_scaling_n100\": {{\n    \"host_limited\": {host_limited},\n    \"rows\": [{scaling}\n    ]\n  }},\n  \"notes\": \"Numbers from `cargo run --release -p nc-bench --bin bench_engine`; best-of-{REPEATS} wall time per cell. sweep_scaling_n100.host_limited = true means the host had 1 core, so the scaling rows carry no parallel-speedup information.\"\n}}\n"
    );
    let mut file = std::fs::File::create(&out).expect("create output file");
    file.write_all(json.as_bytes()).expect("write json");
    println!("wrote {out}");

    if speedup_n100 < min_speedup {
        eprintln!(
            "PERF REGRESSION: optimized engine is {speedup_n100:.3}x the naive baseline at n=100 (gate: {min_speedup}x)"
        );
        std::process::exit(1);
    }
}
