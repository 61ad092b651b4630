//! `fig1_*`: Figure 1 trials through one pooled `SimRun` on one thread —
//! n processes, `U(0,2)` noise, half-and-half inputs, first-decision
//! cutoff. Repetition k runs its own list of trial seeds derived from
//! the workload seed; the first list is run again at the end and must
//! reproduce its event count and outcomes exactly.

use std::time::Instant;

use nc_engine::setup::half_and_half;
use nc_engine::sim::{Sim, SimRun};
use nc_engine::{Algorithm, Limits, RunOutcome};
use nc_memory::Bit;
use nc_sched::{Noise, TimingModel};

use crate::{layers, median, mix, setup_samples, Args, Budget, Latencies, Report, Trace};

const NOISE: Noise = Noise::Uniform { lo: 0.0, hi: 2.0 };

fn build(inputs: &[Bit]) -> SimRun {
    Sim::new(Algorithm::Lean)
        .inputs(inputs.to_vec())
        .timing(TimingModel::figure1(NOISE))
        .limits(Limits::first_decision())
        .build()
}

/// Outcome of one repetition over a trial list.
struct Rep {
    secs: f64,
    /// Wall time of each trial, ms.
    latencies: Vec<f64>,
    total_ops: u64,
    /// FNV-1a over each trial's first-decision round and op count.
    fingerprint: u64,
    failed: u64,
}

/// Runs every trial seed once through `sim`, timing each trial and
/// checking its safety; with a trace, each `SimRun::run` call is also
/// recorded as a span.
fn rep(sim: &mut SimRun, inputs: &[Bit], seeds: &[u64], mut trace: Option<&mut Trace>) -> Rep {
    let start = Instant::now();
    let mut latencies = Vec::with_capacity(seeds.len());
    let (mut total_ops, mut failed) = (0u64, 0u64);
    let mut outcomes = Vec::with_capacity(seeds.len() * 16);
    for &seed in seeds {
        let t = Instant::now();
        let report = match trace.as_deref_mut() {
            Some(tr) => tr.span("engine.run", || sim.run(seed)),
            None => sim.run(seed),
        };
        latencies.push(t.elapsed().as_secs_f64() * 1e3);
        total_ops += report.total_ops;
        outcomes.extend_from_slice(&report.total_ops.to_le_bytes());
        outcomes
            .extend_from_slice(&(report.first_decision_round.unwrap_or(0) as u64).to_le_bytes());
        if report.outcome != RunOutcome::FirstDecision || report.check_safety(inputs).is_err() {
            failed += 1;
        }
    }
    Rep {
        secs: start.elapsed().as_secs_f64(),
        latencies,
        total_ops,
        fingerprint: crate::fnv1a(&outcomes),
        failed,
    }
}

pub fn run(args: &Args, n: usize) -> Report {
    // About 0.1 s of trials per repetition, so a run holds enough
    // repetitions for robust statistics.
    let trials: u64 = if n >= 4096 { 16 } else { 1600 };
    let seeds = |k: u64| -> Vec<u64> {
        (0..trials)
            .map(|t| mix(args.seed ^ mix((k << 32) | t)))
            .collect()
    };
    let inputs = half_and_half(n);
    let mut r = Report::default();

    let mut sim = build(&inputs);
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut latencies = Latencies::default();
    let mut trace = Trace::default();
    let mut budget = Budget::new(
        if args.trace {
            args.seconds * 0.6
        } else {
            args.seconds
        },
        5,
    );
    while budget.more(plain.len()) {
        let list = seeds(plain.len() as u64);
        let mut p = rep(&mut sim, &inputs, &list, None);
        latencies.add(std::mem::take(&mut p.latencies));
        plain.push(p);
        if args.trace {
            traced.push(rep(&mut sim, &inputs, &list, Some(&mut trace)));
        }
    }
    let again = rep(&mut sim, &inputs, &seeds(0), None);

    // Setup is timed after the loop: a freshly started process can run
    // its first milliseconds on a slower clock.
    let setup_s = setup_samples(|| build(&inputs));
    r.host_speed = budget.host_speed();
    let all: Vec<&Rep> = plain.iter().chain(&traced).chain([&again]).collect();
    r.attempted = trials * all.len() as u64;
    r.failed = all.iter().map(|x| x.failed).sum();
    r.require(
        "trial outcomes repeat",
        (again.total_ops, again.fingerprint) == (plain[0].total_ops, plain[0].fingerprint),
        format!(
            "first list: {} ops, fnv1a {:016x}; rerun: {} ops, fnv1a {:016x}",
            plain[0].total_ops, plain[0].fingerprint, again.total_ops, again.fingerprint
        ),
    );

    r.latencies(latencies);
    let ops: u64 = plain.iter().map(|x| x.total_ops).sum();
    let events = ops as f64 / (trials * plain.len() as u64) as f64;
    if !args.trace {
        r.median_of("setup_s", "s", setup_s);
        // A repetition's time per event does not depend on which trials
        // it drew; at the run's mean trial size it gives trials/s.
        let rate = plain
            .iter()
            .map(|x| x.total_ops as f64 / (x.secs * events))
            .collect();
        r.best_of("decided_per_s", "1/s", rate, true);
        return r;
    }

    eprintln!("{}", trace.summary());
    // Traced and untraced repetitions run the same trial lists in pairs.
    let overhead: Vec<f64> = traced
        .iter()
        .zip(&plain)
        .map(|(t, p)| t.secs / p.secs - 1.0)
        .collect();
    r.median_of("trace_overhead_frac", "frac", overhead);
    r.median_of("engine.build_s", "s", setup_s);
    let footprint = sim.memory().map_or(0, |m| m.footprint_words());
    r.single("memory.footprint_words", "count", footprint as f64);
    // Mean `SimRun::run` span per traced repetition, median across them.
    let run_ns = median(
        &trace
            .durations("engine.run")
            .chunks(trials as usize)
            .map(|c| c.iter().sum::<f64>() / c.len() as f64)
            .collect::<Vec<_>>(),
    );
    let measured = layers::measure(n, NOISE, args.seed, (args.seconds * 0.4).max(1.0));
    layers::report(&mut r, &measured, run_ns, events);
    r
}
