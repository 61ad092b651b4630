//! `msg_loss5`: lean-over-ABD (`nc_msg::run_message_passing`) with n = 5,
//! `Exponential(1)` delays, 5% message loss, and the retry + gossip
//! recovery plane armed. Repetition k runs its own list of run seeds
//! derived from the workload seed; the first list is run again at the
//! end and must reproduce its message counts exactly.

use std::time::Instant;

use nc_msg::{run_message_passing, MsgConfig, MsgReport, NetFaultSpec, Outcome, RecoverySpec};
use nc_sched::Noise;

use crate::{median, mix, setup_samples, Args, Budget, Latencies, Report, Trace};

const N: usize = 5;
const LOSS: f64 = 0.05;
/// Runs per repetition (about 0.4 s), enough for a per-repetition p99.
const RUNS: u64 = 1000;

fn config() -> MsgConfig {
    let cfg = MsgConfig::new(N, Noise::Exponential { mean: 1.0 })
        .with_faults(NetFaultSpec::none().with_loss(LOSS))
        .with_recovery(RecoverySpec::default());
    cfg.validate().expect("static benchmark config is valid");
    cfg
}

/// Per-repetition totals; the counts are deterministic in the seeds.
#[derive(Clone, Copy, Default, PartialEq, Debug)]
struct Counts {
    deliveries: u64,
    sent: u64,
    retries: u64,
    lost: u64,
    gossip: u64,
    decided: u64,
}

struct Rep {
    secs: f64,
    /// Wall time of each run, ms.
    latencies: Vec<f64>,
    counts: Counts,
    failed: u64,
}

/// Decided, every node decided, all on one value that some node proposed.
fn agrees(cfg: &MsgConfig, report: &MsgReport) -> bool {
    let first = report.decisions.first().copied().flatten();
    report.outcome == Outcome::Decided
        && report.decisions.iter().all(|d| d.is_some() && *d == first)
        && first.is_some_and(|v| cfg.inputs.contains(&v))
}

fn rep(cfg: &MsgConfig, seeds: &[u64], mut trace: Option<&mut Trace>) -> Rep {
    let start = Instant::now();
    let mut latencies = Vec::with_capacity(seeds.len());
    let mut c = Counts::default();
    let mut failed = 0;
    for &seed in seeds {
        let t = Instant::now();
        let report = match trace.as_deref_mut() {
            Some(tr) => tr.span("msg.run", || run_message_passing(cfg, seed)),
            None => run_message_passing(cfg, seed),
        };
        latencies.push(t.elapsed().as_secs_f64() * 1e3);
        if agrees(cfg, &report) {
            c.decided += 1;
        } else {
            failed += 1;
        }
        c.deliveries += report.deliveries;
        c.sent += report.sent;
        c.retries += report.retries;
        c.lost += report.lost;
        c.gossip += report.gossip;
    }
    Rep {
        secs: start.elapsed().as_secs_f64(),
        latencies,
        counts: c,
        failed,
    }
}

pub fn run(args: &Args) -> Report {
    let seeds = |k: u64| -> Vec<u64> {
        (0..RUNS)
            .map(|t| mix(args.seed ^ mix((k << 32) | t)))
            .collect()
    };
    let mut r = Report::default();

    let cfg = config();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut latencies = Latencies::default();
    let mut trace = Trace::default();
    let mut budget = Budget::new(
        if args.trace {
            args.seconds * 0.9
        } else {
            args.seconds
        },
        5,
    );
    while budget.more(plain.len()) {
        let list = seeds(plain.len() as u64);
        let mut p = rep(&cfg, &list, None);
        latencies.add(std::mem::take(&mut p.latencies));
        plain.push(p);
        if args.trace {
            traced.push(rep(&cfg, &list, Some(&mut trace)));
        }
    }
    let again = rep(&cfg, &seeds(0), None);

    // Setup is timed after the loop: a freshly started process can run
    // its first milliseconds on a slower clock.
    let setup_s = setup_samples(config);
    r.host_speed = budget.host_speed();
    let all: Vec<&Rep> = plain.iter().chain(&traced).chain([&again]).collect();
    r.attempted = RUNS * all.len() as u64;
    r.failed = all.iter().map(|x| x.failed).sum();
    r.require(
        "msg counts repeat",
        again.counts == plain[0].counts,
        format!("first list {:?}; rerun {:?}", plain[0].counts, again.counts),
    );

    r.latencies(latencies);
    if !args.trace {
        r.median_of("setup_s", "s", setup_s);
        let rate = plain.iter().map(|x| RUNS as f64 / x.secs).collect();
        r.best_of("decided_per_s", "1/s", rate, true);
        return r;
    }

    eprintln!("{}", trace.summary());
    // Traced and untraced repetitions run the same seed lists in pairs.
    let overhead: Vec<f64> = traced
        .iter()
        .zip(&plain)
        .map(|(t, p)| t.secs / p.secs - 1.0)
        .collect();
    r.median_of("trace_overhead_frac", "frac", overhead);
    let c = plain.iter().fold(Counts::default(), |mut acc, x| {
        acc.deliveries += x.counts.deliveries;
        acc.sent += x.counts.sent;
        acc.retries += x.counts.retries;
        acc.lost += x.counts.lost;
        acc.gossip += x.counts.gossip;
        acc.decided += x.counts.decided;
        acc
    });
    let runs = (RUNS * plain.len() as u64) as f64;
    let run_ns = median(
        &trace
            .durations("msg.run")
            .chunks(RUNS as usize)
            .map(|ch| ch.iter().sum::<f64>() / ch.len() as f64)
            .collect::<Vec<_>>(),
    );
    r.single("msg.run_ns", "ns", run_ns);
    let deliveries_per_s: Vec<f64> = plain
        .iter()
        .map(|x| x.counts.deliveries as f64 / x.secs)
        .collect();
    r.best_of("msg.deliveries_per_s", "1/s", deliveries_per_s, true);
    r.single(
        "msg.sent_per_decided",
        "count",
        c.sent as f64 / c.decided.max(1) as f64,
    );
    r.single("msg.retries_per_run", "count", c.retries as f64 / runs);
    r.single("msg.lost_per_run", "count", c.lost as f64 / runs);
    r.single("msg.gossip_per_run", "count", c.gossip as f64 / runs);
    r.single(
        "msg.delivered_frac",
        "frac",
        c.deliveries as f64 / c.sent.max(1) as f64,
    );
    r
}
