//! `svc_journal`: `NcService` with 5-process instances, 2 shards on 2
//! workers, an on-disk journal, and `Retention::DecidedCap(256)`.
//!
//! One repetition opens a fresh service in a fresh journal directory,
//! decides a saturating burst (every instance submitted at once, then
//! one `run_ready`), and then drives an open loop at a fixed arrival
//! rate through `submit` / `run_ready` / `drain_completions` / `poll`,
//! polling every ticket until it answers `Decided` or `Evicted`. The
//! instance ids and proposals derive from the workload seed, so the
//! reduced commit log of every repetition must be byte-identical.

use std::path::{Path, PathBuf};
use std::time::Instant;

use nc_engine::sim::Sim;
use nc_engine::Algorithm;
use nc_memory::Bit;
use nc_sched::Noise;
use nc_service::journal::DEFAULT_SEGMENT_RECORDS;
use nc_service::loadgen::{percentile, proposals_for};
use nc_service::{
    CommitFact, InstanceStatus, JournalWriter, NcService, Retention, ServiceConfig, Ticket,
};

use crate::{fnv1a, layers, median, mix, setup_samples, Args, Budget, Latencies, Report, Trace};

const PROCS: usize = 5;
const SHARDS: usize = 2;
const WORKERS: usize = 2;
const CAP: usize = 256;
/// Instances in the saturating burst.
const BURST: u64 = 20_000;
/// Instances in the open loop, and their arrival rate (per second). At
/// 100 000/s the small-batch loop runs near saturation on a 2-vCPU host
/// and latency measures queueing collapse; at 50 000/s it is about half
/// loaded.
const OPEN: u64 = 10_000;
const RATE: f64 = 50_000.0;
/// Margin within which `publish + (engine + journal) / workers` must
/// match the two-worker `run_ready` time per decided instance.
const SERVICE_SUM_MARGIN: f64 = 0.35;

fn config(seed: u64, dir: &Path) -> ServiceConfig {
    ServiceConfig::builder()
        .procs(PROCS)
        .shards(SHARDS)
        .seed(seed)
        .retention(Retention::DecidedCap(CAP))
        .journal_dir(dir)
        .build()
        .expect("static benchmark config is valid")
}

/// A fresh, empty directory under the run's scratch root.
fn fresh_dir(root: &Path, name: &str) -> PathBuf {
    let dir = root.join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create journal scratch dir");
    dir
}

/// Whether a committed fact carries a value that instance `id`'s
/// proposals contain (validity; undecided facts fail).
fn valid(fact: &CommitFact, props: &[Bit]) -> bool {
    fact.value.is_some_and(|v| props.contains(&v))
}

/// The workload's instance ids and proposals: `BURST + OPEN` ids from a
/// seed-derived base, each with `loadgen::proposals_for`.
struct Inputs {
    base: u64,
    props: Vec<Vec<Bit>>,
}

impl Inputs {
    fn new(seed: u64) -> Self {
        let base = mix(seed) >> 24;
        let props = (0..BURST + OPEN)
            .map(|i| proposals_for(base + i, PROCS))
            .collect();
        Inputs { base, props }
    }

    fn props(&self, id: u64) -> &[Bit] {
        &self.props[(id - self.base) as usize]
    }
}

/// Wraps one service call in a span when tracing.
fn call<R>(trace: &mut Option<&mut Trace>, name: &'static str, f: impl FnOnce() -> R) -> R {
    match trace.as_deref_mut() {
        Some(tr) => tr.span(name, f),
        None => f(),
    }
}

#[derive(Default)]
struct Rep {
    setup_s: f64,
    burst_secs: f64,
    run_ready_secs: f64,
    burst_facts: Vec<CommitFact>,
    /// Open loop: scheduled arrival → first poll answering decided, ms.
    latencies: Vec<f64>,
    /// p99 of how late instances were submitted after their scheduled
    /// arrival, ms.
    lag_p99: f64,
    /// Median of submission → start of the `run_ready` that decided it, ms.
    wait_median: f64,
    /// Median instances decided per open-loop `run_ready`.
    batch_median: f64,
    fingerprint: u64,
    failed: u64,
    journal_bytes: f64,
    resident: f64,
    evicted: f64,
}

/// Submits every proposal of instance `id`, returning its last ticket.
fn submit_all(
    svc: &mut NcService,
    id: u64,
    props: &[Bit],
    trace: &mut Option<&mut Trace>,
) -> Ticket {
    let mut ticket = None;
    for &v in props {
        ticket = Some(
            call(trace, "service.submit", || svc.submit(id, v)).expect("benchmark ids are fresh"),
        );
    }
    ticket.expect("PROCS >= 1")
}

fn rep(seed: u64, inputs: &Inputs, root: &Path, mut trace: Option<&mut Trace>) -> Rep {
    let mut out = Rep::default();
    let dir = fresh_dir(root, "rep");
    let t = Instant::now();
    let mut svc = NcService::open(config(seed, &dir)).expect("open service");
    out.setup_s = t.elapsed().as_secs_f64();

    // Saturating burst.
    let start = Instant::now();
    for id in inputs.base..inputs.base + BURST {
        submit_all(&mut svc, id, inputs.props(id), &mut trace);
    }
    let rr = Instant::now();
    call(&mut trace, "service.run_ready", || svc.run_ready(WORKERS));
    out.run_ready_secs = rr.elapsed().as_secs_f64();
    let facts = call(&mut trace, "service.drain", || svc.drain_completions());
    out.burst_secs = start.elapsed().as_secs_f64();
    out.failed += BURST - facts.len() as u64;
    out.failed += facts
        .iter()
        .filter(|f| !valid(f, inputs.props(f.id)))
        .count() as u64;
    out.burst_facts = facts;

    // Open loop: instance i is due at i / RATE after `t0`.
    let first = inputs.base + BURST;
    let t0 = Instant::now();
    let ms = |t: Instant| t.duration_since(t0).as_secs_f64() * 1e3;
    // (ticket, due ms, submitted ms)
    let mut outstanding: Vec<(Ticket, f64, f64)> = Vec::new();
    let (mut lags, mut waits, mut batches) = (Vec::new(), Vec::new(), Vec::new());
    let (mut next, mut resolved) = (0u64, 0u64);
    while resolved < OPEN {
        if t0.elapsed().as_secs_f64() > 30.0 {
            break;
        }
        let now = t0.elapsed().as_secs_f64();
        let due = ((now * RATE) as u64 + 1).min(OPEN);
        while next < due {
            let id = first + next;
            let due_ms = next as f64 * 1e3 / RATE;
            let at = ms(Instant::now());
            lags.push((at - due_ms).max(0.0));
            let ticket = submit_all(&mut svc, id, inputs.props(id), &mut trace);
            outstanding.push((ticket, due_ms, at));
            next += 1;
        }
        if svc.submitted_pending() == 0 {
            std::hint::spin_loop();
            continue;
        }
        let rs = ms(Instant::now());
        let decided = call(&mut trace, "service.run_ready", || svc.run_ready(WORKERS)).len();
        batches.push(decided as f64);
        for f in call(&mut trace, "service.drain", || svc.drain_completions()) {
            if !valid(&f, inputs.props(f.id)) {
                out.failed += 1;
            }
        }
        outstanding.retain(|&(ticket, due_ms, submitted)| {
            let status = call(&mut trace, "service.poll", || svc.poll(ticket));
            let done = matches!(
                status,
                InstanceStatus::Decided(_) | InstanceStatus::Evicted { .. }
            );
            if done {
                out.latencies.push(ms(Instant::now()) - due_ms);
                waits.push(rs - submitted);
                resolved += 1;
            }
            !done
        });
    }
    out.failed += OPEN - resolved;
    lags.sort_unstable_by(f64::total_cmp);
    out.lag_p99 = percentile(&lags, 0.99);
    out.wait_median = median(&waits);
    out.batch_median = median(&batches);

    out.fingerprint = fnv1a(svc.reduced_log().as_bytes());
    let decided = svc.decided() as f64;
    out.journal_bytes = svc.journal_footprint().map_or(0.0, |(_, b)| b as f64) / decided;
    out.resident = svc.resident_decided() as f64;
    out.evicted = svc.evicted_count() as f64;
    drop(svc);
    let _ = std::fs::remove_dir_all(&dir);
    crate::settle_disk();
    out
}

pub fn run(args: &Args) -> Report {
    let inputs = Inputs::new(args.seed);
    let mut r = Report::default();
    let mut trace = Trace::default();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut budget = Budget::new(
        if args.trace {
            args.seconds * 0.6
        } else {
            args.seconds
        },
        3,
    );
    let mut latencies = Latencies::default();
    let mut last_facts = Vec::new();
    while budget.more(plain.len()) {
        let mut p = rep(args.seed, &inputs, &args.scratch, None);
        latencies.add(std::mem::take(&mut p.latencies));
        last_facts = std::mem::take(&mut p.burst_facts);
        plain.push(p);
        if args.trace {
            traced.push(rep(args.seed, &inputs, &args.scratch, Some(&mut trace)));
        }
    }
    r.host_speed = budget.host_speed();
    let all: Vec<&Rep> = plain.iter().chain(&traced).collect();
    r.attempted = (BURST + OPEN) * all.len() as u64;
    r.failed = all.iter().map(|x| x.failed).sum();
    r.require(
        "reduced-log fingerprint repeats",
        all.iter().all(|x| x.fingerprint == all[0].fingerprint),
        format!("fnv1a {:016x}", all[0].fingerprint),
    );
    r.latencies(latencies);

    if !args.trace {
        r.median_of("setup_s", "s", plain.iter().map(|x| x.setup_s).collect());
        let rate = plain.iter().map(|x| BURST as f64 / x.burst_secs).collect();
        r.best_of("decided_per_s", "1/s", rate, true);
        return r;
    }

    eprintln!("{}", trace.summary());
    // Traced and untraced repetitions decide the same instances in pairs.
    let overhead: Vec<f64> = traced
        .iter()
        .zip(&plain)
        .map(|(t, p)| t.burst_secs / p.burst_secs - 1.0)
        .collect();
    r.median_of("trace_overhead_frac", "frac", overhead);
    r.single(
        "service.submit_ns",
        "ns",
        median(&trace.durations("service.submit")),
    );
    r.single(
        "service.poll_ns",
        "ns",
        median(&trace.durations("service.poll")),
    );
    let per_rep = |f: fn(&Rep) -> f64| plain.iter().map(f).collect::<Vec<_>>();
    r.median_of("service.loadgen_lag_ms", "ms", per_rep(|x| x.lag_p99));
    r.median_of("service.queue_wait_ms", "ms", per_rep(|x| x.wait_median));
    r.median_of("service.batch_size", "count", per_rep(|x| x.batch_median));
    let last = plain.last().expect("at least one repetition");
    r.single("service.journal_bytes_per_decided", "B", last.journal_bytes);
    r.single("service.resident_decided", "count", last.resident);
    r.single("service.evicted", "count", last.evicted);

    // Layer split of the burst's two-worker `run_ready`, per decided
    // instance: the engine replayed alone, the journal appends alone,
    // and the serial remainder of a one-worker `run_ready`.
    let ns = 1e9 / BURST as f64;
    let r2: Vec<f64> = all.iter().map(|x| x.run_ready_secs * ns).collect();
    let r2 = median(&r2);
    let layer_secs = (args.seconds * 0.4).max(1.0);
    let replay = replay_engine(args.seed, &inputs, layer_secs * 0.2);
    let engine_ns = replay.ns;
    last_facts.sort_unstable_by_key(|f| f.id);
    r.require(
        "engine replay matches service facts",
        replay.facts == last_facts,
        format!("{} replayed facts", replay.facts.len()),
    );
    let journal_ns = journal_append_ns(&args.scratch, &replay.facts, layer_secs * 0.2);
    let r1 = serial_run_ready_ns(args.seed, &inputs, &args.scratch, layer_secs * 0.2);
    let publish_ns = r1 - engine_ns - journal_ns;
    let predicted = publish_ns + (engine_ns + journal_ns) / WORKERS as f64;
    let unexplained = 1.0 - predicted / r2;
    r.single("service.run_ready_ns_per_decided", "ns", r2);
    r.single("service.engine_ns_per_decided", "ns", engine_ns);
    r.single("service.journal_append_ns", "ns", journal_ns);
    r.single("service.publish_ns_per_decided", "ns", publish_ns);
    r.single("service.unexplained_frac", "frac", unexplained);
    r.single(
        "service.fanout_efficiency",
        "frac",
        (engine_ns + journal_ns) / (WORKERS as f64 * r2),
    );
    r.note(
        "service_layer_sum",
        unexplained.abs() <= SERVICE_SUM_MARGIN,
        format!(
            "publish {publish_ns:.0} + (engine {engine_ns:.0} + journal {journal_ns:.0}) / {WORKERS} = {predicted:.0} ns vs run_ready {r2:.0} ns per decided; unexplained {unexplained:.3}, margin +-{SERVICE_SUM_MARGIN}"
        ),
    );

    // The engine layers beneath one service instance, at its n.
    r.single("engine.build_s", "s", replay.build_s);
    r.single("memory.footprint_words", "count", replay.footprint as f64);
    let measured = layers::measure(
        PROCS,
        Noise::Exponential { mean: 1.0 },
        args.seed,
        layer_secs * 0.4,
    );
    layers::report(&mut r, &measured, engine_ns, replay.events);
    r
}

/// The burst replayed through the engine alone.
struct Replay {
    /// ns per instance (median of repeats).
    ns: f64,
    /// Mean events per instance.
    events: f64,
    /// Time to build the pooled `SimRun`.
    build_s: f64,
    /// Words the race arrays reached.
    footprint: usize,
    /// The facts the replay decides, sorted by id.
    facts: Vec<CommitFact>,
}

/// Replays the burst's instances through one pooled `SimRun` with the
/// service's own seeds and proposals.
fn replay_engine(seed: u64, inputs: &Inputs, secs: f64) -> Replay {
    // In memory only: this service just answers `instance_seed`.
    let cfg = ServiceConfig::builder()
        .procs(PROCS)
        .shards(SHARDS)
        .seed(seed)
        .build()
        .expect("static benchmark config is valid");
    let svc = NcService::new(cfg.clone());
    let build = || {
        Sim::new(Algorithm::Lean)
            .inputs(vec![Bit::Zero; PROCS])
            .timing(cfg.timing.clone())
            .limits(cfg.limits)
            .build()
    };
    let build_s = median(&setup_samples(build));
    let mut sim = build();
    let start = Instant::now();
    let (mut samples, mut facts, mut ops) = (Vec::new(), Vec::with_capacity(BURST as usize), 0u64);
    while samples.len() < 3 || start.elapsed().as_secs_f64() < secs {
        facts.clear();
        ops = 0;
        let t = Instant::now();
        for id in inputs.base..inputs.base + BURST {
            let report = sim.run_with_inputs(svc.instance_seed(id), inputs.props(id));
            ops += report.total_ops;
            facts.push(CommitFact {
                id,
                value: report.agreement_value(),
                round: report.first_decision_round.unwrap_or(0),
                ops: report.total_ops,
            });
        }
        samples.push(t.elapsed().as_nanos() as f64 / BURST as f64);
    }
    Replay {
        ns: median(&samples),
        events: ops as f64 / BURST as f64,
        build_s,
        footprint: sim.memory().map_or(0, |m| m.footprint_words()),
        facts,
    }
}

/// `JournalWriter::append` of `facts` into a fresh scratch journal, ns
/// per append (median of repeats).
fn journal_append_ns(root: &Path, facts: &[CommitFact], secs: f64) -> f64 {
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 3 || start.elapsed().as_secs_f64() < secs {
        let dir = fresh_dir(root, "journal");
        let (mut writer, _) =
            JournalWriter::open(&dir, DEFAULT_SEGMENT_RECORDS).expect("open journal");
        let t = Instant::now();
        for f in facts {
            writer.append(f).expect("append to scratch journal");
        }
        samples.push(t.elapsed().as_nanos() as f64 / facts.len() as f64);
        drop(writer);
        let _ = std::fs::remove_dir_all(&dir);
    }
    median(&samples)
}

/// The burst's `run_ready` on one worker, ns per decided instance
/// (median of repeats, each on a fresh service and journal).
fn serial_run_ready_ns(seed: u64, inputs: &Inputs, root: &Path, secs: f64) -> f64 {
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 3 || start.elapsed().as_secs_f64() < secs {
        let dir = fresh_dir(root, "serial");
        let mut svc = NcService::open(config(seed, &dir)).expect("open service");
        for id in inputs.base..inputs.base + BURST {
            submit_all(&mut svc, id, inputs.props(id), &mut None);
        }
        let t = Instant::now();
        let n = svc.run_ready(1).len();
        samples.push(t.elapsed().as_nanos() as f64 / n as f64);
        drop(svc);
        let _ = std::fs::remove_dir_all(&dir);
    }
    median(&samples)
}
