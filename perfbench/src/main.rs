//! perfbench: the workspace's one benchmark. Each workload drives a
//! public entry point of the library from outside, checks every output,
//! and prints its metrics by name and unit.
//!
//! ```text
//! perfbench --workload <fig1_n100|fig1_n8192|svc_journal|msg_loss5>
//!           --seed <u64> --seconds <f64> --trace <0|1> --scratch <dir>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with no spans recorded.
//! `--trace 1` alternates untraced and traced repetitions of the same
//! work (their cost ratio is `trace_overhead_frac`), then times each
//! layer in isolation at the workload's size. The last stdout line is
//! the result object; the line before it is the full record (every
//! metric with its median and quartiles across repetitions).

mod fig1;
mod layers;
mod msg;
mod svc;

use std::path::PathBuf;
use std::time::Instant;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scratch: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut scratch = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            "--scratch" => scratch = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("missing --seconds")?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err(format!("--seconds {seconds} out of range (0, 120]"));
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds,
        trace: trace.ok_or("missing --trace")?,
        scratch: scratch.ok_or("missing --scratch")?,
    })
}

/// SplitMix64: derives every benchmark input (trial seeds, instance
/// ids, schedules) from the workload seed.
pub fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a over bytes: the fingerprint of a deterministic output.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Median of a sample (mean of the middle pair for even sizes).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_unstable_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// First and third quartiles, by the same exclusive method as Python's
/// `statistics.quantiles(xs, n=4)`.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let mut v = xs.to_vec();
    v.sort_unstable_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(f64::NAN);
        return (x, x);
    }
    let at = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta.clamp(0.0, 1.0)
    };
    (at(1), at(3))
}

/// One metric as measured: the reported value plus, for metrics taken
/// once per repetition, the spread across repetitions.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Per-repetition values (empty for a single measurement).
    pub reps: Vec<f64>,
}

/// Everything one run produces: metrics, checks, and layer-sum verdicts.
#[derive(Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// Determinism and layer-sum checks: `(name, passed, detail)`.
    pub checks: Vec<(&'static str, bool, String)>,
    /// [`Budget::host_speed`] of the run; end-to-end times are divided
    /// by it and rates multiplied.
    pub host_speed: f64,
}

impl Report {
    /// A metric reported as the median of its per-repetition values.
    pub fn median_of(&mut self, name: &'static str, unit: &'static str, reps: Vec<f64>) {
        let value = median(&reps);
        self.metrics.push(Metric {
            name,
            unit,
            value,
            reps,
        });
    }

    /// A metric reported as the best quartile of its per-repetition
    /// values: the third quartile when higher is better, the first when
    /// lower is. Interference from other tenants of a shared host only
    /// ever slows a repetition down, and it comes and goes over seconds,
    /// so the faster repetitions are the steadier estimate of what the
    /// code itself costs.
    pub fn best_of(
        &mut self,
        name: &'static str,
        unit: &'static str,
        reps: Vec<f64>,
        higher: bool,
    ) {
        let (q1, q3) = quartiles(&reps);
        let value = if higher { q3 } else { q1 };
        self.metrics.push(Metric {
            name,
            unit,
            value,
            reps,
        });
    }

    /// `decide_p50_ms`, `decide_p99_ms` and `decide_samples` from a
    /// run's decide latencies: the best quartile of per-repetition
    /// percentiles when repetitions are large enough, else the pooled
    /// percentiles (see [`Latencies`]).
    pub fn latencies(&mut self, l: Latencies) {
        for (name, q, i) in [("decide_p50_ms", 0.50, 0), ("decide_p99_ms", 0.99, 1)] {
            if l.pooled.is_empty() {
                let reps = l.per_rep.iter().map(|p| p[i]).collect();
                self.best_of(name, "ms", reps, false);
            } else {
                let mut v = l.pooled.clone();
                v.sort_unstable_by(f64::total_cmp);
                self.single(name, "ms", percentile(&v, q));
            }
        }
        self.single("decide_samples", "count", l.samples as f64);
    }

    /// A metric measured once (a count, a pooled percentile, a ratio).
    pub fn single(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.metrics.push(Metric {
            name,
            unit,
            value,
            reps: Vec::new(),
        });
    }

    /// Records a check that must hold for the run to count as correct.
    pub fn require(&mut self, name: &'static str, ok: bool, detail: String) {
        if !ok {
            self.failed += 1;
        }
        self.checks.push((name, ok, detail));
    }

    /// Records a check reported for information; it never fails the run.
    pub fn note(&mut self, name: &'static str, ok: bool, detail: String) {
        self.checks.push((name, ok, detail));
    }
}

/// A run's decide latencies (ms). A repetition with at least 1000
/// samples (ten beyond its p99) keeps only its own p50 and p99; smaller
/// repetitions pool their samples over the run. Either way the memory
/// kept does not grow with the repetition count, so `peak_rss_mib`
/// measures the library, not this bookkeeping.
#[derive(Default)]
pub struct Latencies {
    per_rep: Vec<[f64; 2]>,
    pooled: Vec<f64>,
    samples: usize,
}

impl Latencies {
    pub fn add(&mut self, mut rep: Vec<f64>) {
        self.samples += rep.len();
        if rep.len() >= 1000 {
            rep.sort_unstable_by(f64::total_cmp);
            self.per_rep
                .push([percentile(&rep, 0.50), percentile(&rep, 0.99)]);
        } else {
            self.pooled.extend(rep);
        }
    }
}

/// The per-layer metrics a workload does not reach are reported as 0
/// so every workload prints the same metric set.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("engine.build_s", "s"),
    ("engine.run_ns_per_trial", "ns"),
    ("engine.events_per_trial", "count"),
    ("engine.ns_per_event", "ns"),
    ("engine.unexplained_frac", "frac"),
    ("sched.hold_ns", "ns"),
    ("sched.noise_ns_per_draw", "ns"),
    ("core.step_ns", "ns"),
    ("memory.access_ns", "ns"),
    ("memory.reset_ns", "ns"),
    ("memory.footprint_words", "count"),
    ("service.submit_ns", "ns"),
    ("service.poll_ns", "ns"),
    ("service.run_ready_ns_per_decided", "ns"),
    ("service.engine_ns_per_decided", "ns"),
    ("service.journal_append_ns", "ns"),
    ("service.publish_ns_per_decided", "ns"),
    ("service.unexplained_frac", "frac"),
    ("service.batch_size", "count"),
    ("service.queue_wait_ms", "ms"),
    ("service.fanout_efficiency", "frac"),
    ("service.journal_bytes_per_decided", "B"),
    ("service.resident_decided", "count"),
    ("service.evicted", "count"),
    ("service.loadgen_lag_ms", "ms"),
    ("msg.run_ns", "ns"),
    ("msg.deliveries_per_s", "1/s"),
    ("msg.sent_per_decided", "count"),
    ("msg.retries_per_run", "count"),
    ("msg.lost_per_run", "count"),
    ("msg.gossip_per_run", "count"),
    ("msg.delivered_frac", "frac"),
    ("decide_p99_ms", "ms"),
    ("decide_samples", "count"),
    ("fail_frac", "frac"),
    ("trace_overhead_frac", "frac"),
];

/// The end-to-end metrics every workload reports with `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("decided_per_s", "1/s"),
    ("decide_p50_ms", "ms"),
    ("peak_rss_mib", "MiB"),
];

/// Times a workload's setup call, `f`, as 51 samples of 100
/// back-to-back calls (results kept until the sample ends, then
/// dropped untimed) and returns seconds per call for each sample.
/// One call takes well under a microsecond for some workloads, so a
/// sample must hold many.
pub fn setup_samples<T>(mut f: impl FnMut() -> T) -> Vec<f64> {
    const SAMPLES: usize = 51;
    const CALLS: usize = 100;
    (0..SAMPLES)
        .map(|_| {
            let t = Instant::now();
            let built: Vec<T> = (0..CALLS).map(|_| f()).collect();
            let secs = t.elapsed().as_secs_f64() / CALLS as f64;
            drop(std::hint::black_box(built));
            secs
        })
        .collect()
}

/// Nearest-rank `q`-quantile of an ascending-sorted sample.
pub use nc_service::loadgen::percentile;

extern "C" {
    fn sync();
}

/// Flushes every dirty page and the filesystem journal. The journal
/// workload calls it between repetitions, untimed, so each repetition
/// starts from the same disk state: otherwise the writeback and unlink
/// work one repetition leaves behind slows the next ones.
pub fn settle_disk() {
    // SAFETY: `sync(2)` takes no arguments, touches no memory of this
    // process, and cannot fail.
    unsafe { sync() }
}

/// Peak resident set (`VmHWM`) of this process, in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// Time one pass of [`reference_secs`] takes on the reference host in
/// a quiet phase. It defines the host speed end-to-end times are
/// reported at.
const REFERENCE_SECS: f64 = 1.0e-3;

/// Wall time of one pass of a fixed reference kernel: integer mixing
/// with a data-dependent branch over an L1-resident table. It is
/// benchmark code that no library change can speed up or slow down, so
/// its time tracks only how fast the shared host runs this process.
pub fn reference_secs() -> f64 {
    let table: Vec<u64> = (0..256).map(mix).collect();
    let t = Instant::now();
    let mut x = 0u64;
    for i in 0..100_000u64 {
        let y = mix(x ^ i);
        x = if y & 1 == 0 {
            x.wrapping_add(table[(y >> 8) as usize & 255])
        } else {
            x ^ y
        };
    }
    std::hint::black_box(x);
    t.elapsed().as_secs_f64()
}

/// A repetition budget: run at least `min_reps`, then stop once
/// `seconds` of wall time have passed since construction. Before each
/// repetition it also times the reference kernel, for [`Budget::host_speed`].
pub struct Budget {
    start: Instant,
    seconds: f64,
    min_reps: usize,
    reference: Vec<f64>,
}

impl Budget {
    pub fn new(seconds: f64, min_reps: usize) -> Self {
        Budget {
            start: Instant::now(),
            seconds,
            min_reps,
            reference: Vec::new(),
        }
    }

    pub fn more(&mut self, reps_done: usize) -> bool {
        let more = reps_done < self.min_reps || self.start.elapsed().as_secs_f64() < self.seconds;
        if more {
            self.reference.push(reference_secs());
        }
        more
    }

    /// How much slower than the reference host this run went: the
    /// median reference-kernel time over [`REFERENCE_SECS`].
    pub fn host_speed(&self) -> f64 {
        median(&self.reference) / REFERENCE_SECS
    }
}

/// Spans recorded from outside the library, around each call into a
/// layer's public function: `(name, start, end)` in ns since the trace
/// began. Kept in memory and summarised when the run ends.
pub struct Trace {
    t0: Instant,
    spans: Vec<(&'static str, u64, u64)>,
}

impl Default for Trace {
    fn default() -> Self {
        Trace {
            t0: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
        }
    }
}

impl Trace {
    pub fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` and returns its result.
    #[inline]
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let start = self.now();
        let out = f();
        let end = self.now();
        self.spans.push((name, start, end));
        out
    }

    /// Durations (ns) of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.0 == name)
            .map(|s| (s.2 - s.1) as f64)
            .collect()
    }

    /// One line per span name: count, total and median duration.
    pub fn summary(&self) -> String {
        let mut names: Vec<&str> = self.spans.iter().map(|s| s.0).collect();
        names.sort_unstable();
        names.dedup();
        names
            .iter()
            .map(|name| {
                let d = self.durations(name);
                format!(
                    "span {name}: count {} total_ms {:.3} median_ns {:.0}",
                    d.len(),
                    d.iter().sum::<f64>() / 1e6,
                    median(&d)
                )
            })
            .collect::<Vec<_>>()
            .join("\n")
    }
}

fn json_num(x: f64) -> String {
    format!("{x:?}")
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut report = match args.workload.as_str() {
        "fig1_n100" => fig1::run(&args, 100),
        "fig1_n8192" => fig1::run(&args, 8192),
        "svc_journal" => svc::run(&args),
        "msg_loss5" => msg::run(&args),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            std::process::exit(2);
        }
    };

    let wanted = if args.trace { PER_LAYER } else { END_TO_END };
    if args.trace {
        let frac = report.failed as f64 / report.attempted.max(1) as f64;
        report.single("fail_frac", "frac", frac);
    } else {
        // End-to-end timings at reference host speed (see README.md).
        let speed = report.host_speed;
        for m in &mut report.metrics {
            let scale = match m.unit {
                "s" | "ms" => 1.0 / speed,
                "1/s" => speed,
                _ => continue,
            };
            m.value *= scale;
            m.reps.iter_mut().for_each(|x| *x *= scale);
        }
        report.single("peak_rss_mib", "MiB", peak_rss_mib());
    }
    // Fill layers this workload does not reach with 0, and keep only
    // the metric set of this mode, in the declared order.
    let mut printed = Vec::new();
    for &(name, unit) in wanted {
        match report.metrics.iter().position(|m| m.name == name) {
            Some(i) => printed.push(report.metrics.swap_remove(i)),
            None if args.trace => printed.push(Metric {
                name,
                unit,
                value: 0.0,
                reps: Vec::new(),
            }),
            None => panic!("workload did not measure end-to-end metric {name}"),
        }
    }
    for m in &printed {
        assert!(
            m.value.is_finite(),
            "metric {} is not a finite number ({})",
            m.name,
            m.value
        );
    }

    let correct = report.failed == 0;

    let host = std::env::var("PERFBENCH_HOST").unwrap_or_else(|_| "null".into());
    let record_metrics: Vec<String> = printed
        .iter()
        .map(|m| {
            let (q1, q3) = if m.reps.is_empty() {
                (m.value, m.value)
            } else {
                quartiles(&m.reps)
            };
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\", \"median\": {}, \"q1\": {}, \"q3\": {}, \"reps\": {}}}",
                m.name,
                json_num(m.value),
                m.unit,
                json_num(if m.reps.is_empty() { m.value } else { median(&m.reps) }),
                json_num(q1),
                json_num(q3),
                m.reps.len().max(1)
            )
        })
        .collect();
    let checks: Vec<String> = report
        .checks
        .iter()
        .map(|(name, ok, detail)| {
            format!(
                "\"{name}\": {{\"pass\": {ok}, \"detail\": \"{}\"}}",
                detail.replace('"', "'")
            )
        })
        .collect();
    println!(
        "{{\"record\": \"perfbench\", \"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"seconds\": {}, \"host_speed\": {}, \"cores\": {}, \"host\": {host}, \"checks\": {{{}}}, \"metrics\": {{{}}}}}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        json_num(args.seconds),
        json_num(report.host_speed),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        checks.join(", "),
        record_metrics.join(", ")
    );
    let result_metrics: Vec<String> = printed
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_num(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted.max(1),
        report.failed,
        result_metrics.join(", ")
    );
}
