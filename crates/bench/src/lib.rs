//! Experiment harness for the `noisy-consensus` workspace.
//!
//! Each experiment in the catalogue (`docs/experiments.md`, E1–E20) is
//! a module in [`experiments`] that registers itself as a
//! [`scenario::Scenario`]: a static descriptor (id, paper artifact,
//! output CSVs, full-scale and smoke presets) plus a preset-driven
//! runner returning [`Table`]s. The single `repro` binary drives the
//! whole registry:
//!
//! ```sh
//! cargo run --release -p nc-bench --bin repro -- --list
//! cargo run --release -p nc-bench --bin repro -- --only E1,E7 --scale 10
//! cargo run --release -p nc-bench --bin repro -- --smoke --check crates/bench/tests/golden
//! ```
//!
//! Every run writes its CSVs plus a machine-readable `manifest.json`
//! under `--out-dir` (default `results/`). Smoke runs are pinned by
//! committed golden CSVs (`tests/golden_repro.rs`).
//!
//! Engine-driven trial sweeps go through [`nc_engine::sim::TrialSet`]
//! (which owns scratch pooling and worker fan-out);
//! the [`par_trials`] / [`par_trial_chunks`] helpers here cover the
//! non-engine sweeps (renewal races, message-passing runs). In both,
//! **parallelism is per-call state**: every sweep takes its own worker
//! count, there is no process-global thread knob, and results are
//! bit-for-bit identical at every worker count.
//!
//! The engine perf gate is the separate `bench_engine` binary.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod experiments;
pub mod scenario;
pub mod table;

pub use table::Table;

pub use nc_engine::sim::{par_spans, resolve_threads};

/// Runs `trials` independent trial computations across `threads`
/// workers (0 = all cores), returning the results **in trial order**.
///
/// Determinism contract: `f` must be a pure function of its trial index
/// (all experiment trials are — each derives its own seed from the
/// index), so the output is bit-for-bit identical to the serial loop
/// `(0..trials).map(f)` for every worker count.
pub fn par_trials<T, F>(threads: usize, trials: u64, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(u64) -> T + Sync,
{
    par_trial_chunks(threads, trials, || (), |(), t| f(t))
}

/// [`par_trials`] with per-worker reusable state: trials are split into
/// contiguous spans (by [`par_spans`], the same chunked fan-out that
/// powers `TrialSet` sweeps), each span gets a fresh `init()` value
/// that its trials mutate serially. Results come back in trial order.
///
/// The same determinism contract applies: the state is scratch memory,
/// so span boundaries (and therefore the worker count) must not affect
/// any result.
pub fn par_trial_chunks<S, T, Init, F>(threads: usize, trials: u64, init: Init, f: F) -> Vec<T>
where
    T: Send,
    Init: Fn() -> S + Sync,
    F: Fn(&mut S, u64) -> T + Sync,
{
    par_spans(threads, trials, |lo, hi| {
        let mut state = init();
        (lo..hi).map(|t| f(&mut state, t)).collect()
    })
}

/// The paper's Figure 1 x-axis: 1, 2, 5 per decade, from 1 to `max_n`.
pub fn figure1_ns(max_n: usize) -> Vec<usize> {
    let mut ns = Vec::new();
    let mut decade = 1usize;
    'outer: loop {
        for mult in [1usize, 2, 5] {
            let n = decade.saturating_mul(mult);
            if n > max_n {
                break 'outer;
            }
            ns.push(n);
        }
        match decade.checked_mul(10) {
            Some(d) => decade = d,
            None => break,
        }
    }
    if ns.last() != Some(&max_n) {
        ns.push(max_n);
    }
    ns
}

/// Trials per Figure 1 point: targets a fixed event budget per point so
/// small `n` gets many trials (up to `base`) and huge `n` still gets a
/// statistically useful handful. `base` caps everything (so e.g.
/// `--trials 5` runs 5 trials, not a panicking `clamp(30, 5)`).
pub fn trials_for(n: usize, base: u64) -> u64 {
    let budget = 40_000_000u64; // ~events per point at first-decision cutoff
    (budget / (n as u64 * 40).max(1)).max(30).min(base.max(1))
}

/// Returns whether a bare `--key` flag (no value) was passed.
pub fn flag(key: &str) -> bool {
    let want = format!("--{key}");
    std::env::args().any(|a| a == want)
}

/// Parses `--key value` style arguments; returns the value for `key`,
/// or `default` when the flag is absent.
///
/// A flag whose value is missing or does not parse ends the process
/// with status 2 and a message naming the flag and the value.
pub fn arg<T: std::str::FromStr>(key: &str, default: T) -> T {
    let args: Vec<String> = std::env::args().collect();
    parse_arg(&args, key, default).unwrap_or_else(|msg| {
        eprintln!("{msg}");
        std::process::exit(2);
    })
}

/// [`arg`] over an explicit argument list: `Ok(default)` when `--key`
/// is absent, the parsed value after its first occurrence otherwise.
fn parse_arg<T: std::str::FromStr>(args: &[String], key: &str, default: T) -> Result<T, String> {
    let flag = format!("--{key}");
    let Some(i) = args.iter().position(|a| *a == flag) else {
        return Ok(default);
    };
    match args.get(i + 1) {
        None => Err(format!("{flag}: missing value")),
        Some(v) => v
            .parse()
            .map_err(|_| format!("{flag}: cannot parse value {v:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure1_ns_matches_paper_grid() {
        assert_eq!(
            figure1_ns(1000),
            vec![1, 2, 5, 10, 20, 50, 100, 200, 500, 1000]
        );
        assert_eq!(figure1_ns(1), vec![1]);
        // Non-grid max is appended.
        assert_eq!(figure1_ns(30), vec![1, 2, 5, 10, 20, 30]);
        assert_eq!(*figure1_ns(100_000).last().unwrap(), 100_000);
    }

    #[test]
    fn trials_scale_down_with_n() {
        assert_eq!(trials_for(1, 10_000), 10_000);
        assert!(trials_for(100_000, 10_000) >= 30);
        assert!(trials_for(100_000, 10_000) < trials_for(100, 10_000));
        // Small explicit --trials values are honored, not panicked on.
        assert_eq!(trials_for(100, 5), 5);
        assert_eq!(trials_for(100, 0), 1);
    }

    #[test]
    fn arg_returns_default_without_flag() {
        assert_eq!(arg("definitely-not-passed", 42u64), 42);
    }

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn parse_arg_covers_absent_valid_unparsable_and_missing_values() {
        let args = argv(&["bench", "--trials", "50", "--min-speedup", "1,2", "--seed"]);
        assert_eq!(parse_arg(&args, "out", 7u64), Ok(7));
        assert_eq!(parse_arg(&args, "trials", 0u64), Ok(50));
        assert_eq!(
            parse_arg(&args, "min-speedup", 1.6f64),
            Err("--min-speedup: cannot parse value \"1,2\"".to_string())
        );
        assert_eq!(
            parse_arg(&args, "seed", 0u64),
            Err("--seed: missing value".to_string())
        );
    }

    #[test]
    fn par_trials_preserves_trial_order_at_every_worker_count() {
        let serial: Vec<u64> = (0..1000u64).map(|t| t * t).collect();
        for threads in [0usize, 1, 2, 3, 8] {
            assert_eq!(par_trials(threads, 1000, |t| t * t), serial, "{threads}");
        }
        assert!(par_trials(4, 0, |t| t).is_empty());
    }

    #[test]
    fn par_trial_chunks_state_is_per_chunk_scratch_only() {
        // The per-chunk state must not leak into results: a counter that
        // workers mutate still yields a pure function of the trial index
        // as long as f ignores it for its output.
        for threads in [1usize, 4] {
            let out = par_trial_chunks(
                threads,
                257,
                || 0u64,
                |acc, t| {
                    *acc += 1;
                    t + 1
                },
            );
            assert_eq!(out, (1..=257u64).collect::<Vec<_>>());
        }
    }

    #[test]
    fn resolve_threads_zero_means_all_cores() {
        assert!(resolve_threads(0) >= 1);
        assert_eq!(resolve_threads(3), 3);
    }
}
