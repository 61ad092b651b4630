//! Open-loop load generation for [`NcService`].
//!
//! The generator schedules instance arrivals on a *virtual* clock
//! (instance `i` arrives at `i / rate` seconds) and admits every
//! instance whose arrival time has passed, regardless of how far the
//! service has fallen behind — the open-loop discipline, under which
//! queueing delay shows up as decide latency instead of silently
//! throttling the offered load. Decide latency of an instance is
//! measured from its *scheduled* arrival to the end of the batch that
//! decided it, so backlog is charged to the service, not hidden.
//!
//! Wall-clock numbers ([`LoadReport`]) are measurement, not simulation:
//! they vary run to run and never feed the deterministic commit logs or
//! golden scenarios. Proposal *values* are deterministic in the
//! instance id, so the reduced commit log produced under load is still
//! byte-reproducible for a given `(config, instances)`.

use std::time::Instant;

use nc_memory::Bit;
use nc_sched::rng::trial_seed;

use crate::NcService;

/// Salt for the generator's proposal-value derivation — distinct from
/// `nc_sched::rng::salts` so generated inputs never correlate with any
/// engine stream.
const LOADGEN_SALT: u64 = 0x10AD;

/// One open-loop workload.
#[derive(Clone, Copy, Debug)]
pub struct LoadSpec {
    /// Instances to submit (ids `0..instances`).
    pub instances: u64,
    /// Offered arrival rate in instances per second;
    /// `f64::INFINITY` = submit everything at t = 0 (saturation mode,
    /// measuring sustained throughput).
    pub rate: f64,
}

impl LoadSpec {
    /// A saturation workload: all `instances` arrive at t = 0.
    pub fn saturating(instances: u64) -> Self {
        LoadSpec {
            instances,
            rate: f64::INFINITY,
        }
    }

    /// An open-loop workload at `rate` instances/second.
    pub fn open_loop(instances: u64, rate: f64) -> Self {
        assert!(rate > 0.0, "need a positive arrival rate");
        LoadSpec { instances, rate }
    }
}

/// What one [`drive_open_loop`] run measured.
#[derive(Clone, Copy, Debug)]
pub struct LoadReport {
    /// Instances decided (= instances submitted; the drive runs to
    /// completion).
    pub decided: u64,
    /// Wall-clock seconds from first arrival to last decision.
    pub wall_secs: f64,
    /// Sustained throughput: `decided / wall_secs`.
    pub decided_per_sec: f64,
    /// Median decide latency (scheduled arrival → decided), seconds.
    pub p50_latency: f64,
    /// 99th-percentile decide latency, seconds.
    pub p99_latency: f64,
    /// Worst decide latency, seconds.
    pub max_latency: f64,
}

/// The deterministic proposal vector the generator submits for
/// instance `id`: bits of a SplitMix64-mixed word, so unanimous and
/// split instances both occur without any wall-clock dependence.
pub fn proposals_for(id: u64, procs: usize) -> Vec<Bit> {
    let word = trial_seed(id, 0, LOADGEN_SALT);
    (0..procs)
        .map(|p| Bit::from((word >> (p % 64)) & 1 == 1))
        .collect()
}

/// Drives `spec` through the front door to completion: arrivals go
/// through [`NcService::submit`], [`NcService::run_ready`] decides each
/// batch over `threads` workers, and decided facts come back through
/// [`NcService::drain_completions`]. Panics if the service already
/// holds instances whose ids collide with `0..instances`.
pub fn drive_open_loop(service: &mut NcService, spec: &LoadSpec, threads: usize) -> LoadReport {
    let procs = service.config().procs;
    let start = Instant::now();
    let mut submitted = 0u64;
    let mut decided = 0u64;
    let mut latencies: Vec<f64> = Vec::with_capacity(spec.instances as usize);

    while decided < spec.instances {
        // Admit every instance whose virtual arrival has passed.
        let now = start.elapsed().as_secs_f64();
        let due = if spec.rate.is_infinite() {
            spec.instances
        } else {
            ((now * spec.rate) as u64 + 1).min(spec.instances)
        };
        while submitted < due {
            for value in proposals_for(submitted, procs) {
                service
                    .submit(submitted, value)
                    .expect("load generator ids are fresh");
            }
            submitted += 1;
        }

        service.run_ready(threads);
        let fresh = service.drain_completions();
        if fresh.is_empty() {
            // Nothing ready: the next arrival is in the future. Yield
            // briefly instead of spinning the admission check.
            std::thread::sleep(std::time::Duration::from_micros(50));
            continue;
        }
        let done_at = start.elapsed().as_secs_f64();
        for fact in fresh {
            let arrival = if spec.rate.is_infinite() {
                0.0
            } else {
                fact.id as f64 / spec.rate
            };
            latencies.push((done_at - arrival).max(0.0));
            decided += 1;
        }
    }

    let wall = start.elapsed().as_secs_f64().max(1e-9);
    latencies.sort_unstable_by(f64::total_cmp);
    LoadReport {
        decided,
        wall_secs: wall,
        decided_per_sec: decided as f64 / wall,
        p50_latency: percentile(&latencies, 0.50),
        p99_latency: percentile(&latencies, 0.99),
        max_latency: latencies.last().copied().unwrap_or(0.0),
    }
}

/// The `q`-quantile of an ascending-sorted sample (nearest-rank).
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ServiceConfig;

    #[test]
    fn proposals_are_deterministic_and_mixed() {
        assert_eq!(proposals_for(7, 5), proposals_for(7, 5));
        assert_ne!(proposals_for(7, 8), proposals_for(8, 8));
        // Across a small id range both values must occur somewhere.
        let all: Vec<Bit> = (0..32).flat_map(|id| proposals_for(id, 4)).collect();
        assert!(all.contains(&Bit::Zero) && all.contains(&Bit::One));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&xs, 0.50), 2.0);
        assert_eq!(percentile(&xs, 0.99), 4.0);
        assert_eq!(percentile(&[], 0.99), 0.0);
    }

    fn cfg(procs: usize, shards: usize, seed: u64) -> ServiceConfig {
        ServiceConfig::builder()
            .procs(procs)
            .shards(shards)
            .seed(seed)
            .build()
            .unwrap()
    }

    #[test]
    fn saturating_drive_decides_everything() {
        let mut svc = NcService::new(cfg(3, 2, 11));
        let report = drive_open_loop(&mut svc, &LoadSpec::saturating(20), 1);
        assert_eq!(report.decided, 20);
        assert_eq!(svc.decided(), 20);
        assert!(report.decided_per_sec > 0.0);
        assert!(report.p99_latency >= report.p50_latency);
        assert!(report.max_latency >= report.p99_latency);
    }

    #[test]
    fn open_loop_drive_decides_everything() {
        let mut svc = NcService::new(cfg(3, 1, 12));
        // High rate so the test finishes quickly; correctness does not
        // depend on the rate.
        let report = drive_open_loop(&mut svc, &LoadSpec::open_loop(10, 1e6), 1);
        assert_eq!(report.decided, 10);
        assert_eq!(svc.decided(), 10);
    }
}
