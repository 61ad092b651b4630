//! The service-layer determinism contract:
//!
//! * per-shard commit journals do not depend on how many worker threads
//!   drained the shards (1-vs-4 threads, byte-identical, on batches
//!   large enough that `run_ready` really fans out),
//! * the canonical reduced commit log does not depend on the shard
//!   count either (1-vs-2-vs-4 shards, byte-identical),
//! * and the REQUIRED `trial_seed` per-instance seed derivation never
//!   collides across the instances of a run, whatever shard they land
//!   on (proptest).

use nc_memory::Bit;
use nc_sched::rng::{salts, trial_seed};
use nc_service::{loadgen, InstanceStatus, NcService, ServiceConfig, FANOUT_MIN_PROPOSALS};
use proptest::prelude::*;

const SEED: u64 = 40;
const PROCS: usize = 5;

/// Instances whose proposals reach `workers` × `FANOUT_MIN_PROPOSALS`:
/// the smallest batch `run_ready` fans over `workers` workers.
const fn fans_over(workers: usize) -> u64 {
    (workers * FANOUT_MIN_PROPOSALS).div_ceil(PROCS) as u64
}

/// The thread axes' batch: it fans over 4 workers, and the remainder
/// batch of `INSTANCES - FANNED` over 2.
const FANNED: u64 = fans_over(4);
const INSTANCES: u64 = FANNED + fans_over(2);

/// Builds a service, feeds it the deterministic loadgen proposal
/// stream, and decides everything with up to `threads` workers,
/// batching `batch` instances between `run_ready` calls.
fn run_service(shards: usize, threads: usize, batch: u64) -> NcService {
    let cfg = ServiceConfig::builder()
        .procs(PROCS)
        .shards(shards)
        .seed(SEED)
        .build()
        .unwrap();
    let mut svc = NcService::new(cfg);
    let mut submitted = 0u64;
    while submitted < INSTANCES {
        let until = (submitted + batch).min(INSTANCES);
        while submitted < until {
            for value in loadgen::proposals_for(submitted, PROCS) {
                svc.submit(submitted, value).unwrap();
            }
            submitted += 1;
        }
        svc.run_ready(threads);
    }
    assert_eq!(svc.decided() as u64, INSTANCES);
    svc
}

#[test]
fn commit_logs_identical_1_vs_4_threads() {
    let serial = run_service(4, 1, FANNED);
    let fanned = run_service(4, 4, FANNED);
    for s in 0..4 {
        assert_eq!(
            serial.commit_log_bytes(s),
            fanned.commit_log_bytes(s),
            "shard {s}: journal depends on worker-thread count"
        );
    }
    assert_eq!(serial.reduced_log(), fanned.reduced_log());
}

#[test]
fn reduced_log_identical_1_vs_4_shards() {
    let one = run_service(1, 1, 6);
    let two = run_service(2, 2, 6);
    let four = run_service(4, 4, 6);
    let log = one.reduced_log();
    assert!(!log.is_empty());
    assert_eq!(log, two.reduced_log(), "2 shards diverged from 1");
    assert_eq!(log, four.reduced_log(), "4 shards diverged from 1");
}

#[test]
fn batch_size_does_not_change_the_logs() {
    // Draining one instance at a time vs everything at once exercises
    // the pooled handle's reuse path; facts must not notice.
    let fine = run_service(2, 1, 1);
    let coarse = run_service(2, 1, INSTANCES);
    assert_eq!(fine.reduced_log(), coarse.reduced_log());
    for s in 0..2 {
        assert_eq!(fine.commit_log_bytes(s), coarse.commit_log_bytes(s));
    }
}

#[test]
fn every_instance_is_reported_decided() {
    let svc = run_service(4, 4, FANNED);
    for id in 0..INSTANCES {
        assert!(
            matches!(svc.status(id), InstanceStatus::Decided(_)),
            "instance {id} not decided"
        );
    }
    assert_eq!(svc.reduced_log().lines().count() as u64, INSTANCES);
}

proptest! {
    /// Per-instance seeds are injective over any run's id set: distinct
    /// instance ids (wherever they shard) never share a run seed, and
    /// the derivation is independent of the shard count by construction
    /// (it never sees one).
    #[test]
    fn instance_seeds_never_collide_within_a_run(
        service_seed in any::<u64>(),
        raw_ids in proptest::collection::vec(any::<u64>(), 2..64),
    ) {
        let ids: std::collections::BTreeSet<u64> = raw_ids.into_iter().collect();
        let mut seen = std::collections::HashMap::new();
        for &id in &ids {
            let seed = trial_seed(service_seed, id, salts::SERVICE);
            if let Some(prev) = seen.insert(seed, id) {
                prop_assert!(
                    false,
                    "instances {prev} and {id} share seed {seed} under service seed {service_seed}"
                );
            }
        }
        // And the service answers the same derivation per shard count.
        for shards in [1usize, 2, 4] {
            let svc = NcService::new(
                ServiceConfig::builder()
                    .procs(2)
                    .shards(shards)
                    .seed(service_seed)
                    .build()
                    .unwrap(),
            );
            for &id in ids.iter().take(4) {
                prop_assert_eq!(
                    svc.instance_seed(id),
                    trial_seed(service_seed, id, salts::SERVICE)
                );
            }
        }
    }

    /// The service-salted stream is disjoint from the engine's other
    /// salted streams for the same (seed, index) pair.
    #[test]
    fn service_salt_is_disjoint_from_other_salts(seed in any::<u64>(), t in any::<u64>()) {
        for other in [
            salts::NOISE,
            salts::FAILURE,
            salts::START,
            salts::ADVERSARY,
            salts::COIN,
            salts::VALUE_FAULTS,
            salts::NET_FAULTS,
            salts::GOSSIP,
        ] {
            prop_assert_ne!(
                trial_seed(seed, t, salts::SERVICE),
                trial_seed(seed, t, other),
                "SERVICE stream collides with salt {}", other
            );
        }
    }
}

#[test]
fn proposals_round_trip_through_bit() {
    // The loadgen derivation feeds Bit::from(bool); spot-check both
    // values appear across instances so the determinism suite isn't
    // vacuously testing unanimous runs only.
    let mut zeros = 0;
    let mut ones = 0;
    for id in 0..INSTANCES {
        for b in loadgen::proposals_for(id, PROCS) {
            match b {
                Bit::Zero => zeros += 1,
                Bit::One => ones += 1,
            }
        }
    }
    assert!(zeros > 0 && ones > 0, "degenerate proposal stream");
}
